"""Command-line surface: plan documents, SVG figures, and subcommands.

Plan documents are versioned JSON.  All rational numbers cross the
boundary as "p/q" strings and floats as {"dec": repr} so parsing gives
back the same scalars byte for byte; a class built from floats carries an
explicit "tol".  The flags gc, leaf, flipL and flipR are JSON booleans,
and no boolean is read as a number.  The SVG renderer is deterministic:
the same plan always produces the same bytes.

Every subcommand returns (exit code, document) and main prints that one
document on stdout as one line of compact JSON with sorted keys, written
by json's C encoder (any indent would select its Python one); plans are
written the same way and read in any layout.  With --out, dissect and
selfaffine write the plan to the file and print {"written": path}.  Exit
codes: 0 on success, 1 on a refusal (impossible dissection, failed
verification, float input to the general constructions) with
{"error": ...}, 2 on usage, file and plan-format errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, Sequence, Union

from .affine_types import (
    AffineClass,
    CutRecord,
    GenericQuad,
    LabeledQuad,
    Parallelogram,
    Point,
    Trapezoid,
    classify_quadrangle,
    flip,
)
from .composition import ClassSet, Interval, Op, combine
from .errors import GcError, PlanFormatError, UnrealizableError
from .families import FamilyId, family_beta
from .realizer import (
    Construction,
    DissectionPlan,
    dissect_even_general,
    dissect_odd,
    dissect_por5,
    dissect_trapezoid_selfaffine,
    realize_tree,
)
from .scalars import (
    Scalar,
    is_exact,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
)
from .treesearch import (
    LEAF,
    ExtTree,
    Leaf,
    Node,
    reachable_exponents,
    search_self_affine,
)
from .verifier import VerificationReport, verify_plan

PLAN_VERSION = 1

DEFAULT_FLOAT_TOL = 1e-9

# Most tiles dissect and selfaffine make: plan trees are walked recursively
# and a trapezoid fan nests one level per tile, so this keeps every walk
# well inside Python's default recursion limit of 1000.
MAX_TILES = 400

ScalarReader = Callable[[object], Scalar]


# ---------------------------------------------------------------------------
# class and scalar documents


def class_to_doc(cls: AffineClass) -> dict:
    """JSON object for a class; float parameters carry a tol field."""
    if isinstance(cls, GenericQuad):
        doc = {
            "kind": "Q",
            "alpha": scalar_to_json(cls.alpha),
            "beta": scalar_to_json(cls.beta),
        }
        if not (is_exact(cls.alpha) and is_exact(cls.beta)):
            doc["tol"] = DEFAULT_FLOAT_TOL
        return doc
    if isinstance(cls, Trapezoid):
        doc = {"kind": "T", "gamma": scalar_to_json(cls.gamma)}
        if not is_exact(cls.gamma):
            doc["tol"] = DEFAULT_FLOAT_TOL
        return doc
    return {"kind": "P"}


def class_from_doc(doc: object, read: ScalarReader = scalar_from_json) -> AffineClass:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise PlanFormatError(f"bad class object: {doc!r}")
    kind = doc["kind"]
    try:
        if kind == "Q":
            return GenericQuad(read(doc["alpha"]), read(doc["beta"]))
        if kind == "T":
            return Trapezoid(read(doc["gamma"]))
        if kind == "P":
            return Parallelogram()
    except (KeyError, ValueError) as exc:
        raise PlanFormatError(f"bad class object: {doc!r}") from exc
    raise PlanFormatError(f"unknown class kind: {kind!r}")


def _tol_from_doc(value: object) -> float:
    """A declared tolerance: a finite number >= 0, not a boolean."""
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PlanFormatError(f"bad tolerance: {value!r}") from exc
    if isinstance(value, bool) or not (math.isfinite(tol) and tol >= 0):
        raise PlanFormatError(f"bad tolerance: {value!r}")
    return tol


def _list_from_doc(doc: dict, field: str) -> list:
    value = doc.get(field, [])
    if not isinstance(value, list):
        raise PlanFormatError(f"{field} must be a list, got {value!r}")
    return value


def _bool_from_doc(doc: dict, field: str) -> bool:
    """An optional JSON boolean field; absent reads as False."""
    value = doc.get(field, False)
    if not isinstance(value, bool):
        raise PlanFormatError(f"{field} must be true or false, got {value!r}")
    return value


def _point_to_doc(p: Point) -> list:
    return [scalar_to_json(p[0]), scalar_to_json(p[1])]


def _point_from_doc(doc: object, read: ScalarReader) -> Point:
    if not isinstance(doc, (list, tuple)) or len(doc) != 2:
        raise PlanFormatError(f"bad point: {doc!r}")
    try:
        return (read(doc[0]), read(doc[1]))
    except ValueError as exc:
        raise PlanFormatError(f"bad point: {doc!r}") from exc


def _points_from_doc(
    doc: object, what: str, read: ScalarReader
) -> tuple[Point, Point, Point, Point]:
    if not isinstance(doc, list) or len(doc) != 4:
        raise PlanFormatError(f"{what} must be a list of 4 points")
    a, b, c, d = (_point_from_doc(p, read) for p in doc)
    return (a, b, c, d)


# ---------------------------------------------------------------------------
# tree documents


def tree_to_doc(t: Union[ExtTree, Construction]) -> dict:
    if isinstance(t, Construction):
        params = {}
        for key, value in t.params:
            params[key] = value if isinstance(value, int) else scalar_to_json(value)
        return {"construction": t.name, "params": params}
    if isinstance(t, Leaf):
        return {"leaf": True}
    assert isinstance(t, Node)
    return {
        "op": "dot" if t.op is Op.DOT else "colon",
        "flipL": t.left_flip,
        "flipR": t.right_flip,
        "left": tree_to_doc(t.left),
        "right": tree_to_doc(t.right),
    }


def tree_from_doc(
    doc: object, read: ScalarReader = scalar_from_json
) -> Union[ExtTree, Construction]:
    if not isinstance(doc, dict):
        raise PlanFormatError(f"bad tree node: {doc!r}")
    if _bool_from_doc(doc, "leaf"):
        return LEAF
    if "construction" in doc:
        if doc["construction"] not in ("por5", "even_general"):
            raise PlanFormatError(f"unknown construction: {doc['construction']!r}")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise PlanFormatError(f"bad construction params: {params!r}")
        try:
            items = tuple(
                (k, v if type(v) is int else read(v))
                for k, v in params.items()
            )
        except ValueError as exc:
            raise PlanFormatError(f"bad construction params: {params!r}") from exc
        return Construction(doc["construction"], items)
    if doc.get("op") not in ("dot", "colon") or not {"left", "right"} <= doc.keys():
        raise PlanFormatError(f"bad tree node: {doc!r}")
    return Node(
        Op.DOT if doc["op"] == "dot" else Op.COLON,
        tree_from_doc(doc["left"], read),
        _bool_from_doc(doc, "flipL"),
        tree_from_doc(doc["right"], read),
        _bool_from_doc(doc, "flipR"),
    )


# ---------------------------------------------------------------------------
# plan documents


def plan_to_doc(plan: DissectionPlan, cls: AffineClass, tol: float = 0.0) -> dict:
    """Serialize a plan; cls is the class the tiles are copies of.

    tol declares the tolerance the plan verifies at, for plans with float
    coordinates; exact plans verify at any tol, 0 included.
    """
    doc = {
        "version": PLAN_VERSION,
        "class": class_to_doc(cls),
        "gc": plan.gc,
        "tree": tree_to_doc(plan.tree),
        "root": [_point_to_doc(p) for p in plan.root.points],
        "tiles": [
            {
                "points": [_point_to_doc(p) for p in t.points],
                "class": class_to_doc(t.cls),
            }
            for t in plan.tiles
        ],
        "pinned": [scalar_to_json(x) for x in plan.pinned],
        "cuts": [
            {
                "parent": [_point_to_doc(p) for p in c.parent],
                "start": _point_to_doc(c.start),
                "end": _point_to_doc(c.end),
                "start_side": c.start_side,
                "end_side": c.end_side,
            }
            for c in plan.cuts
        ],
    }
    if tol:
        doc["tol"] = tol
    return doc


def _scalar_reader() -> ScalarReader:
    """scalar_from_json that decodes each distinct string once, for one
    document: a plan repeats each vertex in up to four tiles and the cuts."""
    memo: dict[str, Scalar] = {}

    def read(obj: object) -> Scalar:
        if type(obj) is not str:
            return scalar_from_json(obj)
        value = memo.get(obj)
        if value is None:
            value = memo[obj] = scalar_from_json(obj)
        return value

    return read


def plan_from_doc(doc: object) -> tuple[DissectionPlan, AffineClass, float]:
    """Rebuild (plan, tile class, declared tol) from a document."""
    if not isinstance(doc, dict):
        raise PlanFormatError("plan document must be a JSON object")
    if doc.get("version") != PLAN_VERSION:
        raise PlanFormatError(f"unsupported plan version: {doc.get('version')!r}")
    for field in ("class", "gc", "tree", "root", "tiles"):
        if field not in doc:
            raise PlanFormatError(f"plan document lacks {field!r}")
    read = _scalar_reader()
    cls = class_from_doc(doc["class"], read)
    declared = (doc["class"].get("tol", 0.0), doc.get("tol", 0.0))
    tol = max(_tol_from_doc(value) for value in declared)
    root_pts = _points_from_doc(doc["root"], "root", read)
    root_cls = classify_quadrangle(root_pts, tol=tol).cls
    root = LabeledQuad(root_cls, *root_pts)
    tiles = []
    for i, tdoc in enumerate(_list_from_doc(doc, "tiles")):
        if not isinstance(tdoc, dict):
            raise PlanFormatError(f"bad tile {i}: {tdoc!r}")
        pts = _points_from_doc(tdoc.get("points"), f"tile {i}", read)
        tiles.append(LabeledQuad(class_from_doc(tdoc.get("class"), read), *pts))
    cuts = []
    for i, cdoc in enumerate(_list_from_doc(doc, "cuts")):
        if not isinstance(cdoc, dict):
            raise PlanFormatError(f"bad cut {i}: {cdoc!r}")
        try:
            sides = cdoc["start_side"], cdoc["end_side"]
            if not all(type(side) is int and 0 <= side < 4 for side in sides):
                raise ValueError(f"side indices {sides} are not integers in 0..3")
            cuts.append(
                CutRecord(
                    _points_from_doc(cdoc["parent"], f"cut {i} parent", read),
                    _point_from_doc(cdoc["start"], read),
                    _point_from_doc(cdoc["end"], read),
                    *sides,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanFormatError(f"bad cut {i}: {cdoc!r}") from exc
    try:
        pinned = tuple(read(x) for x in _list_from_doc(doc, "pinned"))
    except ValueError as exc:
        raise PlanFormatError(f"bad pinned values: {doc['pinned']!r}") from exc
    plan = DissectionPlan(
        root=root,
        tiles=tuple(tiles),
        tree=tree_from_doc(doc["tree"], read),
        pinned=pinned,
        gc=_bool_from_doc(doc, "gc"),
        cuts=tuple(cuts),
    )
    return plan, cls, tol


def _dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def dumps_plan(plan: DissectionPlan, cls: AffineClass, tol: float = 0.0) -> str:
    return _dumps(plan_to_doc(plan, cls, tol))


def loads_plan(text: str) -> tuple[DissectionPlan, AffineClass, float]:
    try:
        return plan_from_doc(json.loads(text))
    except json.JSONDecodeError as exc:
        raise PlanFormatError(f"not JSON: {exc}") from exc
    except RecursionError as exc:
        raise PlanFormatError("plan document nests too deeply") from exc


# ---------------------------------------------------------------------------
# SVG rendering

_FILLS = (
    "#8dd3c7",
    "#ffffb3",
    "#bebada",
    "#fb8072",
    "#80b1d3",
    "#fdb462",
    "#b3de69",
    "#fccde5",
)


def _fmt(x: Scalar) -> str:
    return f"{float(x):.6f}"


def render_svg(plan: DissectionPlan) -> str:
    """Deterministic SVG: shaded tiles, cut segments, root outline."""
    xs = [float(p[0]) for p in plan.root.points]
    ys = [float(p[1]) for p in plan.root.points]
    margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys))
    x0, y0 = min(xs) - margin, min(ys) - margin
    w = max(xs) - min(xs) + 2 * margin
    h = max(ys) - min(ys) + 2 * margin
    # Flip y so the mathematical orientation is preserved on screen.
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="480" height="{_fmt(480 * h / w)}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y0 - h)} {_fmt(w)} {_fmt(h)}">',
        '<g transform="scale(1,-1)">',
    ]
    sw = _fmt(0.004 * max(w, h))
    for i, tile in enumerate(plan.tiles):
        pts = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in tile.points)
        fill = _FILLS[i % len(_FILLS)]
        lines.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.8" '
            f'stroke="#555555" stroke-width="{sw}"/>'
        )
    for cut in plan.cuts:
        lines.append(
            f'<line x1="{_fmt(cut.start[0])}" y1="{_fmt(cut.start[1])}" '
            f'x2="{_fmt(cut.end[0])}" y2="{_fmt(cut.end[1])}" '
            f'stroke="#000000" stroke-width="{_fmt(0.008 * max(w, h))}"/>'
        )
    root_pts = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in plan.root.points)
    lines.append(
        f'<polygon points="{root_pts}" fill="none" stroke="#000000" '
        f'stroke-width="{_fmt(0.012 * max(w, h))}"/>'
    )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# other result documents


def _interval_to_doc(iv: Interval) -> dict:
    return {
        "lo": scalar_to_json(iv.lo),
        "lo_closed": iv.lo_closed,
        "hi": scalar_to_json(iv.hi),
        "hi_closed": iv.hi_closed,
    }


def class_set_to_doc(s: ClassSet) -> dict:
    return {
        "q_points": [class_to_doc(c) for c in s.q_points],
        "t_points": [class_to_doc(c) for c in s.t_points],
        "t_intervals": [_interval_to_doc(iv) for iv in s.t_intervals],
        "q_curves": [
            {"quotient": scalar_to_json(c.quotient), "betas": _interval_to_doc(c.betas)}
            for c in s.q_curves
        ],
        "has_p": s.has_p,
    }


def report_to_doc(report: VerificationReport) -> dict:
    return {
        "ok": report.ok,
        "tiles": [
            {
                "index": r.index,
                "expected": class_to_doc(r.expected),
                "got": None if r.got is None else class_to_doc(r.got),
                "ok": r.ok,
                "note": r.note,
            }
            for r in report.tile_results
        ],
        "area_deficit": scalar_to_json(report.area_deficit),
        "max_overlap_area": scalar_to_json(report.max_overlap_area),
        "gc_cut_violations": list(report.gc_cut_violations),
        "outside_vertices": list(report.outside_vertices),
    }


# ---------------------------------------------------------------------------
# argument parsing


def _parse_class(text: str) -> AffineClass:
    """Parse the class syntax: Q:alpha,beta / T:gamma / P."""
    s = text.strip()
    try:
        if s == "P":
            return Parallelogram()
        if s.startswith("Q:"):
            alpha, beta = s[2:].split(",")
            return GenericQuad(parse_scalar(alpha), parse_scalar(beta))
        if s.startswith("T:"):
            return Trapezoid(parse_scalar(s[2:]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad class {text!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"bad class {text!r}: expected Q:alpha,beta or T:gamma or P"
    )


def _parse_points(text: str) -> tuple[Point, Point, Point, Point]:
    parts = text.strip().split(";")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected 4 points x,y;x,y;x,y;x,y")
    out = []
    for part in parts:
        try:
            x, y = part.split(",")
            out.append((parse_scalar(x), parse_scalar(y)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad point {part!r}") from exc
    a, b, c, d = out
    return (a, b, c, d)


def _parse_tol(text: str) -> float:
    try:
        return _tol_from_doc(text)
    except PlanFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """On stdout, usage errors print {"error": ...} (exit 2) and --help {"help": ...}."""

    def print_help(self, file=None):
        _emit({"help": self.format_help()})

    def error(self, message: str):
        self.print_usage(sys.stderr)
        _emit({"error": f"{self.prog}: {message}"})
        self.exit(2)


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcdissect",
        description="Decide, construct, and verify glass-cut self-affine "
        "dissections of convex quadrangles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="affine class of four vertices")
    p.add_argument("--points", type=_parse_points, required=True)
    p.add_argument("--tol", type=_parse_tol, default=0.0)

    p = sub.add_parser("flip", help="the other parametrization of a Q class")
    p.add_argument("--class", dest="cls", type=_parse_class, required=True)

    p = sub.add_parser("compose", help="glue two classes along a side")
    p.add_argument("--left", type=_parse_class, required=True)
    p.add_argument("--right", type=_parse_class, required=True)
    p.add_argument("--op", choices=("dot", "colon"), required=True)
    p.add_argument("--flip-left", action="store_true")
    p.add_argument("--flip-right", action="store_true")

    p = sub.add_parser("search", help="cut trees reproducing the class")
    p.add_argument("--class", dest="cls", type=_parse_class, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=_parse_tol, default=0.0)

    p = sub.add_parser("parity", help="reachable quotient exponents at n leaves")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("family", help="beta placing alpha on a 3-tile family")
    p.add_argument("--id", choices=("II", "III", "IV"), required=True)
    p.add_argument("--alpha", type=parse_scalar, required=True)

    p = sub.add_parser("dissect", help="glass-cut self-affine dissection")
    p.add_argument("--class", dest="cls", type=_parse_class, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=_parse_tol, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("selfaffine", help="dissection allowing non-glass cuts")
    p.add_argument("--class", dest="cls", type=_parse_class, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="check a plan document")
    p.add_argument("--plan", required=True)
    p.add_argument("--tol", type=_parse_tol, default=None)

    p = sub.add_parser("render", help="draw a plan document as SVG")
    p.add_argument("--plan", required=True)
    p.add_argument("--svg", required=True)
    return parser


# ---------------------------------------------------------------------------
# subcommands


def _emit(doc: object) -> None:
    sys.stdout.write(_dumps(doc))


def _cmd_classify(args) -> tuple[int, object]:
    result = classify_quadrangle(args.points, tol=args.tol)
    return 0, {"class": class_to_doc(result.cls), "labeling": list(result.labeling)}


def _cmd_flip(args) -> tuple[int, object]:
    return 0, {"class": class_to_doc(flip(args.cls))}


def _cmd_compose(args) -> tuple[int, object]:
    op = Op.DOT if args.op == "dot" else Op.COLON
    return 0, class_set_to_doc(combine(args.left, args.flip_left, args.right, args.flip_right, op))


def _cmd_search(args) -> tuple[int, object]:
    hits = search_self_affine(args.cls, args.n, tol=args.tol)
    return 0, [
        {"tree": tree_to_doc(h.tree), "witness": class_to_doc(h.witness)}
        for h in hits
    ]


def _cmd_parity(args) -> tuple[int, object]:
    return 0, {"n": args.n, "exponents": sorted(reachable_exponents(args.n))}


def _cmd_family(args) -> tuple[int, object]:
    beta = family_beta(FamilyId[args.id], args.alpha)
    return 0, {
        "id": args.id,
        "alpha": scalar_to_json(args.alpha),
        "beta": scalar_to_json(beta),
    }


def _check_tile_count(n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least two tiles, got {n}")
    if n > MAX_TILES:
        raise ValueError(f"at most MAX_TILES = {MAX_TILES} tiles, got {n}")


def _cmd_dissect(args) -> tuple[int, object]:
    cls, n = args.cls, args.n
    _check_tile_count(n)
    if isinstance(cls, (Trapezoid, Parallelogram)):
        plan = dissect_trapezoid_selfaffine(cls, n)
    elif n % 2 == 0:
        raise UnrealizableError(
            f"no glass-cut dissection of {_class_text(cls)} into {n} copies: by the "
            "paper's parity theorem, a non-trapezoid has none for even n"
        )
    elif n >= 5:
        plan = dissect_odd(cls, n)
    else:
        tol = args.tol if args.tol is not None else 0.0
        hits = search_self_affine(cls, n, tol=tol)
        if not hits:
            raise UnrealizableError(
                f"no glass-cut dissection of {_class_text(cls)} "
                f"into {n} copies of itself"
            )
        hit = hits[0]
        plan = realize_tree(
            hit.tree, cls, root=hit.witness, tol=tol if tol else None
        )
    return 0, plan_to_doc(plan, cls)


def _cmd_selfaffine(args) -> tuple[int, object]:
    cls, n = args.cls, args.n
    _check_tile_count(n)
    if isinstance(cls, (Trapezoid, Parallelogram)):
        return 0, plan_to_doc(dissect_trapezoid_selfaffine(cls, n), cls)
    if n == 5:
        return 0, plan_to_doc(dissect_por5(cls), cls)
    if n >= 6 and n % 2 == 0:
        return 0, plan_to_doc(dissect_even_general(cls, n), cls)
    if n >= 7:
        return 0, plan_to_doc(dissect_odd(cls, n), cls)
    raise UnrealizableError(
        f"the general constructions cover every n >= 5, not n = {n}; "
        "for fewer tiles the dissect command decides glass-cut dissections"
    )


def _load_plan_file(path: str) -> tuple[DissectionPlan, AffineClass, float]:
    """loads_plan on a file's text; bytes that are not UTF-8 are a plan-format problem."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise PlanFormatError(f"plan file is not UTF-8 text: {exc}") from exc
    return loads_plan(text)


def _cmd_verify(args) -> tuple[int, object]:
    plan, cls, doc_tol = _load_plan_file(args.plan)
    tol = args.tol if args.tol is not None else doc_tol
    report = verify_plan(plan, tol, expected=cls)
    return (0 if report.ok else 1), report_to_doc(report)


def _cmd_render(args) -> tuple[int, object]:
    plan, _, _ = _load_plan_file(args.plan)
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(render_svg(plan))
    return 0, {"written": args.svg}


def _class_text(cls: AffineClass) -> str:
    if isinstance(cls, GenericQuad):
        return f"Q({cls.alpha},{cls.beta})"
    if isinstance(cls, Trapezoid):
        return f"T({cls.gamma})"
    return "P"


_COMMANDS = {
    "classify": _cmd_classify,
    "flip": _cmd_flip,
    "compose": _cmd_compose,
    "search": _cmd_search,
    "parity": _cmd_parity,
    "family": _cmd_family,
    "dissect": _cmd_dissect,
    "selfaffine": _cmd_selfaffine,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv: Union[Sequence[str], None] = None) -> int:
    """Run one command and print its one JSON document; return the exit code.

    dissect and selfaffine with --out write the plan there and print
    {"written": path}.
    """
    args = _build_parser().parse_args(argv)
    try:
        code, doc = _COMMANDS[args.command](args)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(_dumps(doc))
            doc = {"written": args.out}
    except (PlanFormatError, OSError) as exc:
        code, doc = 2, {"error": str(exc)}
    except (GcError, ValueError) as exc:
        code, doc = 1, {"error": str(exc)}
    except OverflowError as exc:
        # an exact input too large for the float arithmetic it meets, such
        # as a drawn coordinate or one beside float coordinates
        code, doc = 1, {"error": f"number out of float range: {exc}"}
    _emit(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
