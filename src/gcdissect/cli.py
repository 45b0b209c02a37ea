"""Command-line surface: plan documents, SVG figures, and subcommands.

Plan documents are versioned JSON.  All rational numbers cross the
boundary as "p/q" strings and floats as {"dec": repr} so parsing gives
back the same scalars byte for byte; a class built from floats carries an
explicit "tol".  The SVG renderer is deterministic: the same plan always
produces the same bytes.

Exit codes: 0 on success, 1 on a refusal (impossible dissection, failed
verification) with {"error": ...} on stdout, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence, Union

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
from .composition import ClassSet, ClassTerm, Interval, Op, combine
from .errors import GcError, PlanFormatError
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
    enumerate_trees,
    quotient_exponents,
    search_self_affine,
)
from .verifier import VerificationReport, verify_plan

PLAN_VERSION = 1

DEFAULT_FLOAT_TOL = 1e-9

# Most tiles dissect and selfaffine make: plan trees are walked recursively
# and a trapezoid fan nests one level per tile, so this keeps every walk
# well inside Python's default recursion limit of 1000.
MAX_TILES = 400


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


def class_from_doc(doc: object) -> AffineClass:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise PlanFormatError(f"bad class object: {doc!r}")
    kind = doc["kind"]
    try:
        if kind == "Q":
            return GenericQuad(
                scalar_from_json(doc["alpha"]), scalar_from_json(doc["beta"])
            )
        if kind == "T":
            return Trapezoid(scalar_from_json(doc["gamma"]))
        if kind == "P":
            return Parallelogram()
    except (KeyError, ValueError) as exc:
        raise PlanFormatError(f"bad class object: {doc!r}") from exc
    raise PlanFormatError(f"unknown class kind: {kind!r}")


def _tol_from_doc(value: object) -> float:
    """A declared tolerance: a finite number >= 0."""
    try:
        tol = float(value)
    except (TypeError, ValueError) as exc:
        raise PlanFormatError(f"bad tolerance: {value!r}") from exc
    if not (math.isfinite(tol) and tol >= 0):
        raise PlanFormatError(f"bad tolerance: {value!r}")
    return tol


def _list_from_doc(doc: dict, field: str) -> list:
    value = doc.get(field, [])
    if not isinstance(value, list):
        raise PlanFormatError(f"{field} must be a list, got {value!r}")
    return value


def _point_to_doc(p: Point) -> list:
    return [scalar_to_json(p[0]), scalar_to_json(p[1])]


def _point_from_doc(doc: object) -> Point:
    if not isinstance(doc, (list, tuple)) or len(doc) != 2:
        raise PlanFormatError(f"bad point: {doc!r}")
    try:
        return (scalar_from_json(doc[0]), scalar_from_json(doc[1]))
    except ValueError as exc:
        raise PlanFormatError(f"bad point: {doc!r}") from exc


def _points_from_doc(doc: object, what: str) -> tuple[Point, Point, Point, Point]:
    if not isinstance(doc, list) or len(doc) != 4:
        raise PlanFormatError(f"{what} must be a list of 4 points")
    a, b, c, d = (_point_from_doc(p) for p in doc)
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


def tree_from_doc(doc: object) -> Union[ExtTree, Construction]:
    if not isinstance(doc, dict):
        raise PlanFormatError(f"bad tree node: {doc!r}")
    if doc.get("leaf"):
        return LEAF
    if "construction" in doc:
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise PlanFormatError(f"bad construction params: {params!r}")
        try:
            items = tuple(
                (k, v if isinstance(v, int) else scalar_from_json(v))
                for k, v in params.items()
            )
        except ValueError as exc:
            raise PlanFormatError(f"bad construction params: {params!r}") from exc
        return Construction(doc["construction"], items)
    if doc.get("op") not in ("dot", "colon") or not {"left", "right"} <= doc.keys():
        raise PlanFormatError(f"bad tree node: {doc!r}")
    return Node(
        Op.DOT if doc["op"] == "dot" else Op.COLON,
        tree_from_doc(doc["left"]),
        bool(doc.get("flipL")),
        tree_from_doc(doc["right"]),
        bool(doc.get("flipR")),
    )


# ---------------------------------------------------------------------------
# plan documents


def plan_to_doc(plan: DissectionPlan, cls: AffineClass, tol: float = 0.0) -> dict:
    """Serialize a plan; cls is the class the tiles are copies of.

    tol declares the tolerance the plan verifies at, for constructions
    that are approximate even over rational inputs.
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


def plan_from_doc(doc: object) -> tuple[DissectionPlan, AffineClass, float]:
    """Rebuild (plan, tile class, declared tol) from a document."""
    if not isinstance(doc, dict):
        raise PlanFormatError("plan document must be a JSON object")
    if doc.get("version") != PLAN_VERSION:
        raise PlanFormatError(f"unsupported plan version: {doc.get('version')!r}")
    for field in ("class", "gc", "tree", "root", "tiles"):
        if field not in doc:
            raise PlanFormatError(f"plan document lacks {field!r}")
    cls = class_from_doc(doc["class"])
    declared = (doc["class"].get("tol", 0.0), doc.get("tol", 0.0))
    tol = max(_tol_from_doc(value) for value in declared)
    root_pts = _points_from_doc(doc["root"], "root")
    root_cls = classify_quadrangle(root_pts, tol=tol).cls
    root = LabeledQuad(root_cls, *root_pts)
    tiles = []
    for i, tdoc in enumerate(_list_from_doc(doc, "tiles")):
        if not isinstance(tdoc, dict):
            raise PlanFormatError(f"bad tile {i}: {tdoc!r}")
        pts = _points_from_doc(tdoc.get("points"), f"tile {i}")
        tiles.append(LabeledQuad(class_from_doc(tdoc.get("class")), *pts))
    cuts = []
    for i, cdoc in enumerate(_list_from_doc(doc, "cuts")):
        if not isinstance(cdoc, dict):
            raise PlanFormatError(f"bad cut {i}: {cdoc!r}")
        try:
            sides = int(cdoc["start_side"]), int(cdoc["end_side"])
            if not all(0 <= side < 4 for side in sides):
                raise ValueError(f"side indices {sides} not in 0..3")
            cuts.append(
                CutRecord(
                    _points_from_doc(cdoc["parent"], f"cut {i} parent"),
                    _point_from_doc(cdoc["start"]),
                    _point_from_doc(cdoc["end"]),
                    *sides,
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PlanFormatError(f"bad cut {i}: {cdoc!r}") from exc
    try:
        pinned = tuple(scalar_from_json(x) for x in _list_from_doc(doc, "pinned"))
    except ValueError as exc:
        raise PlanFormatError(f"bad pinned values: {doc['pinned']!r}") from exc
    plan = DissectionPlan(
        root=root,
        tiles=tuple(tiles),
        tree=tree_from_doc(doc["tree"]),
        pinned=pinned,
        gc=bool(doc["gc"]),
        cuts=tuple(cuts),
    )
    return plan, cls, tol


def dumps_plan(plan: DissectionPlan, cls: AffineClass, tol: float = 0.0) -> str:
    return json.dumps(plan_to_doc(plan, cls, tol), indent=2, sort_keys=True) + "\n"


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
    print(json.dumps(doc, indent=2, sort_keys=True))


def _write_plan(
    plan: DissectionPlan,
    cls: AffineClass,
    out: Union[str, None],
    tol: float = 0.0,
) -> None:
    text = dumps_plan(plan, cls, tol)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args) -> int:
    result = classify_quadrangle(args.points, tol=args.tol)
    _emit(
        {
            "class": class_to_doc(result.cls),
            "labeling": list(result.labeling),
        }
    )
    return 0


def _cmd_flip(args) -> int:
    try:
        flipped = flip(args.cls)
    except ValueError as exc:
        _emit({"error": str(exc)})
        return 1
    _emit({"class": class_to_doc(flipped)})
    return 0


def _cmd_compose(args) -> int:
    left = ClassTerm(args.left, args.flip_left)
    right = ClassTerm(args.right, args.flip_right)
    op = Op.DOT if args.op == "dot" else Op.COLON
    _emit(class_set_to_doc(combine(left, right, op)))
    return 0


def _cmd_search(args) -> int:
    hits = search_self_affine(args.cls, args.n, tol=args.tol)
    _emit(
        [
            {"tree": tree_to_doc(h.tree), "witness": class_to_doc(h.witness)}
            for h in hits
        ]
    )
    return 0


def _cmd_parity(args) -> int:
    exponents: set[int] = set()
    for t in enumerate_trees(args.n):
        exponents |= quotient_exponents(t)
    _emit({"n": args.n, "exponents": sorted(exponents)})
    return 0


def _cmd_family(args) -> int:
    beta = family_beta(FamilyId[args.id], args.alpha)
    _emit(
        {
            "id": args.id,
            "alpha": scalar_to_json(args.alpha),
            "beta": scalar_to_json(beta),
        }
    )
    return 0


def _check_tile_count(n: int) -> None:
    if n < 2:
        raise ValueError(f"need at least two tiles, got {n}")
    if n > MAX_TILES:
        raise ValueError(f"at most MAX_TILES = {MAX_TILES} tiles, got {n}")


def _cmd_dissect(args) -> int:
    cls, n = args.cls, args.n
    _check_tile_count(n)
    if isinstance(cls, (Trapezoid, Parallelogram)):
        plan = dissect_trapezoid_selfaffine(cls, n)
    elif n >= 5 and n % 2 == 1:
        plan = dissect_odd(cls, n)
    else:
        tol = args.tol if args.tol is not None else 0.0
        hits = search_self_affine(cls, n, tol=tol)
        if not hits:
            _emit(
                {
                    "error": f"no glass-cut dissection of {_class_text(cls)} "
                    f"into {n} copies of itself"
                }
            )
            return 1
        hit = hits[0]
        plan = realize_tree(
            hit.tree, cls, root=hit.witness, tol=tol if tol else None
        )
    _write_plan(plan, cls, args.out)
    return 0


def _cmd_selfaffine(args) -> int:
    cls, n = args.cls, args.n
    _check_tile_count(n)
    if isinstance(cls, (Trapezoid, Parallelogram)):
        plan = dissect_trapezoid_selfaffine(cls, n)
    elif n == 5:
        plan = dissect_por5(cls)
    elif n >= 6 and n % 2 == 0:
        # The steering parameter is bisected, so the plan is approximate
        # even over rational inputs.
        plan = dissect_even_general(cls, n)
        _write_plan(plan, cls, args.out, tol=DEFAULT_FLOAT_TOL)
        return 0
    else:
        _emit(
            {
                "error": f"the general constructions cover n = 5 and even "
                f"n >= 6; for other counts try the dissect command"
            }
        )
        return 1
    _write_plan(plan, cls, args.out)
    return 0


def _cmd_verify(args) -> int:
    with open(args.plan, encoding="utf-8") as fh:
        plan, cls, doc_tol = loads_plan(fh.read())
    tol = args.tol if args.tol is not None else doc_tol
    report = verify_plan(plan, tol, expected=cls)
    _emit(report_to_doc(report))
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    with open(args.plan, encoding="utf-8") as fh:
        plan, _, _ = loads_plan(fh.read())
    with open(args.svg, "w", encoding="utf-8") as fh:
        fh.write(render_svg(plan))
    _emit({"written": args.svg})
    return 0


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
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PlanFormatError as exc:
        _emit({"error": str(exc)})
        return 2
    except OSError as exc:
        _emit({"error": str(exc)})
        return 2
    except GcError as exc:
        _emit({"error": str(exc)})
        return 1
    except ValueError as exc:
        _emit({"error": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
