"""Seeded inputs, requests and output checks for the three workloads.

Every request is generated from (workload, seed, index) alone, so a fresh
process can rebuild request 0 for the set-up probe, and the same seed always
gives the same inputs.  The library receives only the generated classes and
plans.  Requests call the library through module attributes looked up at call
time (``treesearch.search_self_affine``, ``realizer.dissect_odd``,
``cli.main``, ...), which is where the tracer rebinds them.

decide   ``search_self_affine(cls, 5)`` over a fixed rotation of class kinds:
         exact generic non-kites (hits), exact affine kites (exhaustive, no
         hits), float classes on families II/III/IV at tol 1e-9 (many hits),
         one trapezoid and the parallelogram (fans).
certify  ``search_self_affine(cls, 6)`` on exact generic classes drawn like
         acceptance criterion 3 (denominators up to 9); every answer is empty.
plans    one construction saved with ``dumps_plan`` and checked with
         ``cli.main(["verify", "--plan", path])``.  One plan in eight is
         tampered before it is saved, rotating through four kinds.

A fixed rotation of kinds, and a fixed low-discrepancy sequence of plan
sizes, keep every run's mix the same whatever its length; the seed draws
the classes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import random
from fractions import Fraction as F

from gcdissect import affine_types, cli, composition, families, realizer, treesearch
from gcdissect.affine_types import GenericQuad, Parallelogram, Trapezoid

DECIDE_N = 5
CERTIFY_N = 6
FLOAT_TOL = 1e-9
MAX_DEN = 9
MAX_TILES = 51

DECIDE_ROTATION = (
    "generic", "kite", "family_II", "generic",
    "family_III", "trapezoid", "family_IV", "parallelogram",
)

# Tampered plans: every TAMPER_EVERY-th request, kinds in rotation.
TAMPER_EVERY = 8
TAMPERS = ("overlap", "wrong_class", "outside", "gc_flag")
# Tamper kinds the verifier does not detect yet: a tile moved wholly outside
# the root (no containment check) and "gc": true on a plan without glass cuts
# (no cut replay).  They count as failed requests but do not make the run
# incorrect; any other failure does.  Drop a kind here once it is detected.
KNOWN_DEFECTS = frozenset({"outside", "gc_flag"})
# Requests after which the tamper kinds, and the constructions the gc_flag
# plans use, have come round again: a run of whole cycles fails the same
# number of requests (one in sixteen at the seed) whatever its seed.
PLANS_CYCLE = 2 * TAMPER_EVERY * len(TAMPERS)

CONSTRUCTIONS = (
    "odd", "odd_kite", "fan_T", "fan_P", "por5", "even_general", "trapezoid",
)
# (smallest tile count, step) per construction; all run up to MAX_TILES.
SIZES = {
    "odd": (5, 2),
    "odd_kite": (7, 2),
    "fan_T": (2, 1),
    "fan_P": (2, 1),
    "por5": (5, 1),
    "even_general": (6, 2),
    "trapezoid": (2, 2),
}
GOLDEN = (math.sqrt(5) - 1) / 2


@dataclasses.dataclass(frozen=True)
class Request:
    index: int
    kind: str
    cls: object
    n: int
    tol: float = 0.0
    gamma: object = None  # host ratio, trapezoid construction only
    tamper: str | None = None


@dataclasses.dataclass(frozen=True)
class Verdict:
    ok: bool
    known_defect: bool = False
    note: str = ""


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash through sha512, so draws do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


def _fraction(rng: random.Random) -> F:
    d = rng.randint(3, MAX_DEN)
    return F(rng.randint(1, d - 1), d)


def _generic(rng: random.Random) -> GenericQuad:
    while True:
        a, b = _fraction(rng), _fraction(rng)
        if a < b:
            return GenericQuad(a, b)


def _non_kite(rng: random.Random) -> GenericQuad:
    while True:
        cls = _generic(rng)
        if not affine_types.is_affine_kite(cls):
            return cls


def _kite(rng: random.Random) -> GenericQuad:
    a = _fraction(rng)
    return GenericQuad(a, 1 / (2 - a))


def _family(rng: random.Random, family: families.FamilyId) -> GenericQuad:
    while True:
        alpha = F(rng.randint(1, 99), 100)
        cls = GenericQuad(alpha, families.family_beta(family, alpha))
        # Stay clear of the kite curve, where the hit/no-hit answer flips.
        if not affine_types.is_affine_kite(cls, 1e-6):
            return cls


# ---------------------------------------------------------------------------
# decide and certify


class Search:
    cycle = None  # runs last --seconds

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed

    def request(self, index: int) -> Request:
        rng = _rng(self.name, self.seed, index)
        if self.name == "certify":
            return Request(index, "generic", _generic(rng), CERTIFY_N)
        kind = DECIDE_ROTATION[index % len(DECIDE_ROTATION)]
        if kind == "generic":
            return Request(index, kind, _non_kite(rng), DECIDE_N)
        if kind == "kite":
            return Request(index, kind, _kite(rng), DECIDE_N)
        if kind == "trapezoid":
            return Request(index, kind, Trapezoid(_fraction(rng)), DECIDE_N)
        if kind == "parallelogram":
            return Request(index, kind, Parallelogram(), DECIDE_N)
        family = families.FamilyId[kind.split("_")[1]]
        return Request(index, kind, _family(rng, family), DECIDE_N, FLOAT_TOL)

    def execute(self, req: Request):
        return treesearch.search_self_affine(req.cls, req.n, tol=req.tol)

    def check(self, req: Request, hits) -> Verdict:
        """Decisions and witnesses only: witness lists may become lazy."""
        if self.name == "certify":
            return Verdict(hits == [], note="" if hits == [] else "hit at n=6")
        cls, tol = req.cls, req.tol
        if isinstance(cls, GenericQuad):
            expect = not affine_types.is_affine_kite(cls, tol)
            accepted = {cls, affine_types.flip(cls)}
        else:
            expect = True
            accepted = {cls}
        if bool(hits) != expect:
            return Verdict(False, note=f"{len(hits)} hits, expected hits={expect}")
        for hit in hits:
            if hit.witness not in accepted:
                return Verdict(False, note=f"witness {hit.witness} is not {cls}")
            root = treesearch.evaluate(hit.tree, cls)
            if not composition.member(root, hit.witness, tol):
                return Verdict(False, note=f"witness tree {hit.tree.key} misses {cls}")
        return Verdict(True)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# plans


def _size(construction: str, u: float) -> int:
    """Tile count at quantile u of a log-uniform law over the valid counts,
    so small plans set the median and large ones the tail."""
    lo, step = SIZES[construction]
    if construction == "por5":
        return lo
    x = lo * (MAX_TILES / lo) ** u
    return lo + step * min(round((x - lo) / step), (MAX_TILES - lo) // step)


def _area(pts):
    return abs(sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1]))) / 2


def _centroid(pts):
    return (sum(p[0] for p in pts) / 4, sum(p[1] for p in pts) / 4)


def _translate(tile, dx, dy):
    pts = [(x + dx, y + dy) for x, y in tile.points]
    return dataclasses.replace(tile, a=pts[0], b=pts[1], c=pts[2], d=pts[3])


def tamper(plan, kind: str):
    """The plan with one defect of the given kind planted in it."""
    if kind == "gc_flag":
        return dataclasses.replace(plan, gc=True)
    tiles = list(plan.tiles)
    # The two largest tiles, so that the planted defect is far above the
    # plan's tolerance however thin its smallest tiles are.
    by_area = sorted(range(len(tiles)), key=lambda j: _area(tiles[j].points), reverse=True)
    k, other = by_area[0], by_area[1]
    tile = tiles[k]
    if kind == "overlap":
        # Put the tile's centroid on the other tile's centroid; both are
        # interior points, so the two tiles overlap in positive area.
        cx, cy = _centroid(tile.points)
        nx, ny = _centroid(tiles[other].points)
        tiles[k] = _translate(tile, nx - cx, ny - cy)
    elif kind == "wrong_class":
        # Cut a corner triangle off along side ab: still convex, smaller
        # area, and (generically) another class.
        a, b = tile.a, tile.b
        tiles[k] = dataclasses.replace(
            tile, a=(a[0] + (b[0] - a[0]) / 4, a[1] + (b[1] - a[1]) / 4)
        )
    elif kind == "outside":
        xs = [p[0] for p in plan.root.points]
        tiles[k] = _translate(tile, 2 * (max(xs) - min(xs)) + 1, 0)
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return dataclasses.replace(plan, tiles=tuple(tiles))


class Plans:
    name = "plans"
    cycle = PLANS_CYCLE  # runs are whole cycles

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        os.makedirs(workdir, exist_ok=True)
        self.path = os.path.join(workdir, f"plan-{os.getpid()}.json")

    def request(self, index: int) -> Request:
        rng = _rng(self.name, self.seed, index)
        planted = None
        construction = CONSTRUCTIONS[index % len(CONSTRUCTIONS)]
        if index % TAMPER_EVERY == TAMPER_EVERY - 1:
            slot = index // TAMPER_EVERY
            planted = TAMPERS[slot % len(TAMPERS)]
            if planted == "gc_flag":
                # Only plans without glass cuts can be mislabelled as gc.
                construction = ("por5", "even_general")[slot // len(TAMPERS) % 2]
        n = _size(construction, (0.5 + index * GOLDEN) % 1.0)
        if construction == "fan_T":
            cls = Trapezoid(_fraction(rng))
        elif construction == "fan_P":
            cls = Parallelogram()
        elif construction == "odd_kite":
            cls = _kite(rng)
        else:
            cls = _non_kite(rng)
        tol = FLOAT_TOL if construction == "even_general" else 0.0
        gamma = None
        if construction == "trapezoid":
            base = cls.alpha * cls.beta
            if n == 2:
                gamma = base
            else:
                bound = base * min(affine_types.flip_factor(cls), 1)
                gamma = bound + (1 - bound) * F(rng.randint(1, 9), 10)
        return Request(index, construction, cls, n, tol, gamma, planted)

    def construct(self, req: Request):
        kind, cls, n = req.kind, req.cls, req.n
        if kind in ("odd", "odd_kite"):
            return realizer.dissect_odd(cls, n)
        if kind in ("fan_T", "fan_P"):
            return realizer.dissect_trapezoid_selfaffine(cls, n)
        if kind == "por5":
            return realizer.dissect_por5(cls)
        if kind == "even_general":
            return realizer.dissect_even_general(cls, n)
        return realizer.dissect_trapezoid(req.gamma, cls, n)

    def execute(self, req: Request):
        plan = self.construct(req)
        if req.tamper:
            plan = tamper(plan, req.tamper)
        text = cli.dumps_plan(plan, req.cls, req.tol)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--plan", self.path])
        return code, json.loads(out.getvalue())

    def check(self, req: Request, result) -> Verdict:
        code, doc = result
        if req.tamper is None:
            ok = code == 0 and doc.get("ok") is True
            return Verdict(ok, note="" if ok else f"exit {code} on an intact plan")
        if code == 1 and doc.get("ok") is False:
            return Verdict(True)
        return Verdict(
            False,
            known_defect=req.tamper in KNOWN_DEFECTS,
            note=f"tampered plan ({req.tamper}) gave exit {code}",
        )

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)


NAMES = ("decide", "certify", "plans")


def make(name: str, seed: int, workdir: str):
    if name == "plans":
        return Plans(seed, workdir)
    if name in NAMES:
        return Search(name, seed)
    raise ValueError(f"unknown workload {name!r}")
