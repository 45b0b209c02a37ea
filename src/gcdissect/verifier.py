"""Independent checks that a dissection plan is what it claims to be.

The verifier reads only coordinates and cut records.  It re-classifies
every tile, sums areas, checks every tile vertex lies in the root, tests
the tiles pairwise for overlap, and for glass-cut plans replays the cuts
from the root.  Exact inputs are checked exactly; a positive tolerance
scales with the root's area for the area and containment checks, with a
side's length for cut endpoints, and is passed through to classification.

Overlap is tested in three stages: a sweep over the tiles' bounding boxes,
sorted by min-x, keeps the pairs whose boxes overlap with positive width and
height; a separating-axis test (Ericson, Real-Time Collision Detection, 5)
drops every pair that an edge line of either tile separates, by signs of
cross products and without division, counting tiles that only touch as
separated (their overlap area is exactly 0); the rest are clipped with the
Sutherland-Hodgman algorithm, so rational plans give rational intersection
areas and a tolerance of zero is meaningful.  A tile that is not a strictly
convex quad is clipped against every other tile.

Exact plans are checked on ints: root, tile and cut coordinates are
multiplied by the lcm of their denominators, which keeps every sign and
multiplies every area by the same square; reported areas are divided back
exactly.  A plan with a float coordinate keeps scale 1 and its own
coordinates.  Tiles are classified from their own points.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Sequence

from .affine_types import (
    AffineClass,
    CutRecord,
    Point,
    canonicalize,
    class_close,
    classify_quadrangle,
    cross,
    dot,
    lerp,
    on_lattice,
    vsub,
)
from .errors import AmbiguousGeometryError, InvalidQuadrangleError
from .realizer import DissectionPlan
from .scalars import Scalar, divide

Polygon = Sequence[Point]


def _doubled_area(pts: Polygon) -> Scalar:
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))


def signed_area(pts: Polygon) -> Scalar:
    """Area of a simple polygon, positive when its vertices run
    counterclockwise."""
    return divide(_doubled_area(pts), 2)


def polygon_area(pts: Polygon) -> Scalar:
    """Unsigned area of a simple polygon."""
    return abs(signed_area(pts))


def _clip_halfplane(subject: list[Point], a: Point, b: Point) -> list[Point]:
    """Keep the part of subject on or left of the directed line ab."""
    if not subject:
        return subject
    edge = vsub(b, a)
    out: list[Point] = []
    prev = subject[-1]
    prev_side = cross(edge, vsub(prev, a))
    for cur in subject:
        cur_side = cross(edge, vsub(cur, a))
        if (cur_side >= 0) != (prev_side >= 0):  # the edge crosses the line
            out.append(lerp(prev, cur, divide(prev_side, prev_side - cur_side)))
        if cur_side >= 0:
            out.append(cur)
        prev, prev_side = cur, cur_side
    return out


def convex_intersection_area(p: Polygon, q: Polygon) -> Scalar:
    """Area of the intersection of two convex polygons.

    Symmetric in its arguments.  Polygons may be given in either
    orientation; shared edges and vertices contribute nothing.
    """
    p = list(p)
    q = list(q)
    if signed_area(q) < 0:
        q = q[::-1]
    subject = p
    for i in range(len(q)):
        subject = _clip_halfplane(subject, q[i], q[(i + 1) % len(q)])
        if not subject:
            return 0
    return polygon_area(subject)


def _inner_lines(pts: Polygon, sign: int) -> list[tuple[Scalar, Scalar, Scalar]]:
    """Per edge pq, nx*x + ny*y + c = twice the signed area of (p, q, v)
    times sign; with sign the polygon's orientation, positive inside."""
    lines = []
    for p, q in zip(pts, pts[1:] + pts[:1]):
        ex, ey = sign * (q[0] - p[0]), sign * (q[1] - p[1])
        lines.append((-ey, ex, ey * p[0] - ex * p[1]))
    return lines


def _convex_lines(pts: Polygon, area: Scalar) -> list | None:
    """Inner edge forms of a strictly convex, non-degenerate quad with the
    given signed area; None for any other tile."""
    if len(pts) != 4 or area == 0:
        return None
    lines = _inner_lines(pts, 1 if area > 0 else -1)
    # Strictly convex: the vertex after each edge is strictly on its inner side.
    after = zip(lines, pts[2:] + pts[:2])
    return None if any(nx * x + ny * y + c <= 0 for (nx, ny, c), (x, y) in after) else lines


def _overlap_candidates(tiles: Sequence[Polygon], lines: list) -> list[tuple[int, int]]:
    """Sorted pairs i < j that may overlap in positive area: tiles with edge
    forms whose bounding boxes overlap with positive width and height (by a
    sweep over min-x), and every pair with a tile that has none."""
    pairs = set()
    boxes = {}
    for i, pts in enumerate(tiles):
        if lines[i] is None:
            pairs.update((min(i, j), max(i, j)) for j in range(len(tiles)) if j != i)
        else:
            xs, ys = [p[0] for p in pts], [p[1] for p in pts]
            boxes[i] = (min(xs), max(xs), min(ys), max(ys))
    active: list[int] = []
    for i in sorted(boxes, key=lambda k: boxes[k][0]):
        x0, _, y0, y1 = boxes[i]
        active = [j for j in active if boxes[j][1] > x0]
        overlapping = (j for j in active if boxes[j][2] < y1 and y0 < boxes[j][3])
        pairs.update((min(i, j), max(i, j)) for j in overlapping)
        active.append(i)
    return sorted(pairs)


def _separated(p: Polygon, p_lines: list, q: Polygon, q_lines: list) -> bool:
    """Some edge line of p or of q has the other polygon wholly on or
    outside it, so their interiors are disjoint."""
    for lines, pts in ((p_lines, q), (q_lines, p)):
        for nx, ny, c in lines:
            if all(nx * x + ny * y + c <= 0 for x, y in pts):
                return True
    return False


@dataclass(frozen=True)
class TileCheck:
    """Re-classification outcome for one tile."""

    index: int
    expected: AffineClass
    got: AffineClass | None
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    tile_results: tuple[TileCheck, ...]
    area_deficit: Scalar
    max_overlap_area: Scalar
    gc_cut_violations: tuple[str, ...]
    outside_vertices: tuple[str, ...] = ()


def _replay(
    root: Polygon, tiles: Sequence[Polygon], cuts: Sequence[CutRecord], tol: Scalar
) -> list[str]:
    """Replay the cuts from the root; [] when they leave exactly the tiles.

    Pieces are keyed by vertex set, since a strictly convex quad has one
    cyclic order.  A cut must join opposite sides of an uncut piece, listed
    in convex order, at points x, y strictly between the side's ends and
    off its line by at most tol * |side|^2 in cross product (no division,
    so scale-free).  It replaces the piece by (a, x, y, d) and (x, b, c, y).
    """
    pieces = Counter([frozenset(root)])
    tol = Fraction(tol)  # exact, so lattice ints never meet a float
    for i, cut in enumerate(cuts):
        s, e, parent = cut.start_side, cut.end_side, cut.parent
        if s not in range(4) or e != (s + 2) % 4:
            return [f"cut {i} joins sides {s} and {e}, which are not opposite"]
        if not pieces[frozenset(parent)]:
            return [f"cut {i} parent is not an uncut piece"]
        if _convex_lines(parent, _doubled_area(parent)) is None:
            return [f"cut {i} parent is not strictly convex in the order given"]
        a, b, c, d = parent[s:] + parent[:s]
        x, y = cut.start, cut.end
        for label, pt, side, p, q in (("start", x, s, a, b), ("end", y, e, c, d)):
            v, w = vsub(q, p), vsub(pt, p)
            vv = dot(v, v)
            if abs(cross(v, w)) > tol * vv or not 0 < dot(w, v) < vv:
                return [f"cut {i} {label} is not interior to side {side}"]
        pieces[frozenset(parent)] -= 1
        pieces.update((frozenset((a, x, y, d)), frozenset((x, b, c, y))))
    if len(cuts) != len(tiles) - 1:
        return [
            f"glass-cut plan records {len(cuts)} cuts for "
            f"{len(tiles)} tiles; it needs {len(tiles) - 1}"
        ]
    extra = Counter(map(frozenset, tiles)) - pieces
    stray = [i for i, t in enumerate(tiles) if frozenset(t) in extra]
    return [f"tiles {stray} are not pieces the cuts leave"] if stray else []


def verify_plan(
    plan: DissectionPlan,
    tol: Scalar = 0,
    expected: AffineClass | None = None,
) -> VerificationReport:
    """Check a plan's geometry against its claims.

    Five checks: every tile re-classifies to the expected class (up to
    flip); tile areas sum to the root's area; every tile vertex lies in the
    (convex) root; no two tiles overlap in positive area; and, for
    glass-cut plans, the recorded cuts, replayed from the root, each split
    one uncut piece between interior points of opposite sides and leave
    exactly the tiles.  Tiles inside the root whose areas sum to the root's
    and that do not overlap cover it.  Tile pairs go through a bounding-box
    sweep, then the separating-axis test, which counts touching tiles as
    separated; only pairs it cannot separate are clipped.  Exact plans run
    these on ints (see the module docstring).  tol = 0 demands exact
    agreement; a positive tol bounds the class parameters directly, the
    area and containment checks relative to the root's area, and cut
    endpoints relative to their sides, so on an exact plan it only loosens.

    The expected class defaults to the root's own class, which is right
    for self-affine plans.  Pass it explicitly for plans whose tiles are
    copies of some other class.
    """
    if not plan.tiles:
        raise InvalidQuadrangleError("plan has no tiles")
    if expected is None:
        expected = plan.root.cls
    expected = canonicalize(expected)
    class_tol = float(tol) if tol else 0

    tile_results = []
    for i, tile in enumerate(plan.tiles):
        try:
            got = classify_quadrangle(
                tile.points, tol=class_tol if class_tol else 1e-15
            )
        except (InvalidQuadrangleError, AmbiguousGeometryError) as exc:
            tile_results.append(TileCheck(i, expected, None, False, str(exc)))
            continue
        ok = class_close(got.cls, expected, tol)
        note = "" if ok else f"classified as {got.cls}"
        tile_results.append(TileCheck(i, expected, got.cls, ok, note))

    # Doubled areas on the lattice are unit = 2 * scale**2 times real areas.
    # Cut records of a gc plan share it: a parent, then its start and end.
    cuts = plan.cuts if plan.gc else ()
    scale, flat = on_lattice(
        [
            *plan.root.points,
            *(p for t in plan.tiles for p in t.points),
            *(p for c in cuts for p in (*c.parent, c.start, c.end)),
        ]
    )
    unit = 2 * scale * scale
    end = 4 + 4 * len(plan.tiles)
    lroot, ltiles = flat[:4], [flat[k : k + 4] for k in range(4, end, 4)]
    rest = iter(flat[end:])  # keywords are read left to right
    lcuts = [
        replace(c, parent=tuple(islice(rest, len(c.parent))), start=next(rest), end=next(rest))
        for c in cuts
    ]
    root_signed = _doubled_area(lroot)
    tile_doubled = [_doubled_area(t) for t in ltiles]
    root_area = divide(abs(root_signed), unit)
    area_deficit = abs(root_area - divide(sum(abs(a) for a in tile_doubled), unit))
    area_ok = area_deficit <= tol * root_area

    # Each tile vertex v must be on the inner side of every root edge pq:
    # the signed area of (p, q, v), taken in the root's orientation, is at
    # least -tol * root_area.  Compared doubled, as the linear form
    # nx*x + ny*y + c, so without division; shared vertices are tested once.
    # The slack is scaled exactly; an int is below s iff it is below ceil(s).
    lines = _inner_lines(lroot, 1 if root_signed > 0 else -1)
    slack = -2 * tol * root_area
    limit = slack if scale == 1 else math.ceil(Fraction(slack) * scale * scale)
    first_seen: dict[Point, tuple[int, int]] = {}
    for i, tile in enumerate(ltiles):
        for k, v in enumerate(tile):
            first_seen.setdefault(v, (i, k))
    outside = [
        f"tile {i} vertex {k} lies outside root side {j} by triangle area "
        f"{divide(-doubled, unit)}"
        for v, (i, k) in first_seen.items()
        for j, (nx, ny, c) in enumerate(lines)
        if (doubled := nx * v[0] + ny * v[1] + c) < limit
    ]

    max_overlap: Scalar = 0
    edges = [_convex_lines(t, a) for t, a in zip(ltiles, tile_doubled)]
    for i, j in _overlap_candidates(ltiles, edges):
        if edges[i] and edges[j] and _separated(ltiles[i], edges[i], ltiles[j], edges[j]):
            continue
        overlap = divide(convex_intersection_area(ltiles[i], ltiles[j]), scale * scale)
        max_overlap = max(max_overlap, overlap)
    overlap_ok = max_overlap <= tol * root_area

    violations = _replay(lroot, ltiles, lcuts, tol) if plan.gc else []

    ok = (
        all(r.ok for r in tile_results)
        and area_ok
        and not outside
        and overlap_ok
        and not violations
    )
    return VerificationReport(
        ok=ok,
        tile_results=tuple(tile_results),
        area_deficit=area_deficit,
        max_overlap_area=max_overlap,
        gc_cut_violations=tuple(violations),
        outside_vertices=tuple(outside),
    )
