"""Independent checks that a dissection plan is what it claims to be.

The verifier reads only coordinates.  It re-classifies every tile, sums
areas, checks every tile vertex lies in the root, tests the tiles pairwise
for overlap, and for glass-cut plans checks that there is one recorded cut
per tile after the first and that each runs between relative interior
points of opposite sides of its quad.  Exact inputs are checked exactly; a
positive tolerance scales with the root's area for the area and containment
checks and is passed through to classification.

Overlap is tested in three stages: a sweep over the tiles' bounding boxes,
sorted by min-x, keeps the pairs whose boxes overlap with positive width and
height; a separating-axis test (Ericson, Real-Time Collision Detection, 5)
drops every pair that an edge line of either tile separates, by signs of
cross products and without division, counting tiles that only touch as
separated (their overlap area is exactly 0); the rest are clipped with the
Sutherland-Hodgman algorithm over the input scalars, so rational plans give
rational intersection areas and a tolerance of zero is meaningful.  A tile
that is not a strictly convex quad is clipped against every other tile.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    vsub,
)
from .errors import AmbiguousGeometryError, InvalidQuadrangleError
from .realizer import DissectionPlan
from .scalars import Scalar

Polygon = Sequence[Point]


def signed_area(pts: Polygon) -> Scalar:
    """Area of a simple polygon, positive when its vertices run
    counterclockwise."""
    total = 0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2


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
        if cur_side >= 0:
            if prev_side < 0:
                t = prev_side / (prev_side - cur_side)
                out.append(
                    (
                        prev[0] + t * (cur[0] - prev[0]),
                        prev[1] + t * (cur[1] - prev[1]),
                    )
                )
            out.append(cur)
        elif prev_side >= 0:
            t = prev_side / (prev_side - cur_side)
            out.append(
                (
                    prev[0] + t * (cur[0] - prev[0]),
                    prev[1] + t * (cur[1] - prev[1]),
                )
            )
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


def _interior_param(pt: Point, a: Point, b: Point, tol: Scalar) -> bool:
    """Is pt strictly inside segment ab (up to tol, relative)."""
    v = vsub(b, a)
    w = vsub(pt, a)
    vv = dot(v, v)
    off = cross(v, w)
    if tol:
        if abs(off) > tol * vv:
            return False
        t = dot(w, v) / vv
        return tol < t < 1 - tol
    if off != 0:
        return False
    t = dot(w, v) / vv
    return 0 < t < 1


def _check_cut(cut: CutRecord, tol: Scalar) -> str | None:
    if cut.end_side != (cut.start_side + 2) % 4:
        return (
            f"cut joins sides {cut.start_side} and {cut.end_side}, "
            "which are not opposite"
        )
    pts = cut.parent
    for label, point, side in (
        ("start", cut.start, cut.start_side),
        ("end", cut.end, cut.end_side),
    ):
        a, b = pts[side], pts[(side + 1) % 4]
        if not _interior_param(point, a, b, tol):
            return f"cut {label} {point} not interior to side {side}"
    return None


def verify_plan(
    plan: DissectionPlan,
    tol: Scalar = 0,
    expected: AffineClass | None = None,
) -> VerificationReport:
    """Check a plan's geometry against its claims.

    Six checks: every tile re-classifies to the expected class (up to
    flip); tile areas sum to the root's area; every tile vertex lies in the
    (convex) root; no two tiles overlap in positive area; and, for
    glass-cut plans, the plan records exactly one cut fewer than it has
    tiles, and every recorded cut joins relative interior points of
    opposite sides.  Tiles inside the root whose areas sum to the root's
    and that do not overlap cover it.  Tile pairs go through a bounding-box
    sweep, then the separating-axis test, which counts touching tiles as
    separated; only pairs it cannot separate are clipped.  tol = 0 demands
    exact agreement; a
    positive tol bounds the class parameters directly and the area and
    containment checks relative to the root's area.

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

    root_area = polygon_area(plan.root.points)
    tile_areas = [signed_area(t.points) for t in plan.tiles]
    tile_area = sum(abs(a) for a in tile_areas)
    area_deficit = abs(root_area - tile_area)
    area_ok = area_deficit <= tol * root_area

    # Each tile vertex v must be on the inner side of every root edge pq:
    # the signed area of (p, q, v), taken in the root's orientation, is at
    # least -tol * root_area.  Compared doubled, as the linear form
    # nx*x + ny*y + c, so without division; shared vertices are tested once.
    root = plan.root.points
    lines = _inner_lines(root, 1 if signed_area(root) > 0 else -1)
    slack = -2 * tol * root_area
    first_seen: dict[Point, tuple[int, int]] = {}
    for i, tile in enumerate(plan.tiles):
        for k, v in enumerate(tile.points):
            first_seen.setdefault(v, (i, k))
    outside = [
        f"tile {i} vertex {k} lies outside root side {j} by triangle area {-doubled / 2}"
        for v, (i, k) in first_seen.items()
        for j, (nx, ny, c) in enumerate(lines)
        if (doubled := nx * v[0] + ny * v[1] + c) < slack
    ]

    max_overlap: Scalar = 0
    tiles = [t.points for t in plan.tiles]
    edges = [_convex_lines(t, a) for t, a in zip(tiles, tile_areas)]
    for i, j in _overlap_candidates(tiles, edges):
        if edges[i] and edges[j] and _separated(tiles[i], edges[i], tiles[j], edges[j]):
            continue
        overlap = convex_intersection_area(tiles[i], tiles[j])
        if overlap > max_overlap:
            max_overlap = overlap
    overlap_ok = max_overlap <= tol * root_area

    violations: list[str] = []
    if plan.gc:
        if len(plan.cuts) != len(plan.tiles) - 1:
            violations.append(
                f"glass-cut plan records {len(plan.cuts)} cuts for "
                f"{len(plan.tiles)} tiles; it needs {len(plan.tiles) - 1}"
            )
        for cut in plan.cuts:
            problem = _check_cut(cut, tol)
            if problem is not None:
                violations.append(problem)

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
