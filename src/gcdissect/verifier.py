"""Independent checks that a dissection plan is what it claims to be.

The verifier reads only coordinates.  It re-classifies every tile, sums
areas, checks every tile vertex lies in the root, clips every pair of tiles
against each other for overlap, and for glass-cut plans checks that there
is one recorded cut per tile after the first and that each runs between
relative interior points of opposite sides of its quad.  Exact inputs are
checked exactly; a positive tolerance scales with the root's area for the
area and containment checks and is passed through to classification.

Clipping is done with the Sutherland-Hodgman algorithm over the input
scalars, so rational plans produce rational intersection areas and a
tolerance of zero is meaningful.
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
    and that do not overlap cover it.  tol = 0 demands exact agreement; a
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
    tile_area = sum(polygon_area(t.points) for t in plan.tiles)
    area_deficit = abs(root_area - tile_area)
    area_ok = area_deficit <= tol * root_area

    # Each tile vertex v must be on the inner side of every root edge pq:
    # the signed area of (p, q, v), taken in the root's orientation, is at
    # least -tol * root_area.  Compared doubled, as the linear form
    # nx*x + ny*y + c, so without division; shared vertices are tested once.
    root = plan.root.points
    sign = 1 if signed_area(root) > 0 else -1
    lines = []
    for p, q in zip(root, root[1:] + root[:1]):
        ex, ey = sign * (q[0] - p[0]), sign * (q[1] - p[1])
        lines.append((-ey, ex, ey * p[0] - ex * p[1]))
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
    tiles = plan.tiles
    for i in range(len(tiles)):
        for j in range(i + 1, len(tiles)):
            overlap = convex_intersection_area(tiles[i].points, tiles[j].points)
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
