"""Tests for plan verification and the polygon-overlap oracle."""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gcdissect import (
    CutRecord,
    DissectionPlan,
    GenericQuad,
    InvalidQuadrangleError,
    LabeledQuad,
    Parallelogram,
    Trapezoid,
    convex_intersection_area,
    dissect_even_general,
    dissect_odd,
    dissect_por5,
    dissect_trapezoid_selfaffine,
    polygon_area,
    standard_placement,
    verify_plan,
    verifier,
)

UNIT = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))


def _shift(pts, dx, dy):
    return tuple((x + dx, y + dy) for x, y in pts)


# ---------------------------------------------------------------- areas


def test_polygon_area():
    assert polygon_area(UNIT) == 1
    tri = ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)))
    assert polygon_area(tri) == 2
    assert polygon_area(tuple(reversed(tri))) == 2


def test_intersection_fixed_cases():
    assert convex_intersection_area(UNIT, UNIT) == 1
    assert convex_intersection_area(UNIT, _shift(UNIT, 2, 0)) == 0
    assert convex_intersection_area(UNIT, _shift(UNIT, F(1, 2), 0)) == F(1, 2)
    assert convex_intersection_area(UNIT, _shift(UNIT, F(1, 2), F(1, 2))) == F(1, 4)
    # tangent along a shared edge
    assert convex_intersection_area(UNIT, _shift(UNIT, 1, 0)) == 0
    # orientation of either argument must not matter
    assert convex_intersection_area(tuple(reversed(UNIT)), UNIT) == 1


small = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@given(small, small)
def test_intersection_symmetric(dx, dy):
    moved = _shift(UNIT, dx, dy)
    lhs = convex_intersection_area(UNIT, moved)
    rhs = convex_intersection_area(moved, UNIT)
    assert lhs == rhs
    expected = max(0, 1 - abs(dx)) * max(0, 1 - abs(dy))
    assert lhs == expected


# ------------------------------------------------------------ verdicts


def test_verify_accepts_fan():
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 4)
    report = verify_plan(plan, 0)
    assert report.ok
    assert report.area_deficit == 0
    assert report.max_overlap_area == 0
    assert not report.gc_cut_violations
    assert all(t.ok for t in report.tile_results)


def test_verify_accepts_odd_exactly():
    plan = dissect_odd(GenericQuad(F(1, 5), F(1, 2)), 5)
    assert verify_plan(plan, 0).ok


def test_verify_approximate_plan_needs_tol():
    # the frame ratio is bisected, so at tolerance zero the tiles misclassify
    # without raising
    plan = dissect_even_general(GenericQuad(F(1, 5), F(1, 2)), 6)
    strict = verify_plan(plan, 0)
    assert not strict.ok
    assert verify_plan(plan, 1e-9).ok


def test_verify_empty_plan_is_structural():
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 2)
    hollow = dataclasses.replace(plan, tiles=())
    with pytest.raises(InvalidQuadrangleError):
        verify_plan(hollow, 0)


def test_verify_detects_missing_tile():
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 4)
    short = dataclasses.replace(plan, tiles=plan.tiles[:-1])
    report = verify_plan(short, 0)
    assert not report.ok
    assert report.area_deficit > 0


def test_verify_detects_overlap():
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 4)
    doubled = dataclasses.replace(plan, tiles=plan.tiles + (plan.tiles[0],))
    report = verify_plan(doubled, 0)
    assert not report.ok
    assert report.max_overlap_area > 0


def test_verify_detects_wrong_tile_shape():
    # tiles are judged by their vertices, so swap in a quad of another class
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 2)
    bent = standard_placement(GenericQuad(F(1, 5), F(1, 2)))
    report = verify_plan(
        dataclasses.replace(plan, tiles=(bent,) + plan.tiles[1:]), 0
    )
    assert not report.ok
    assert not report.tile_results[0].ok
    assert report.tile_results[1].ok


def test_verify_detects_tile_outside_root():
    # moved wholly outside: areas still sum up and no pair overlaps
    plan = dissect_odd(GenericQuad(F(1, 5), F(1, 2)), 5)
    tile = plan.tiles[0]
    moved = dataclasses.replace(tile, **{k: (p[0] + 3, p[1]) for k, p in zip("abcd", tile.points)})
    report = verify_plan(dataclasses.replace(plan, tiles=(moved,) + plan.tiles[1:]), 0)
    assert report.area_deficit == 0 and report.max_overlap_area == 0
    assert not report.ok
    assert report.outside_vertices and report.outside_vertices[0].startswith("tile 0 ")


def test_verify_rejects_gc_claim_without_cuts():
    # five tiles, no recorded cuts: not a glass-cut plan whatever its flag says
    plan = dissect_por5(GenericQuad(F(1, 5), F(1, 2)))
    assert verify_plan(plan, 0).ok
    report = verify_plan(dataclasses.replace(plan, gc=True), 0)
    assert not report.ok
    assert any("0 cuts for 5 tiles" in v for v in report.gc_cut_violations)


def _with_cut(plan, cut):
    return dataclasses.replace(plan, cuts=plan.cuts + (cut,))


def test_verify_rejects_adjacent_side_cut():
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 2)
    quad = plan.root.points
    bad = CutRecord(
        parent=quad,
        start=((F(1, 3)), F(0)),
        end=(F(2, 3), F(1, 6)),
        start_side=0,
        end_side=1,
    )
    report = verify_plan(_with_cut(plan, bad), 0)
    assert not report.ok
    assert any("opposite" in v for v in report.gc_cut_violations)


def test_verify_rejects_corner_endpoint():
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 2)
    quad = plan.root.points
    bad = CutRecord(
        parent=quad, start=quad[0], end=(F(1, 3), F(1, 3)), start_side=0, end_side=2
    )
    report = verify_plan(_with_cut(plan, bad), 0)
    assert not report.ok
    assert report.gc_cut_violations


def test_verify_rejects_off_side_endpoint():
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 2)
    quad = plan.root.points
    bad = CutRecord(
        parent=quad,
        start=(F(1, 3), F(1, 100)),
        end=(F(1, 3), F(1, 3)),
        start_side=0,
        end_side=2,
    )
    report = verify_plan(_with_cut(plan, bad), 0)
    assert not report.ok
    assert report.gc_cut_violations


def test_verify_ignores_cuts_on_non_gc_plans():
    plan = dissect_even_general(GenericQuad(F(1, 5), F(1, 2)), 6)
    assert not plan.gc
    report = verify_plan(plan, 1e-9)
    assert not report.gc_cut_violations


def test_verify_expected_override():
    # heterogeneous plan: trapezoid root, generic tiles
    from gcdissect import dissect_trapezoid

    q = GenericQuad(F(1, 5), F(1, 2))
    plan = dissect_trapezoid(F(1, 2), q, 4)
    assert verify_plan(plan, 0, expected=q).ok
    assert not verify_plan(plan, 0).ok


# ------------------------------------------------------- pair filtering

Q_GENERIC = GenericQuad(F(1, 5), F(1, 2))
INTACT = (
    dissect_odd(Q_GENERIC, 5),
    dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 4),
    dissect_trapezoid_selfaffine(Parallelogram(), 3),
)


def _all_pairs_overlap(tiles):
    """The reference: clip every pair, keep the first largest area."""
    best = 0
    for i in range(len(tiles)):
        for j in range(i + 1, len(tiles)):
            overlap = convex_intersection_area(tiles[i], tiles[j])
            if overlap > best:
                best = overlap
    return best


unit = st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=8)
offset = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def convex_quads(draw):
    """A strictly convex quad: one interior point on each side of a box,
    sheared, in either orientation."""
    x0, y0 = draw(offset), draw(offset)
    w, h = draw(unit) * 3, draw(unit) * 3
    t = [draw(unit) for _ in range(4)]
    pts = (
        (x0 + t[0] * w, y0),
        (x0 + w, y0 + t[1] * h),
        (x0 + w - t[2] * w, y0 + h),
        (x0, y0 + h - t[3] * h),
    )
    shear = draw(st.fractions(min_value=-1, max_value=1, max_denominator=4))
    pts = tuple((x + shear * y, y) for x, y in pts)
    return pts[::-1] if draw(st.booleans()) else pts


def _point_reflect(pts, cx, cy):
    return tuple((cx - x, cy - y) for x, y in pts)


@st.composite
def derived_tiles(draw, base):
    """A tile placed against base: across a full or partial edge, at one
    vertex, nested, translated, or a non-convex or degenerate neighbour."""
    a, b, c, d = base
    k = draw(st.integers(0, 3))
    p, q = base[k], base[(k + 1) % 4]
    kind = draw(
        st.sampled_from(
            ("edge", "partial", "vertex", "nested", "shifted", "dart", "flat", "repeat")
        )
    )
    if kind in ("edge", "partial"):
        tile = _point_reflect(base, p[0] + q[0], p[1] + q[1])
        s = draw(unit) if kind == "partial" else 0
        return tuple((x + s * (q[0] - p[0]), y + s * (q[1] - p[1])) for x, y in tile)
    if kind == "vertex":
        return _point_reflect(base, 2 * p[0], 2 * p[1])
    if kind == "nested":
        r = draw(unit)
        return tuple((p[0] + r * (x - p[0]), p[1] + r * (y - p[1])) for x, y in base)
    if kind == "shifted":
        dx, dy = draw(offset), draw(offset)
        return tuple((x + dx, y + dy) for x, y in base)
    if kind == "dart":  # reflex at the third vertex
        m = ((a[0] + b[0] + d[0]) / 3, (a[1] + b[1] + d[1]) / 3)
        return (a, b, m, d)
    if kind == "flat":  # b, c, d collinear
        return (a, b, ((b[0] + d[0]) / 2, (b[1] + d[1]) / 2), d)
    return (a, b, b, d)


@st.composite
def tile_sets(draw):
    plan = draw(st.sampled_from(INTACT))
    tiles = [t.points for t in plan.tiles]
    if draw(st.booleans()):
        tiles = draw(st.lists(st.sampled_from(tiles), min_size=1, max_size=4, unique=True))
    tiles += draw(st.lists(convex_quads(), max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        tiles.append(draw(derived_tiles(draw(st.sampled_from(tiles)))))
    floats = draw(st.booleans())
    if floats:
        tiles = [tuple((float(x), float(y)) for x, y in t) for t in tiles]
    return plan, tiles, floats


@settings(max_examples=60, deadline=None)
@given(tile_sets(), st.sampled_from((0, 1e-9)))
def test_pair_filter_matches_all_pairs_clipping(drawn, tol):
    plan, tiles, floats = drawn
    if floats:
        # Float clipping of tiles that touch along a slanted edge can leave
        # a rounding sliver (1.4e-17 seen) where the separating-axis signs
        # say the tiles only touch, so floats verify at a positive tol.
        tol = 1e-9
    quads = tuple(LabeledQuad(plan.root.cls, *pts) for pts in tiles)
    report = verify_plan(dataclasses.replace(plan, tiles=quads), tol)
    reference = _all_pairs_overlap(tiles)
    if floats:
        assert abs(report.max_overlap_area - reference) <= 1e-12
    else:
        assert report.max_overlap_area == reference
    root_area = polygon_area(plan.root.points)
    others_ok = (
        all(r.ok for r in report.tile_results)
        and report.area_deficit <= tol * root_area
        and not report.outside_vertices
        and not report.gc_cut_violations
    )
    assert report.ok == (others_ok and reference <= tol * root_area)


def test_intact_plan_clips_no_pair(monkeypatch):
    calls = []
    clip = verifier.convex_intersection_area

    def counted(p, q):
        calls.append((p, q))
        return clip(p, q)

    monkeypatch.setattr(verifier, "convex_intersection_area", counted)
    assert verify_plan(dissect_odd(Q_GENERIC, 51), 0).ok
    assert not calls
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 4)
    doubled = dataclasses.replace(plan, tiles=plan.tiles + (plan.tiles[0],))
    report = verify_plan(doubled, 0)
    assert not report.ok and report.max_overlap_area > 0
    assert calls
