"""Tests for plan verification and the polygon-overlap oracle."""

from __future__ import annotations

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from gcdissect import (
    CutRecord,
    DissectionPlan,
    GenericQuad,
    InvalidQuadrangleError,
    Trapezoid,
    convex_intersection_area,
    dissect_even_general,
    dissect_odd,
    dissect_por5,
    dissect_trapezoid_selfaffine,
    polygon_area,
    standard_placement,
    verify_plan,
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
