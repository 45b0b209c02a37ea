"""Tests for plan verification and the polygon-overlap oracle."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from gcdissect import (
    AmbiguousGeometryError,
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
    dissect_trapezoid,
    dissect_trapezoid_selfaffine,
    polygon_area,
    standard_placement,
    verify_plan,
    verifier,
)
from gcdissect.affine_types import canonicalize, class_close, classify_quadrangle, lerp
from gcdissect.cli import report_to_doc
from gcdissect.verifier import signed_area

UNIT = ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1)))


def _shift(pts, dx, dy):
    return tuple((x + dx, y + dy) for x, y in pts)


# ---------------------------------------------------------------- areas


def test_polygon_area():
    assert polygon_area(UNIT) == 1
    tri = ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)))
    assert polygon_area(tri) == 2
    assert polygon_area(tuple(reversed(tri))) == 2


def test_int_polygon_areas_are_exact():
    tri = ((0, 0), (3, 0), (0, 1))
    for got in (signed_area(tri), polygon_area(tri[::-1])):
        assert type(got) is F and got == F(3, 2)
    assert type(convex_intersection_area(tri, ((1, 0), (4, 0), (1, 1)))) is F


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
    # float coordinates round, so at tolerance zero the tiles misclassify
    # without raising
    plan = dissect_odd(GenericQuad(0.2, 0.5), 5)
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


# ------------------------------------------------ the reference verifier


def _reference_verify(plan, tol=0, expected=None):
    """verify_plan computed on the plan's own coordinates, without the
    integer lattice: the reference for the lattice checks."""
    if expected is None:
        expected = plan.root.cls
    expected = canonicalize(expected)
    class_tol = float(tol) if tol else 0
    tile_results = []
    for i, tile in enumerate(plan.tiles):
        try:
            got = classify_quadrangle(tile.points, tol=class_tol if class_tol else 1e-15)
        except (InvalidQuadrangleError, AmbiguousGeometryError) as exc:
            tile_results.append(verifier.TileCheck(i, expected, None, False, str(exc)))
            continue
        ok = class_close(got.cls, expected, tol)
        note = "" if ok else f"classified as {got.cls}"
        tile_results.append(verifier.TileCheck(i, expected, got.cls, ok, note))

    root_area = polygon_area(plan.root.points)
    tile_areas = [signed_area(t.points) for t in plan.tiles]
    area_deficit = abs(root_area - sum(abs(a) for a in tile_areas))
    root = plan.root.points
    lines = verifier._inner_lines(root, 1 if signed_area(root) > 0 else -1)
    slack = -2 * tol * root_area
    first_seen = {}
    for i, tile in enumerate(plan.tiles):
        for k, v in enumerate(tile.points):
            first_seen.setdefault(v, (i, k))
    outside = [
        f"tile {i} vertex {k} lies outside root side {j} by triangle area {-doubled / 2}"
        for v, (i, k) in first_seen.items()
        for j, (nx, ny, c) in enumerate(lines)
        if (doubled := nx * v[0] + ny * v[1] + c) < slack
    ]
    max_overlap = 0
    tiles = [t.points for t in plan.tiles]
    edges = [verifier._convex_lines(t, a) for t, a in zip(tiles, tile_areas)]
    for i, j in verifier._overlap_candidates(tiles, edges):
        if edges[i] and edges[j] and verifier._separated(tiles[i], edges[i], tiles[j], edges[j]):
            continue
        max_overlap = max(max_overlap, convex_intersection_area(tiles[i], tiles[j]))
    violations = verifier._replay(root, tiles, plan.cuts, tol) if plan.gc else []
    ok = (
        all(r.ok for r in tile_results)
        and area_deficit <= tol * root_area
        and not outside
        and max_overlap <= tol * root_area
        and not violations
    )
    return verifier.VerificationReport(
        ok, tuple(tile_results), area_deficit, max_overlap, tuple(violations), tuple(outside)
    )


def _map_plan(plan, f):
    """The plan with f applied to every point of its root, tiles and cuts."""

    def quad(q):
        return dataclasses.replace(q, a=f(q.a), b=f(q.b), c=f(q.c), d=f(q.d))

    cuts = tuple(
        dataclasses.replace(
            c, parent=tuple(map(f, c.parent)), start=f(c.start), end=f(c.end)
        )
        for c in plan.cuts
    )
    return dataclasses.replace(
        plan, root=quad(plan.root), tiles=tuple(map(quad, plan.tiles)), cuts=cuts
    )


def _tamper(plan, kind):
    """One planted defect, the four kinds the plans benchmark plants."""
    if kind == "gc_flag":
        return dataclasses.replace(plan, gc=True)
    tiles = list(plan.tiles)
    k, other = sorted(
        range(len(tiles)), key=lambda j: polygon_area(tiles[j].points), reverse=True
    )[:2]
    tile = tiles[k]
    if kind == "overlap":  # centroid onto the other tile's centroid
        (cx, cy), (ox, oy) = (
            (sum(p[0] for p in t.points) / 4, sum(p[1] for p in t.points) / 4)
            for t in (tile, tiles[other])
        )
        shift = (ox - cx, oy - cy)
    elif kind == "outside":
        xs = [p[0] for p in plan.root.points]
        shift = (2 * (max(xs) - min(xs)) + 1, 0)
    else:  # wrong_class: cut a corner triangle off along side ab
        a, b = tile.a, tile.b
        tiles[k] = dataclasses.replace(
            tile, a=(a[0] + (b[0] - a[0]) / 4, a[1] + (b[1] - a[1]) / 4)
        )
        return dataclasses.replace(plan, tiles=tuple(tiles))
    tiles[k] = dataclasses.replace(
        tile, **{v: (p[0] + shift[0], p[1] + shift[1]) for v, p in zip("abcd", tile.points)}
    )
    return dataclasses.replace(plan, tiles=tuple(tiles))


def _primes(count, n=2**31 - 1):
    """The count largest primes up to n < 3.2e9 (Miller-Rabin, bases 2, 3,
    5 and 7, deterministic in that range)."""

    def is_prime(m):
        d, r = m - 1, 0
        while d % 2 == 0:
            d, r = d // 2, r + 1
        for a in (2, 3, 5, 7):
            x = pow(a, d, m)
            if x in (1, m - 1):
                continue
            for _ in range(r - 1):
                x = x * x % m
                if x == m - 1:
                    break
            else:
                return False
        return True

    out = []
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n -= 2 if n % 2 else 1
    return out


def _coprime_plan():
    """dissect_odd at 51 tiles with the first 50 distinct vertices snapped
    to 100 distinct 31-bit prime denominators: the largest plan lattice."""
    plan = dissect_odd(Q_GENERIC, 51)
    primes = iter(_primes(100))
    snapped = {}
    for q in (plan.root, *plan.tiles):
        for v in q.points:
            if v not in snapped and len(snapped) < 50:
                p, r = next(primes), next(primes)
                snapped[v] = (F(round(v[0] * p), p), F(round(v[1] * r), r))
    return _map_plan(plan, lambda v: snapped.get(v, v))


def _floats(plan):
    return _map_plan(plan, lambda p: (float(p[0]), float(p[1])))


Q_KITE = GenericQuad(F(1, 2), F(2, 3))
# name: (smallest tile count, construction at n tiles; even ones round down)
CONSTRUCTIONS = {
    "odd": (5, lambda n: dissect_odd(Q_GENERIC, n)),
    "odd_kite": (7, lambda n: dissect_odd(Q_KITE, n)),
    "fan_T": (2, lambda n: dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), n)),
    "fan_P": (2, lambda n: dissect_trapezoid_selfaffine(Parallelogram(), n)),
    "por5": (5, lambda n: dissect_por5(Q_GENERIC)),
    "even_general": (6, lambda n: dissect_even_general(Q_GENERIC, n - n % 2)),
    "trapezoid": (
        2,
        lambda n: dissect_trapezoid(F(1, 10) if n == 2 else F(11, 20), Q_GENERIC, n - n % 2),
    ),
}


def _make(name, n):
    return CONSTRUCTIONS[name][1](n)


def _reference_cases():
    """(name, plan, tol, expected) over the constructions, the tampered
    plans, float coordinates and the coprime-denominator plan."""
    for name, (smallest, make) in CONSTRUCTIONS.items():
        expected = Q_GENERIC if name == "trapezoid" else None
        for n in sorted({smallest, 51}):
            yield f"{name}-{n}", make(n), 0, expected
    for kind in ("overlap", "wrong_class", "outside"):
        for name in ("odd", "fan_T", "trapezoid"):
            expected = Q_GENERIC if name == "trapezoid" else None
            yield f"{kind}-{name}", _tamper(_make(name, 9), kind), 0, expected
    for name in ("por5", "even_general"):
        yield f"gc_flag-{name}", _tamper(_make(name, 6), "gc_flag"), 1e-9, None
    for tol in (1e-9, 0):
        for name in ("odd", "fan_T"):
            yield f"floats-{name}-{tol}", _floats(_make(name, 9)), tol, None
        yield f"floats-overlap-{tol}", _floats(_tamper(_make("odd", 7), "overlap")), tol, None
    coprime = _coprime_plan()
    for tol in (0, 1e-9, F(1, 10**6)):
        yield f"coprime-{tol}", coprime, tol, None


@pytest.mark.parametrize(
    "plan, tol, expected",
    [pytest.param(*case[1:], id=case[0]) for case in _reference_cases()],
)
def test_verify_matches_reference(plan, tol, expected):
    got = report_to_doc(verify_plan(plan, tol, expected=expected))
    assert got == report_to_doc(_reference_verify(plan, tol, expected))


def test_containment_slack_is_compared_exactly():
    # A vertex pushed out of the unit square by just more, or just less,
    # than the slack of tol 1e-9: the doubled slack is the exact value of
    # the float 2e-9, and the pushes lie less than one lattice unit apart.
    square = LabeledQuad(Parallelogram(), *UNIT)
    base = dataclasses.replace(dissect_por5(Q_GENERIC), root=square, gc=False)
    m = math.floor(1 / F(2 * 1e-9))
    for push, outside in ((F(1, m), True), (F(1, m + 1), False)):
        tile = dataclasses.replace(square, b=(1 + push, F(0)))
        plan = dataclasses.replace(base, tiles=(tile,))
        report = verify_plan(plan, 1e-9)
        assert bool(report.outside_vertices) == outside
        assert report_to_doc(report) == report_to_doc(_reference_verify(plan, 1e-9))


EXACT_PLANS = (
    dissect_odd(Q_GENERIC, 7),
    dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 4),
    _tamper(dissect_odd(Q_GENERIC, 5), "overlap"),
    _tamper(dissect_odd(Q_GENERIC, 5), "wrong_class"),
    _tamper(dissect_trapezoid_selfaffine(Parallelogram(), 3), "outside"),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(EXACT_PLANS),
    st.fractions(min_value=F(1, 30), max_value=30, max_denominator=30),
    offset,
    offset,
)
def test_verify_scales_with_the_plan(plan, s, dx, dy):
    moved = _map_plan(plan, lambda p: (s * p[0] + dx, s * p[1] + dy))
    before, after = verify_plan(plan, 0), verify_plan(moved, 0)
    assert after.ok == before.ok
    assert [r.got for r in after.tile_results] == [r.got for r in before.tile_results]
    assert after.area_deficit == s * s * before.area_deficit
    assert after.max_overlap_area == s * s * before.max_overlap_area


# ------------------------------------------------------------ cut replay


@pytest.mark.parametrize("name", ["odd", "odd_kite", "fan_T"])
def test_larger_tol_never_rejects_an_exact_plan(name):
    plan = _make(name, 51)
    for tol in (0, 1e-9, 1e-3, F(1, 10)):
        assert verify_plan(plan, tol).ok, tol


def _first(cuts, **change):
    """The cut list with cut 0 changed."""
    return [dataclasses.replace(cuts[0], **change), *cuts[1:]]


def _side(cut, k):
    """The two ends of side k of the cut's parent."""
    return cut.parent[k], cut.parent[(k + 1) % 4]


# Each edit of the cut list of dissect_odd(Q_GENERIC, 7), with the one
# violation it must give.  Cut 0 cuts the root from side 0 to side 2.
REPLAY_DEFECTS = {
    "copies-of-first": (
        lambda cuts: [cuts[0]] * len(cuts),
        "cut 1 parent is not an uncut piece",
    ),
    "reversed": (lambda cuts: cuts[::-1], "cut 0 parent is not an uncut piece"),
    "sides-5-3": (
        lambda cuts: _first(cuts, start_side=5, end_side=3),
        "cut 0 joins sides 5 and 3, which are not opposite",
    ),
    # still interior, so cut 0 leaves other pieces than cut 1 names
    "sliding-start": (
        lambda cuts: _first(cuts, start=lerp(cuts[0].start, _side(cuts[0], 0)[1], F(1, 2))),
        "cut 1 parent is not an uncut piece",
    ),
    "corner-start": (
        lambda cuts: _first(cuts, start=_side(cuts[0], 0)[0]),
        "cut 0 start is not interior to side 0",
    ),
    "end-off-side": (
        lambda cuts: _first(cuts, end=(cuts[0].end[0] + F(1, 1000), cuts[0].end[1])),
        "cut 0 end is not interior to side 2",
    ),
}


@pytest.mark.parametrize("kind", REPLAY_DEFECTS)
def test_replay_rejects_cuts_that_do_not_build_the_tiles(kind):
    edit, violation = REPLAY_DEFECTS[kind]
    plan = dissect_odd(Q_GENERIC, 7)
    assert verify_plan(plan, 0).ok
    report = verify_plan(dataclasses.replace(plan, cuts=tuple(edit(list(plan.cuts)))), 0)
    assert not report.ok
    assert report.gc_cut_violations == (violation,)


@pytest.mark.parametrize(
    "size, violation",
    [(3, "cut 0 parent is not an uncut piece"),
     (5, "cut 0 parent is not strictly convex in the order given")],
    ids=["three-points", "five-points"],
)
def test_replay_names_a_cut_whose_parent_is_not_a_quad(size, violation):
    # A library-built CutRecord need not hold 4 parent points, as a plan
    # document must; 5 points here repeat the first, so they name a piece.
    plan = dissect_odd(Q_GENERIC, 7)
    first = plan.cuts[0]
    cuts = (dataclasses.replace(first, parent=(first.parent * 2)[:size]), *plan.cuts[1:])
    report = verify_plan(dataclasses.replace(plan, cuts=cuts), 0)
    assert not report.ok
    assert report.gc_cut_violations == (violation,)
