"""Affine classes: flip, quotient, kites, canonical form, classification."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_verifier import convex_quads

from gcdissect import (
    AmbiguousGeometryError,
    GenericQuad,
    InvalidQuadrangleError,
    Parallelogram,
    Trapezoid,
    affine_quotient,
    canonicalize,
    class_close,
    classify_quadrangle,
    flip,
    flip_factor,
    is_affine_kite,
    standard_placement,
)
from gcdissect import affine_types
from gcdissect.affine_types import FLOAT_GEOMETRY_TOL, Classification, cross, vsub

F = Fraction


@st.composite
def rational_q(draw, max_den=200):
    """Random Q(alpha, beta) with 0 < alpha < beta < 1, exact."""
    den = draw(st.integers(min_value=3, max_value=max_den))
    b = draw(st.integers(min_value=2, max_value=den - 1))
    a = draw(st.integers(min_value=1, max_value=b - 1))
    return GenericQuad(F(a, den), F(b, den))


def test_class_invariants_enforced():
    with pytest.raises(ValueError):
        GenericQuad(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        GenericQuad(F(2, 3), F(1, 2))
    with pytest.raises(ValueError):
        GenericQuad(F(0), F(1, 2))
    with pytest.raises(ValueError):
        Trapezoid(F(1))
    with pytest.raises(ValueError):
        Trapezoid(F(0))


def test_flip_fixed_values():
    assert flip(GenericQuad(F(1, 5), F(1, 2))) == GenericQuad(F(1, 4), F(5, 8))
    assert flip(GenericQuad(F(1, 4), F(5, 8))) == GenericQuad(F(1, 5), F(1, 2))
    kite = GenericQuad(F(1, 2), F(2, 3))
    assert flip(kite) == kite


def test_flip_rejects_trapezoids_and_parallelograms():
    with pytest.raises(ValueError):
        flip(Trapezoid(F(1, 2)))
    with pytest.raises(ValueError):
        flip(Parallelogram())


@given(rational_q())
def test_flip_involution(q):
    assert flip(flip(q)) == q


@given(rational_q())
def test_quotient_flip_invariant(q):
    assert affine_quotient(flip(q)) == affine_quotient(q)


@given(rational_q())
def test_kite_iff_flip_fixed(q):
    assert is_affine_kite(q) == (flip(q) == q)


def test_quotient_values():
    assert affine_quotient(GenericQuad(F(1, 5), F(1, 2))) == F(2, 5)
    assert affine_quotient(Trapezoid(F(3, 10))) == 1
    assert affine_quotient(Parallelogram()) == 1


def test_kite_values():
    assert is_affine_kite(GenericQuad(F(1, 2), F(2, 3)))
    assert not is_affine_kite(GenericQuad(F(1, 5), F(1, 2)))
    assert is_affine_kite(Parallelogram())
    assert not is_affine_kite(Trapezoid(F(1, 2)))


def test_flip_factor():
    # (1 - beta) / ((1 - alpha) * beta)
    assert flip_factor(GenericQuad(F(1, 5), F(1, 2))) == F(5, 4)
    assert flip_factor(GenericQuad(F(1, 2), F(2, 3))) == 1


@pytest.mark.parametrize("cls", [Trapezoid(F(1, 3)), Parallelogram()], ids=["T", "P"])
def test_mirrored_keeps_the_class_and_reverses_orientation(cls):
    # A trapezoid or parallelogram keeps its class under the mirror
    # relabeling, and the relabeled vertices are again its reference labeling.
    lq = standard_placement(cls)
    m = lq.mirrored()
    assert m.cls == cls and m.is_ccw != lq.is_ccw
    assert classify_quadrangle(m.points) == Classification(cls, (0, 1, 2, 3))
    assert m.mirrored() == lq


def test_canonicalize():
    assert canonicalize(GenericQuad(F(1, 4), F(5, 8))) == GenericQuad(F(1, 5), F(1, 2))
    assert canonicalize(GenericQuad(F(1, 5), F(1, 2))) == GenericQuad(F(1, 5), F(1, 2))
    kite = GenericQuad(F(1, 2), F(2, 3))
    assert canonicalize(kite) == kite
    assert canonicalize(Trapezoid(F(3, 10))) == Trapezoid(F(3, 10))
    assert canonicalize(Parallelogram()) == Parallelogram()


@given(rational_q())
def test_canonicalize_constant_on_orbit(q):
    assert canonicalize(q) == canonicalize(flip(q))
    assert canonicalize(q) in (q, flip(q))


def test_class_close_flip_aware():
    q = GenericQuad(F(1, 5), F(1, 2))
    assert class_close(q, flip(q), 0)
    assert not class_close(q, GenericQuad(F(1, 5), F(51, 100)), 0)
    assert class_close(
        GenericQuad(0.2, 0.5), GenericQuad(0.2 + 1e-12, 0.5), 1e-9
    )
    assert not class_close(Trapezoid(F(1, 2)), Parallelogram(), 0)


def test_classify_fixed_examples():
    got = classify_quadrangle(
        ((F(0), F(0)), (F(4, 5), F(0)), (F(1, 2), F(3, 8)), (F(0), F(3, 4)))
    )
    assert got.cls == GenericQuad(F(1, 5), F(1, 2))

    got = classify_quadrangle(((F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(0), F(1))))
    assert got.cls == Parallelogram()

    got = classify_quadrangle(
        ((F(0), F(0)), (F(1), F(0)), (F(3, 4), F(1)), (F(1, 4), F(1)))
    )
    assert got.cls == Trapezoid(F(1, 2))


def test_classify_rejects_bad_input():
    with pytest.raises(InvalidQuadrangleError):
        classify_quadrangle(((F(0), F(0)), (F(1), F(0)), (F(2), F(0)), (F(0), F(1))))
    with pytest.raises(InvalidQuadrangleError):
        # reflex vertex
        classify_quadrangle(
            ((F(0), F(0)), (F(1), F(0)), (F(1, 10), F(1, 10)), (F(0), F(1)))
        )


def test_classify_ambiguous_float_trapezoid():
    # near-parallel sides inside the float tolerance band
    eps = 1e-13
    pts = ((0.0, 0.0), (1.0, 0.0), (0.75, 1.0), (0.25, 1.0 + eps))
    with pytest.raises(AmbiguousGeometryError):
        classify_quadrangle(pts, tol=1e-9)


@given(rational_q(max_den=60))
def test_classify_standard_placement_round_trip(q):
    lq = standard_placement(q)
    got = classify_quadrangle(lq.points)
    assert got.cls == canonicalize(q)


@st.composite
def rational_affine_map(draw):
    """Nonsingular 2x2 matrix plus shift, small rational entries."""
    nums = [draw(st.integers(min_value=-6, max_value=6)) for _ in range(6)]
    m = [F(n, 3) for n in nums]
    if m[0] * m[3] - m[1] * m[2] == 0:
        m[0] += F(7, 2)
        if m[0] * m[3] - m[1] * m[2] == 0:
            m[3] += F(5, 3)
    return m


@given(rational_q(max_den=40), rational_affine_map())
@settings(max_examples=60)
def test_classify_affine_invariant(q, m):
    lq = standard_placement(q)
    mapped = tuple(
        (m[0] * x + m[1] * y + m[4], m[2] * x + m[3] * y + m[5])
        for x, y in lq.points
    )
    det = m[0] * m[3] - m[1] * m[2]
    assert det != 0
    got = classify_quadrangle(mapped)
    assert got.cls == canonicalize(q)


def test_classify_all_cyclic_orders_agree():
    pts = ((F(0), F(0)), (F(4, 5), F(0)), (F(1, 2), F(3, 8)), (F(0), F(3, 4)))
    expected = GenericQuad(F(1, 5), F(1, 2))
    for s in range(4):
        rotated = pts[s:] + pts[:s]
        assert classify_quadrangle(rotated).cls == expected
        assert classify_quadrangle(rotated[::-1]).cls == expected


def test_classify_int_coordinates_exactly():
    got = classify_quadrangle(((0, 0), (4, 0), (3, 2), (0, 3)))
    assert got.cls == GenericQuad(F(5, 9), F(2, 3))
    assert type(got.cls.alpha) is Fraction and type(got.cls.beta) is Fraction
    got = classify_quadrangle(((0, 0), (4, 0), (3, 2), (1, 2)))
    assert got.cls == Trapezoid(F(1, 2)) and type(got.cls.gamma) is Fraction


scale = st.fractions(min_value=F(1, 40), max_value=40, max_denominator=40)
shift = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@settings(max_examples=80)
@given(convex_quads(), scale, shift, shift)
def test_classify_invariant_under_scaling_and_translation(pts, s, dx, dy):
    moved = tuple((s * x + dx, s * y + dy) for x, y in pts)
    assert classify_quadrangle(moved) == classify_quadrangle(pts)


@settings(max_examples=80)
@given(convex_quads(), st.integers(min_value=1, max_value=10**6))
def test_classify_int_scaled_copy(pts, k):
    den = k * math.lcm(*(c.denominator for p in pts for c in p))
    ints = tuple((int(x * den), int(y * den)) for x, y in pts)
    got = classify_quadrangle(ints)
    assert got == classify_quadrangle(pts)
    assert all(type(v) is Fraction for v in vars(got.cls).values())


def _quotient_line_params(a, b, c, d):
    """(t, u) with a + t(b-a) = c + u(d-c), as quotients."""
    r, s = vsub(b, a), vsub(d, c)
    denom = cross(r, s)
    diff = vsub(c, a)
    return cross(diff, s) / denom, cross(diff, r) / denom


def _quotient_classify(pts, tol=FLOAT_GEOMETRY_TOL):
    """classify_quadrangle with the generic case computed on the quotients
    t, u themselves: the reference for float input."""
    affine_types._validate_convex(pts, tol)
    sides = [vsub(pts[(i + 1) % 4], pts[i]) for i in range(4)]
    par02 = affine_types._sign_of_cross(sides[0], sides[2], tol, "sides 01 and 23") == 0
    par13 = affine_types._sign_of_cross(sides[1], sides[3], tol, "sides 12 and 30") == 0
    if par02 and par13:
        return Classification(Parallelogram(), (0, 1, 2, 3))
    if par02 or par13:
        return affine_types._classify_trapezoid(pts, sides, short_first=par02)
    best = None
    orders = [tuple((s + k) % 4 for k in range(4)) for s in range(4)]
    orders += [tuple((s - k) % 4 for k in range(4)) for s in range(4)]
    for order in orders:
        a, b, c, d = (pts[j] for j in order)
        t_s, w_s = _quotient_line_params(a, b, d, c)
        if not (t_s > 1 and w_s > 1):
            continue
        u_t, v_t = _quotient_line_params(a, d, b, c)
        if not (u_t > 1 and v_t > 1):
            continue
        alpha = (t_s - 1) / t_s
        beta = (w_s - 1) / w_s
        if alpha < beta and (best is None or (alpha, beta) < best[0]):
            best = ((alpha, beta), order)
    if best is None:
        raise InvalidQuadrangleError("no labeling yields generic parameters; degenerate input")
    (alpha, beta), order = best
    return Classification(GenericQuad(alpha, beta), order)


def _outcome(classify, pts):
    try:
        return classify(pts)
    except (InvalidQuadrangleError, AmbiguousGeometryError) as exc:
        return type(exc), str(exc)


def test_float_classification_matches_quotient_reference():
    rng = random.Random(77)
    for _ in range(10**4):
        pts = [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
        if rng.random() < 0.8:  # mostly convex: in angular order about the centroid
            cx, cy = sum(x for x, _ in pts) / 4, sum(y for _, y in pts) / 4
            pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        pts = tuple(pts)
        assert _outcome(classify_quadrangle, pts) == _outcome(_quotient_classify, pts)
