"""The glueing algebra: combine, membership, set-valued composition.

Every fixed expected value below was computed by hand from the table
formulas before being frozen here; the property tests then check the
algebraic laws on random rational inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from gcdissect import (
    ClassSet,
    ClassTerm,
    GenericQuad,
    GlueingError,
    Interval,
    Op,
    Parallelogram,
    QCurve,
    Trapezoid,
    affine_quotient,
    canonicalize,
    classify_quadrangle,
    combine,
    compose_sets,
    flip,
    member,
    standard_placement,
)
from gcdissect.composition import ROWS, cut_quad, decompose, may_hold, singleton

F = Fraction


def term(cls, flipped=False):
    return ClassTerm(cls, flipped)


@st.composite
def rational_q(draw, max_den=60):
    den = draw(st.integers(min_value=3, max_value=max_den))
    b = draw(st.integers(min_value=2, max_value=den - 1))
    a = draw(st.integers(min_value=1, max_value=b - 1))
    return GenericQuad(F(a, den), F(b, den))


@st.composite
def rational_t(draw, max_den=60):
    den = draw(st.integers(min_value=2, max_value=max_den))
    g = draw(st.integers(min_value=1, max_value=den - 1))
    return Trapezoid(F(g, den))


# ---------------------------------------------------------------------------
# table rows, fixed values


def test_qq_dot():
    s = combine(term(GenericQuad(F(1, 5), F(1, 2))), term(GenericQuad(F(1, 4), F(5, 8))), Op.DOT)
    assert s.q_points == (GenericQuad(F(1, 20), F(5, 16)),)
    assert not (s.t_points or s.t_intervals or s.q_curves or s.has_p)


def test_qq_colon_equal_quotients():
    s = combine(term(GenericQuad(F(1, 5), F(1, 2))), term(GenericQuad(F(1, 5), F(1, 2))), Op.COLON)
    assert s.t_points == (Trapezoid(F(1, 10)),)
    assert not (s.q_points or s.t_intervals or s.q_curves or s.has_p)


def test_qq_colon_unequal_quotients():
    s = combine(term(GenericQuad(F(1, 5), F(1, 2))), term(GenericQuad(F(3, 10), F(3, 5))), Op.COLON)
    assert s.q_points == (GenericQuad(F(3, 25), F(3, 20)),)


def test_qt_dot():
    s = combine(term(GenericQuad(F(1, 5), F(1, 2))), term(Trapezoid(F(1, 10))), Op.DOT)
    assert s.q_points == (GenericQuad(F(1, 50), F(1, 20)),)
    # commutative in the operands
    assert combine(term(Trapezoid(F(1, 10))), term(GenericQuad(F(1, 5), F(1, 2))), Op.DOT) == s


def test_tt_dot_unflagged():
    s = combine(term(Trapezoid(F(1, 10))), term(Trapezoid(F(1, 10))), Op.DOT)
    assert s.t_points == (Trapezoid(F(1, 100)),)


def test_tt_dot_flagged_equal():
    s = combine(term(Trapezoid(F(1, 10)), True), term(Trapezoid(F(1, 10)), True), Op.DOT)
    assert s.t_intervals == (Interval(F(1, 10), True, F(1), False),)
    assert s.has_p
    assert not (s.q_points or s.t_points or s.q_curves)


def test_tt_dot_flagged_unequal_open_at_min():
    s = combine(term(Trapezoid(F(1, 10)), True), term(Trapezoid(F(1, 2)), True), Op.DOT)
    assert s.t_intervals == (Interval(F(1, 10), False, F(1), False),)
    assert s.has_p


def test_tp_dot_flagged():
    s = combine(term(Trapezoid(F(3, 10)), True), term(Parallelogram(), False), Op.DOT)
    assert s.t_intervals == (Interval(F(3, 10), False, F(1), False),)
    assert not s.has_p


def test_pp_dot():
    s = combine(term(Parallelogram()), term(Parallelogram()), Op.DOT)
    assert s.has_p and not (s.q_points or s.t_points or s.t_intervals or s.q_curves)


def test_forbidden_patterns():
    q = term(GenericQuad(F(1, 5), F(1, 2)))
    t = term(Trapezoid(F(1, 10)))
    p = term(Parallelogram())
    with pytest.raises(GlueingError):
        combine(q, p, Op.DOT)
    with pytest.raises(GlueingError):
        combine(q, t, Op.COLON)
    with pytest.raises(GlueingError):
        combine(t, t, Op.COLON)
    with pytest.raises(GlueingError):
        combine(p, p, Op.COLON)
    # mixed flag on the T dot row
    with pytest.raises(GlueingError):
        combine(term(Trapezoid(F(1, 10)), True), term(Trapezoid(F(1, 10)), False), Op.DOT)
    # flagged parallelogram pair
    with pytest.raises(GlueingError):
        combine(term(Parallelogram(), True), term(Parallelogram(), True), Op.DOT)
    # Q dot T with flag on the trapezoid
    with pytest.raises(GlueingError):
        combine(q, term(Trapezoid(F(1, 10)), True), Op.DOT)


def test_q_flip_absorbed_at_construction():
    q = GenericQuad(F(1, 5), F(1, 2))
    assert term(q, True) == term(flip(q), False)


# ---------------------------------------------------------------------------
# membership


def test_member_interval():
    s = ClassSet(t_intervals=(Interval(F(1, 10), True, F(1), False),), has_p=True)
    assert member(s, Trapezoid(F(1, 2)), 0)
    assert member(s, Trapezoid(F(1, 10)), 0)
    assert member(s, Parallelogram(), 0)
    assert not member(s, Trapezoid(F(1, 20)), 0)


def test_member_open_endpoint():
    s = ClassSet(t_intervals=(Interval(F(1, 10), False, F(1), False),))
    assert not member(s, Trapezoid(F(1, 10)), 0)
    # tolerance softens strictness
    assert member(s, Trapezoid(F(1, 10)), 1e-9)


def test_member_curve():
    curve = QCurve(F(2, 5), Interval(F(3, 20), False, F(1, 2), False))
    s = ClassSet(q_curves=(curve,))
    assert member(s, GenericQuad(F(1, 10), F(1, 4)), 0)
    # beta on the open endpoint
    assert not member(s, GenericQuad(F(1, 5), F(1, 2)), 0)
    # beta below the interval
    assert not member(s, GenericQuad(F(1, 20), F(1, 8)), 0)
    # right beta, wrong quotient
    assert not member(s, GenericQuad(F(1, 8), F(1, 4)), 0)


def test_curve_betas_stay_below_one():
    # flip sends beta 1 to 0, so such a curve has no flipped image
    with pytest.raises(ValueError):
        QCurve(F(1, 12), Interval(F(1, 3), False, F(1), False))


def test_member_points():
    s = singleton(GenericQuad(F(1, 20), F(5, 16)))
    assert member(s, GenericQuad(F(1, 20), F(5, 16)), 0)
    assert not member(s, GenericQuad(F(1, 5), F(1, 2)), 0)


def test_signature_kinds_and_quotients():
    s = ClassSet(
        q_points=(GenericQuad(F(1, 20), F(5, 16)), GenericQuad(F(1, 10), F(5, 8))),
        t_intervals=(Interval(F(1, 10), False, F(1), False),),
        has_p=True,
    )
    assert s.signature == (("P", 1), ("Q", F(4, 25)), ("T", 1))


def test_may_hold_kinds_and_bound():
    c = GenericQuad(F(1, 5), F(1, 2))
    sig = (("Q", F(2, 5)),)
    assert may_hold(sig, c) and may_hold(sig, flip(c))
    assert not may_hold((("T", 1), ("P", 1)), c, 1)
    assert may_hold((("T", 1),), Trapezoid(F(1, 3))) and not may_hold(sig, Parallelogram())
    assert not may_hold((("Q", F(2, 5) + F(1, 10**9)),), c, 0)
    # 2*tol/(beta - tol) is 1/2 at tol 1/10, compared exactly
    assert may_hold((("Q", F(9, 10)),), c, F(1, 10))
    assert not may_hold((("Q", F(9, 10) + F(1, 10**9)),), c, F(1, 10))
    # no bound once tol reaches beta
    assert may_hold((("Q", F(1, 10**6)),), c, F(1, 2))


def test_may_hold_widens_float_quotients_by_roundoff():
    c = GenericQuad(0.2, 0.5)
    assert may_hold((("Q", math.nextafter(0.2 / 0.5, 1)),), c, 0)
    assert not may_hold((("Q", 0.2 / 0.5 * (1 + 1e-9)),), c, 0)


@given(
    rational_q(),
    st.fractions(min_value=0, max_value=F(1, 4), max_denominator=50),
    st.integers(-10, 10),
    st.integers(-10, 10),
)
def test_may_hold_is_necessary_for_member_at_points(c, tol, i, j):
    # any point within tol of c in alpha and beta, the corners included
    alpha, beta = c.alpha + tol * F(i, 10), c.beta + tol * F(j, 10)
    assume(0 < alpha < beta < 1)
    s = singleton(GenericQuad(alpha, beta))
    assert member(s, c, tol)
    assert may_hold(s.signature, c, tol)


# ---------------------------------------------------------------------------
# set-valued composition


def test_compose_sets_q_with_interval():
    q = singleton(GenericQuad(F(1, 5), F(1, 2)))
    iv = ClassSet(t_intervals=(Interval(F(1, 10), False, F(1), False),))
    out = compose_sets(q, False, iv, False, Op.DOT)
    assert len(out.q_curves) == 1
    curve = out.q_curves[0]
    assert curve.quotient == F(2, 5)
    # gamma = 1/2 sits inside, scaling beta by 1/2
    assert member(out, GenericQuad(F(1, 10), F(1, 4)), 0)
    assert not member(out, GenericQuad(F(1, 5), F(1, 2)), 0)


def test_compose_sets_pp():
    p = ClassSet(has_p=True)
    out = compose_sets(p, False, p, False, Op.DOT)
    assert out.has_p and not out.t_intervals


def test_compose_sets_skips_undefined():
    q = singleton(GenericQuad(F(1, 5), F(1, 2)))
    p = ClassSet(has_p=True)
    out = compose_sets(q, False, p, False, Op.DOT)
    assert not out


# ---------------------------------------------------------------------------
# algebraic laws


@given(rational_q(), rational_q(), st.sampled_from([Op.DOT, Op.COLON]))
def test_commutativity(q1, q2, op):
    assert combine(term(q1), term(q2), op) == combine(term(q2), term(q1), op)


@given(rational_q(), rational_q())
def test_dot_quotient_law(q1, q2):
    s = combine(term(q1), term(q2), Op.DOT)
    for q in s.q_points:
        assert affine_quotient(q) == affine_quotient(q1) * affine_quotient(q2)


@given(rational_q(), rational_q())
def test_colon_quotient_law(q1, q2):
    s = combine(term(q1), term(q2), Op.COLON)
    r1, r2 = affine_quotient(q1), affine_quotient(q2)
    for q in s.q_points:
        assert affine_quotient(q) == min(r1 / r2, r2 / r1)
    for t in s.t_points:
        assert r1 == r2


@given(rational_q(), rational_q(), st.booleans(), st.booleans(),
       st.sampled_from([Op.DOT, Op.COLON]))
def test_produced_parameters_valid(q1, q2, f1, f2, op):
    # constructors enforce the invariants, so success is the assertion
    s = combine(term(q1, f1), term(q2, f2), op)
    for q in s.q_points:
        assert 0 < q.alpha < q.beta < 1
    for t in s.t_points:
        assert 0 < t.gamma < 1


@given(rational_q(), rational_q())
def test_flip_coherence(q1, q2):
    direct = combine(term(q1, True), term(q2), Op.DOT)
    via_flip = combine(term(flip(q1)), term(q2), Op.DOT)
    assert direct == via_flip


@given(rational_t(), rational_t())
def test_tt_flagged_interval_endpoints(t1, t2):
    s = combine(term(t1, True), term(t2, True), Op.DOT)
    iv = s.t_intervals[0]
    assert iv.lo == min(t1.gamma, t2.gamma)
    assert iv.lo_closed == (t1.gamma == t2.gamma)
    assert iv.hi == 1 and not iv.hi_closed
    assert s.has_p


# ---------------------------------------------------------------------------
# each row's forward image, inverse and cut geometry agree


@st.composite
def unit_span(draw, top=0, max_den=24):
    """(lo, lo_closed, hi, hi_closed) with 0 < lo < hi <= 1 - top/den, open
    at 1."""
    den = draw(st.integers(min_value=3, max_value=max_den))
    ends = st.integers(1, den - top)
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    hi_closed = hi < den and draw(st.booleans())
    return F(lo, den), draw(st.booleans()), F(hi, den), hi_closed


@st.composite
def one_piece_set(draw, kind):
    """A ClassSet holding one piece of kind Q (point or curve), T (point or
    interval) or P."""
    single = draw(st.booleans())
    if kind == "Q" and single:
        return singleton(draw(rational_q(max_den=24)))
    if kind == "Q":
        # as the table makes them: betas stay below 1
        quotient = F(draw(st.integers(1, 11)), 12)
        return ClassSet(q_curves=(QCurve(quotient, Interval(*draw(unit_span(top=1)))),))
    if kind == "T" and single:
        return singleton(draw(rational_t(max_den=24)))
    if kind == "T":
        return ClassSet(t_intervals=(Interval(*draw(unit_span())),))
    return ClassSet(has_p=True)


@st.composite
def row_operands(draw):
    """(left, left_flip, right, right_flip, op) that a table row glues, the
    operands in either order; flags on Q edges are drawn too."""
    row = draw(st.sampled_from(ROWS))
    sides = [
        (draw(one_piece_set(kind)), draw(st.booleans()) if kind == "Q" else flag)
        for kind, flag in (row.left, row.right)
    ]
    if draw(st.booleans()):
        sides.reverse()
    return (*sides[0], *sides[1], row.op)


def _sample_members(s):
    out = list(s.members())
    for iv in s.t_intervals:
        out.append(Trapezoid((iv.lo + iv.hi) / 2))
        if iv.lo_closed:
            out.append(Trapezoid(iv.lo))
    for c in s.q_curves:
        out.append(c.at((c.betas.lo + c.betas.hi) / 2))
        if c.betas.lo_closed:
            out.append(c.at(c.betas.lo))
    return out


@given(row_operands())
def test_rows_round_trip(operands):
    left, left_flip, right, right_flip, op = operands
    image = compose_sets(left, left_flip, right, right_flip, op)
    assert image
    for target in _sample_members(image):
        cls_l, cls_r = decompose(left, left_flip, right, right_flip, op, target)
        assert member(left, cls_l) and member(right, cls_r)
        glued = combine(term(cls_l, left_flip), term(cls_r, right_flip), op)
        assert member(glued, target)
        child_l, child_r, cut = cut_quad(
            standard_placement(target), op, cls_l, left_flip, cls_r, right_flip
        )
        assert classify_quadrangle(child_l.points, 0).cls == canonicalize(cls_l)
        assert classify_quadrangle(child_r.points, 0).cls == canonicalize(cls_r)
