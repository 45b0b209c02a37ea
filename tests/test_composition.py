"""The glueing algebra: combine, membership, set-valued composition.

Every fixed expected value below was computed by hand from the table
formulas before being frozen here; the property tests then check the
algebraic laws on random rational inputs.
"""

from __future__ import annotations

import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from gcdissect import (
    GenericQuad,
    GlueingError,
    Interval,
    Op,
    Parallelogram,
    QCurve,
    Trapezoid,
    UnrealizableError,
    affine_quotient,
    canonicalize,
    classify_quadrangle,
    combine,
    compose_sets,
    flip,
    member,
    standard_placement,
)
from gcdissect.affine_types import cross, lerp, vsub
from gcdissect.composition import (
    _TABLE,
    LEAF_TOKENS,
    P_TOKEN,
    ROWS,
    T_TOKEN,
    Piece,
    _class_set,
    _flag,
    _piece,
    decompose,
    glue_tokens,
    may_hold,
    singleton,
)
from gcdissect.treesearch import _token_quotients

F = Fraction


def class_set(q_points=(), t_points=(), t_intervals=(), q_curves=(), has_p=False):
    """The set of these classes, deduplicated and sorted as glued sets are."""
    pieces = [_piece(c) for c in (*q_points, *t_points, *[Parallelogram()] * has_p)]
    pieces += [Piece("T", False, i) for i in t_intervals]
    pieces += [Piece("Q", False, c.betas, c.quotient) for c in q_curves]
    return _class_set(pieces)


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
    s = combine(GenericQuad(F(1, 5), F(1, 2)), False, GenericQuad(F(1, 4), F(5, 8)), False, Op.DOT)
    assert s.q_points == (GenericQuad(F(1, 20), F(5, 16)),)
    assert not (s.t_points or s.t_intervals or s.q_curves or s.has_p)


def test_qq_colon_equal_quotients():
    q = GenericQuad(F(1, 5), F(1, 2))
    s = combine(q, False, q, False, Op.COLON)
    assert s.t_points == (Trapezoid(F(1, 10)),)
    assert not (s.q_points or s.t_intervals or s.q_curves or s.has_p)


def test_qq_colon_unequal_quotients():
    s = combine(
        GenericQuad(F(1, 5), F(1, 2)), False, GenericQuad(F(3, 10), F(3, 5)), False, Op.COLON
    )
    assert s.q_points == (GenericQuad(F(3, 25), F(3, 20)),)


def test_qt_dot():
    s = combine(GenericQuad(F(1, 5), F(1, 2)), False, Trapezoid(F(1, 10)), False, Op.DOT)
    assert s.q_points == (GenericQuad(F(1, 50), F(1, 20)),)
    # commutative in the operands
    assert combine(Trapezoid(F(1, 10)), False, GenericQuad(F(1, 5), F(1, 2)), False, Op.DOT) == s


def test_tt_dot_unflagged():
    s = combine(Trapezoid(F(1, 10)), False, Trapezoid(F(1, 10)), False, Op.DOT)
    assert s.t_points == (Trapezoid(F(1, 100)),)


def test_tt_dot_flagged_equal():
    s = combine(Trapezoid(F(1, 10)), True, Trapezoid(F(1, 10)), True, Op.DOT)
    assert s.t_intervals == (Interval(F(1, 10), True, F(1), False),)
    assert s.has_p
    assert not (s.q_points or s.t_points or s.q_curves)


def test_tt_dot_flagged_unequal_open_at_min():
    s = combine(Trapezoid(F(1, 10)), True, Trapezoid(F(1, 2)), True, Op.DOT)
    assert s.t_intervals == (Interval(F(1, 10), False, F(1), False),)
    assert s.has_p


@pytest.mark.parametrize("tol", [0, F(1, 10**9), 1e-9], ids=["0", "exact-1e-9", "float-1e-9"])
def test_decompose_refuses_an_open_end_at_every_tol(tol):
    # T(5/6)^F . T(1/30)^F glues to ratios above 1/30 only: the image is
    # open there, and the cut of that pair would not exist.  A positive tol
    # must not close the end.
    with pytest.raises(UnrealizableError):
        decompose(
            singleton(Trapezoid(F(5, 6))), True, singleton(Trapezoid(F(1, 30))), True,
            Op.DOT, standard_placement(Trapezoid(F(1, 30))), tol,
        )


Q, T = GenericQuad, Trapezoid
_ROWS = {row.name: row for row in ROWS}


@pytest.mark.parametrize(
    "left, right, parent, tol, want, row",
    [
        # Q . T glues to a Q piece, which cannot be the T parent; T . T can
        (class_set(q_points=[Q(F(1, 5), F(1, 2))], t_points=[T(F(1, 2))]),
         class_set(t_points=[T(F(1, 3))]), T(F(1, 6)), 0, (T(F(1, 2)), T(F(1, 3))), "T . T"),
        # Q(1/5,1/2) . Q(1/4,5/8) has quotient 4/25, the parent 6/25, though
        # its beta is the parent's
        (class_set(q_points=[Q(F(1, 5), F(1, 2)), Q(F(3, 10), F(1, 2))]),
         class_set(q_points=[Q(F(1, 4), F(5, 8))]), Q(F(3, 40), F(5, 16)), 0,
         (Q(F(3, 10), F(1, 2)), Q(F(1, 4), F(5, 8))), "Q . Q"),
        # the spans (1/20, 1/10) and (1/4, 1/2) glue to (1/80, 1/20), short
        # of 3/50; tol does not widen that range
        (class_set(t_points=[T(F(1, 5))], t_intervals=[Interval(F(1, 20), False, F(1, 10), False)]),
         class_set(t_intervals=[Interval(F(1, 4), False, F(1, 2), False)]), T(F(3, 50)), F(1, 10),
         (T(F(1, 5)), T(F(3, 10))), "T . T"),
        # (1/10, 1/2) reaches 1/30 neither with 1/20 nor with [1/3, 1),
        # which meets it only at its open end 1/10
        (class_set(t_points=[T(F(2, 3))], t_intervals=[Interval(F(1, 10), False, F(1, 2), False)]),
         class_set(t_points=[T(F(1, 20))], t_intervals=[Interval(F(1, 3), True, F(1), False)]),
         T(F(1, 30)), 0, (T(F(2, 3)), T(F(1, 20))), "T . T"),
    ],
    ids=["kind", "quotient", "disjoint-spans", "open-end"],
)
def test_decompose_skips_pairs_that_cannot_reach_the_parent(left, right, parent, tol, want, row):
    # The leading row pairs of each case cannot glue to the parent; decompose
    # must pass over them and cut with the row of the first pair that can.
    quad = standard_placement(parent)
    got = decompose(left, False, right, False, Op.DOT, quad, tol)
    assert got == _ROWS[row].cut(quad, *want, lambda: F(1))
    assert member(combine(got[0].cls, False, got[1].cls, False, Op.DOT), parent)


@pytest.mark.parametrize(
    "row, parent, left, right, lam",
    [
        # the parent's ratio must lie above the smaller child ratio
        ("T^F . T^F", T(F(1, 5)), T(F(1, 3)), T(F(1, 2)), 1),
        ("T^F . T^F", T(F(1, 3)), T(F(1, 2)), T(F(1, 3)), 1),
        # the child ratio must lie below the parent's, in either order
        ("T^F . P", T(F(1, 3)), T(F(1, 2)), Parallelogram(), 1),
        ("T^F . P", T(F(1, 3)), Parallelogram(), T(F(1, 3)), 1),
        # a pinned ratio must be positive
        ("P . P", Parallelogram(), Parallelogram(), Parallelogram(), 0),
        ("P . P", Parallelogram(), Parallelogram(), Parallelogram(), -1),
    ],
    ids=["tt-below", "tt-at", "tp-above", "tp-at", "pp-zero", "pp-negative"],
)
def test_cuts_refuse_children_that_cannot_tile_the_parent(row, parent, left, right, lam):
    with pytest.raises(UnrealizableError):
        _ROWS[row].cut(standard_placement(parent), left, right, lambda: F(lam))


def test_tp_dot_flagged():
    s = combine(Trapezoid(F(3, 10)), True, Parallelogram(), False, Op.DOT)
    assert s.t_intervals == (Interval(F(3, 10), False, F(1), False),)
    assert not s.has_p


def test_pp_dot():
    s = combine(Parallelogram(), False, Parallelogram(), False, Op.DOT)
    assert s.has_p and not (s.q_points or s.t_points or s.t_intervals or s.q_curves)


def test_forbidden_patterns():
    q = GenericQuad(F(1, 5), F(1, 2)), False
    t = Trapezoid(F(1, 10)), False
    p = Parallelogram(), False
    with pytest.raises(GlueingError):
        combine(*q, *p, Op.DOT)
    with pytest.raises(GlueingError):
        combine(*q, *t, Op.COLON)
    with pytest.raises(GlueingError):
        combine(*t, *t, Op.COLON)
    with pytest.raises(GlueingError):
        combine(*p, *p, Op.COLON)
    # mixed flag on the T dot row
    with pytest.raises(GlueingError):
        combine(Trapezoid(F(1, 10)), True, Trapezoid(F(1, 10)), False, Op.DOT)
    # flagged parallelogram pair
    with pytest.raises(GlueingError):
        combine(Parallelogram(), True, Parallelogram(), True, Op.DOT)
    # Q dot T with flag on the trapezoid
    with pytest.raises(GlueingError):
        combine(*q, Trapezoid(F(1, 10)), True, Op.DOT)


def test_q_flip_absorbed_at_construction():
    # a Q piece on a flagged edge is the piece of the flipped class, unflagged
    q = GenericQuad(F(1, 5), F(1, 2))
    assert _flag(_piece(q)) == _piece(flip(q))


def test_class_sets_built_apart_hash_compare_and_find_each_other():
    # A set stores its hash on first use; an equal set built later, before
    # anything is stored on it, must hash alike and find the first in a dict.
    pieces = [
        _piece(GenericQuad(F(1, 5), F(1, 2))),
        Piece("T", False, Interval(F(1, 3), False, F(1, 2), True)),
        _piece(Parallelogram()),
    ]
    first = _class_set(pieces)
    table = {first: "first"}
    flagged = first._flagged
    second = _class_set(reversed(pieces))
    assert second is not first
    assert hash(second) == hash(first) == hash(first.pieces)
    assert first == second and second == first
    assert table[second] == "first" and {second: "second"}[first] == "second"
    assert second._flagged == flagged
    # another set keeps its own hash and flagged pieces
    other = singleton(Trapezoid(F(1, 3)))
    assert hash(other) == hash(other.pieces) != hash(first)
    assert other not in table and other._flagged != flagged
    # a pickled set carries only its pieces, to be hashed where it is loaded
    loaded = pickle.loads(pickle.dumps(first))
    assert vars(loaded) == {"pieces": first.pieces} and table[loaded] == "first"


# ---------------------------------------------------------------------------
# membership


def test_member_interval():
    s = class_set(t_intervals=(Interval(F(1, 10), True, F(1), False),), has_p=True)
    assert member(s, Trapezoid(F(1, 2)), 0)
    assert member(s, Trapezoid(F(1, 10)), 0)
    assert member(s, Parallelogram(), 0)
    assert not member(s, Trapezoid(F(1, 20)), 0)


def test_member_open_endpoint():
    s = class_set(t_intervals=(Interval(F(1, 10), False, F(1), False),))
    assert not member(s, Trapezoid(F(1, 10)), 0)
    # tolerance softens strictness
    assert member(s, Trapezoid(F(1, 10)), 1e-9)


def test_member_curve():
    curve = QCurve(F(2, 5), Interval(F(3, 20), False, F(1, 2), False))
    s = class_set(q_curves=(curve,))
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
    # The (kind, quotient) pairs may_hold reads, built from tokens at leaf
    # quotient 2/5, are those of the pieces of a set with these tokens.
    s = class_set(
        q_points=(GenericQuad(F(1, 20), F(5, 16)), GenericQuad(F(1, 10), F(5, 8))),
        t_intervals=(Interval(F(1, 10), False, F(1), False),),
        has_p=True,
    )
    pairs = _token_quotients(frozenset({("Q", 2), ("T",), ("P",)}), F(2, 5))
    assert sorted(pairs) == [("P", 1), ("Q", F(4, 25)), ("T", 1)]
    assert set(pairs) == {(p.kind, p.quotient) for p in s.pieces}


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


def test_may_hold_compares_float_quotients_without_a_band():
    # A float leaf's pieces store q ** k, the quotient their token names, so
    # at tol 0 a float quotient must equal alpha/beta: one ulp off fails.
    c = GenericQuad(0.2, 0.5)
    assert may_hold((("Q", 0.2 / 0.5),), c, 0)
    assert not may_hold((("Q", math.nextafter(0.2 / 0.5, 1)),), c, 0)
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
    # the point's set has the leaf's one token Q^1, at its own quotient
    assert member(singleton(GenericQuad(alpha, beta)), c, tol)
    assert may_hold(_token_quotients(frozenset({("Q", 1)}), alpha / beta), c, tol)


# ---------------------------------------------------------------------------
# set-valued composition


def test_compose_sets_q_with_interval():
    q = singleton(GenericQuad(F(1, 5), F(1, 2)))
    iv = class_set(t_intervals=(Interval(F(1, 10), False, F(1), False),))
    out = compose_sets(q, False, iv, False, Op.DOT)
    assert len(out.q_curves) == 1
    curve = out.q_curves[0]
    assert curve.quotient == F(2, 5)
    # gamma = 1/2 sits inside, scaling beta by 1/2
    assert member(out, GenericQuad(F(1, 10), F(1, 4)), 0)
    assert not member(out, GenericQuad(F(1, 5), F(1, 2)), 0)


def test_compose_sets_pp():
    p = class_set(has_p=True)
    out = compose_sets(p, False, p, False, Op.DOT)
    assert out.has_p and not out.t_intervals


def test_compose_sets_skips_undefined():
    q = singleton(GenericQuad(F(1, 5), F(1, 2)))
    p = class_set(has_p=True)
    out = compose_sets(q, False, p, False, Op.DOT)
    assert not out


# ---------------------------------------------------------------------------
# algebraic laws


@given(rational_q(), rational_q(), st.sampled_from([Op.DOT, Op.COLON]))
def test_commutativity(q1, q2, op):
    assert combine(q1, False, q2, False, op) == combine(q2, False, q1, False, op)


@given(rational_q(), rational_q())
def test_dot_quotient_law(q1, q2):
    s = combine(q1, False, q2, False, Op.DOT)
    for q in s.q_points:
        assert affine_quotient(q) == affine_quotient(q1) * affine_quotient(q2)


@given(rational_q(), rational_q())
def test_colon_quotient_law(q1, q2):
    s = combine(q1, False, q2, False, Op.COLON)
    r1, r2 = affine_quotient(q1), affine_quotient(q2)
    for q in s.q_points:
        assert affine_quotient(q) == min(r1 / r2, r2 / r1)
    for t in s.t_points:
        assert r1 == r2


@given(rational_q(), rational_q(), st.booleans(), st.booleans(),
       st.sampled_from([Op.DOT, Op.COLON]))
def test_produced_parameters_valid(q1, q2, f1, f2, op):
    # constructors enforce the invariants, so success is the assertion
    s = combine(q1, f1, q2, f2, op)
    for q in s.q_points:
        assert 0 < q.alpha < q.beta < 1
    for t in s.t_points:
        assert 0 < t.gamma < 1


@given(rational_q(), rational_q())
def test_flip_coherence(q1, q2):
    direct = combine(q1, True, q2, False, Op.DOT)
    via_flip = combine(flip(q1), False, q2, False, Op.DOT)
    assert direct == via_flip


@given(rational_t(), rational_t())
def test_tt_flagged_interval_endpoints(t1, t2):
    s = combine(t1, True, t2, True, Op.DOT)
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
        return class_set(q_curves=(QCurve(quotient, Interval(*draw(unit_span(top=1)))),))
    if kind == "T" and single:
        return singleton(draw(rational_t(max_den=24)))
    if kind == "T":
        return class_set(t_intervals=(Interval(*draw(unit_span())),))
    return class_set(has_p=True)


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
        parent = standard_placement(target)
        child_l, child_r, _ = decompose(left, left_flip, right, right_flip, op, parent)
        cls_l, cls_r = child_l.cls, child_r.cls
        assert member(left, cls_l) and member(right, cls_r)
        glued = combine(cls_l, left_flip, cls_r, right_flip, op)
        assert member(glued, target)
        assert classify_quadrangle(child_l.points, 0).cls == canonicalize(cls_l)
        assert classify_quadrangle(child_r.points, 0).cls == canonicalize(cls_r)


def _float_operands():
    """Float singletons: Q classes with their flips and a copy nudged by an
    ulp in alpha, so Q : Q ties come an ulp apart, then T classes and P."""
    rng = random.Random(2)
    qs = [GenericQuad(0.5, 2 * (2**0.5 - 1))]
    while len(qs) < 8:
        a, b = sorted((rng.random(), rng.random()))
        if 0 < a < b < 1:
            qs.append(GenericQuad(a, b))
    classes = [
        d for c in qs for d in (c, flip(c), GenericQuad(math.nextafter(c.alpha, 1), c.beta))
    ]
    classes += [Trapezoid(rng.uniform(0.01, 0.99)) for _ in range(4)] + [Parallelogram()]
    return [singleton(c) for c in classes]


def test_float_rows_round_trip():
    # decompose at 1e-9 picks classes that glue back to each sampled member,
    # also where the two quotients of a tie differ in the last bits.
    tol = 1e-9
    sets = _float_operands()
    ties = 0
    for left, right in itertools.product(sets, sets):
        for op, left_flip, right_flip in itertools.product(Op, (False, True), (False, True)):
            image = compose_sets(left, left_flip, right, right_flip, op)
            (a,), (b,) = left.pieces, right.pieces
            ties += bool(image.t_points) and a.kind == "Q" and a.quotient != b.quotient
            for target in _sample_members(image):
                child_l, child_r, _ = decompose(
                    left, left_flip, right, right_flip, op, standard_placement(target), tol
                )
                glued = combine(child_l.cls, left_flip, child_r.cls, right_flip, op)
                assert member(glued, target, tol), (left, left_flip, right, right_flip, op, target)
    assert ties


# ---------------------------------------------------------------------------
# the table against geometry: every glass cut of a convex quadrangle is a row


def _glass_cuts(count, seed=1, steps=30):
    """(parent, child, child) vertex tuples of count exact cuts of P, T and
    Q parents between interior points of opposite sides, at parameters in
    steps of 1/steps; half the cuts run parallel to one of the other two
    sides, which is where Q . T and T^F . P splits occur."""
    rng = random.Random(seed)

    def step():
        return F(rng.randint(1, steps - 1), steps)

    out = []
    while len(out) < count:
        kind = rng.choice("PTQ")
        if kind == "P":
            cls = Parallelogram()
        elif kind == "T":
            cls = Trapezoid(step())
        else:
            a, b = step(), step()
            if not a < b:
                continue
            cls = GenericQuad(a, b)
        pts = standard_placement(cls).points
        i = rng.randrange(2)  # cut from side p0p1 to side p2p3
        p0, p1, p2, p3 = pts[i:] + pts[:i]
        x = lerp(p0, p1, step())
        if rng.random() < 0.5:
            u, v = rng.choice(((p3, p0), (p1, p2)))
            # y = p2 + t (p3 - p2) with y - x parallel to v - u
            t = cross(vsub(x, p2), vsub(v, u)) / cross(vsub(p3, p2), vsub(v, u))
            if not 0 < t < 1:
                continue
        else:
            t = step()
        y = lerp(p2, p3, t)
        out.append((pts, (p0, x, y, p3), (x, p1, p2, y)))
    return out


def test_every_glass_cut_is_a_table_row():
    # Independent of the rows' columns: classify a cut's parent and children,
    # then some op, flags and order must glue the children to the parent or
    # its flip.  Every row must occur, so the check is not vacuous.
    rows, missing = set(), []
    for pts, one, two in _glass_cuts(1000):
        parent = classify_quadrangle(pts, 0).cls
        wanted = {parent, flip(parent)} if isinstance(parent, GenericQuad) else {parent}
        c1, c2 = (classify_quadrangle(q, 0).cls for q in (one, two))
        s1, s2 = singleton(c1), singleton(c2)
        found = set()
        for (x, y), op, fx, fy in itertools.product(
            ((s1, s2), (s2, s1)), Op, (False, True), (False, True)
        ):
            image = compose_sets(x, fx, y, fy, op)
            if any(member(image, w) for w in wanted):
                (a,), (b,) = x._flagged if fx else x.pieces, y._flagged if fy else y.pieces
                found.add(_TABLE[(op, a.kind, a.flag, b.kind, b.flag)][0].name)
        if not found:
            missing.append((parent, c1, c2))
        rows |= found
    assert not missing, f"{len(missing)} cuts glue by no row, e.g. {missing[:3]}"
    assert rows == {row.name for row in ROWS}


# ---------------------------------------------------------------------------
# each row's token image is the kinds and quotient exponents of its forward image

TOKEN_Q = F(2, 5)


def _token_operands():
    """(token, one-piece set) for Q^1..Q^4 at quotient 2/5, T and P."""
    out = [(("Q", j), singleton(GenericQuad(TOKEN_Q**j / 2, F(1, 2)))) for j in range(1, 5)]
    out.append((("T",), singleton(Trapezoid(F(1, 3)))))
    out.append((("P",), singleton(Parallelogram())))
    return out


def _piece_token(p):
    if p.kind != "Q":
        return (p.kind,)
    (e,) = [e for e in range(1, 9) if TOKEN_Q**e == p.quotient]
    return ("Q", e)


def test_row_tokens_match_forward_pieces():
    seen = set()
    operands = _token_operands()
    for (x, sx), (y, sy) in itertools.product(operands, operands):
        for op, fx, fy in itertools.product(Op, (False, True), (False, True)):
            (a,) = sx._flagged if fx else sx.pieces
            (b,) = sy._flagged if fy else sy.pieces
            key = (op, a.kind, a.flag, b.kind, b.flag)
            got = glue_tokens(frozenset({x}), fx, frozenset({y}), fy, op)
            if key not in _TABLE:
                assert got == frozenset() and not compose_sets(sx, fx, sy, fy, op), key
                continue
            seen.add(key)
            row, swapped = _TABLE[key]
            # operands in the row's order
            (a, u), (b, v) = ((b, y), (a, x)) if swapped else ((a, x), (b, y))
            want = {_piece_token(p) for p in row.forward(a, b)}
            assert set(row.tokens(u, v)) == want == got, (row.name, x, fx, y, fy)
    assert seen == set(_TABLE)


def _parity_holds(tok, parity):
    """The parity invariant at a level of this parity: a Q token's exponent
    has the level's parity, and T and P tokens occur only at even levels."""
    return tok[1] % 2 == parity if tok[0] == "Q" else parity == 0


def test_parity_invariant_is_inductive():
    # The paper's even-n theorem for non-trapezoids, by induction over the
    # token column on abstract states (level parity, token), every op and
    # edge flag; exponents 1..4 cover both j = m (a tie to T) and j != m.
    assert all(_parity_holds(tok, 1) for tok in LEAF_TOKENS)
    states = [
        (p, tok)
        for p in (0, 1)
        for tok in [("Q", j) for j in range(1, 5)] + [T_TOKEN, P_TOKEN]
        if _parity_holds(tok, p)
    ]
    out = set()
    for (p1, x), (p2, y) in itertools.product(states, states):
        for op, fx, fy in itertools.product(Op, (False, True), (False, True)):
            for z in glue_tokens(frozenset({x}), fx, frozenset({y}), fy, op):
                assert _parity_holds(z, (p1 + p2) % 2), (p1, x, fx, op, p2, y, fy, z)
                out.add(z)
    # both parities and every kind are reached, so the check is not vacuous;
    # an even level never holds Q^1, the exponent of the class itself
    assert {("Q", 1), ("Q", 2), T_TOKEN, P_TOKEN} <= out
