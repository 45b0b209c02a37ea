"""Tests for concrete cut placement and the named constructions."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from gcdissect import (
    Construction,
    GenericQuad,
    Op,
    Parallelogram,
    Trapezoid,
    UnrealizableError,
    canonicalize,
    classify_quadrangle,
    dissect_even_general,
    dissect_odd,
    dissect_por5,
    dissect_trapezoid,
    dissect_trapezoid_selfaffine,
    flip,
    flip_factor,
    realize_tree,
    search_self_affine,
    standard_placement,
    verify_plan,
)
from gcdissect.affine_types import lerp
from gcdissect.composition import decompose, singleton
from gcdissect.treesearch import LEAF, Node, canonical

Q_GENERIC = GenericQuad(F(1, 5), F(1, 2))
Q_KITE = GenericQuad(F(1, 2), F(2, 3))


def _classes_match(lq):
    return classify_quadrangle(lq.points, 0).cls == canonicalize(lq.cls)


# ----------------------------------------------------------- single cuts


def test_cut_generic_dot():
    """Q(1/20, 5/16) splits into Q(1/5, 1/2) . Q(1/4, 5/8)."""
    parent = standard_placement(GenericQuad(F(1, 20), F(5, 16)))
    left, right, cut = decompose(
        singleton(GenericQuad(F(1, 5), F(1, 2))),
        False,
        singleton(GenericQuad(F(1, 4), F(5, 8))),
        False,
        Op.DOT,
        parent,
    )
    assert (cut.start_side, cut.end_side) == (0, 2)
    assert cut.start == lerp(parent.a, parent.b, F(16, 19)) == (F(4, 5), 0)
    assert cut.end == lerp(parent.d, parent.c, F(8, 11)) == (F(1, 2), F(42, 95))
    assert left.cls == GenericQuad(F(1, 5), F(1, 2))
    assert right.cls == GenericQuad(F(1, 4), F(5, 8))
    assert _classes_match(left) and _classes_match(right)


def test_cut_trapezoid_pair():
    parent = standard_placement(Trapezoid(F(1, 100)))
    t = singleton(Trapezoid(F(1, 10)))
    left, right, cut = decompose(t, False, t, False, Op.DOT, parent)
    assert (cut.start_side, cut.end_side) == (0, 2)
    assert cut.start == lerp(parent.a, parent.b, F(10, 11)) == (F(9, 10), 0)
    assert cut.end == lerp(parent.d, parent.c, F(10, 11)) == (F(9, 10), F(1, 10))
    assert _classes_match(left) and _classes_match(right)


def test_cut_flagged_trapezoid_pair():
    # both mirror copies of T(1/10) fill T(1/2); lambda is forced here and
    # puts the leg cut at 95/99 of the way from a to d
    parent = standard_placement(Trapezoid(F(1, 2)))
    t = singleton(Trapezoid(F(1, 10)))
    left, right, cut = decompose(t, True, t, True, Op.DOT, parent)
    assert (cut.start_side, cut.end_side) == (3, 1)
    assert cut.start == lerp(parent.a, parent.d, F(95, 99)) == (0, F(95, 99))
    assert left.cls == right.cls == Trapezoid(F(1, 10))
    assert _classes_match(left) and _classes_match(right)


def test_cut_rejects_wrong_parent():
    parent = standard_placement(Trapezoid(F(1, 3)))
    with pytest.raises(UnrealizableError):
        t = singleton(Trapezoid(F(1, 10)))
        decompose(t, False, t, False, Op.DOT, parent)


# ------------------------------------------------------------ cut trees


def test_realize_tree_pair():
    pair = Node(Op.COLON, LEAF, False, LEAF, False)
    plan = realize_tree(pair, Q_GENERIC, root=Trapezoid(F(1, 10)))
    assert len(plan.tiles) == 2
    assert plan.gc
    assert verify_plan(plan, 0, expected=Q_GENERIC).ok


def test_realize_tree_rejects_impossible_root():
    pair = Node(Op.DOT, LEAF, False, LEAF, False)
    with pytest.raises(UnrealizableError):
        realize_tree(pair, Q_GENERIC, root=Trapezoid(F(1, 3)))


# ------------------------------------------------------- trapezoid hosts


def test_trapezoid_two_copies_exact_ratio():
    plan = dissect_trapezoid(F(1, 10), Q_GENERIC, 2)
    assert len(plan.tiles) == 2
    assert plan.root.cls == Trapezoid(F(1, 10))
    assert verify_plan(plan, 0, expected=Q_GENERIC).ok


def test_trapezoid_two_copies_wrong_ratio():
    with pytest.raises(UnrealizableError):
        dissect_trapezoid(F(1, 3), Q_GENERIC, 2)


def test_trapezoid_four_copies():
    plan = dissect_trapezoid(F(1, 2), Q_GENERIC, 4)
    assert len(plan.tiles) == 4
    assert plan.gc
    assert verify_plan(plan, 0, expected=Q_GENERIC).ok


def test_trapezoid_many_copies():
    for k in (6, 8):
        plan = dissect_trapezoid(F(1, 2), Q_GENERIC, k)
        assert len(plan.tiles) == k
        assert verify_plan(plan, 0, expected=Q_GENERIC).ok


def test_trapezoid_ratio_below_bound():
    with pytest.raises(UnrealizableError):
        dissect_trapezoid(F(1, 100), Q_GENERIC, 4)


def test_trapezoid_rejects_odd_count():
    with pytest.raises(UnrealizableError):
        dissect_trapezoid(F(1, 2), Q_GENERIC, 3)


# ------------------------------------------------------------ odd counts


@pytest.mark.parametrize("n", [5, 7, 9])
def test_odd_generic(n):
    plan = dissect_odd(Q_GENERIC, n)
    assert len(plan.tiles) == n
    assert plan.gc
    assert verify_plan(plan, 0, expected=Q_GENERIC).ok


def test_odd_generic_root_in_flip_orbit():
    plan = dissect_odd(Q_GENERIC, 5)
    assert plan.root.cls in (Q_GENERIC, flip(Q_GENERIC))


@pytest.mark.parametrize("n", [7, 9])
def test_odd_kite(n):
    plan = dissect_odd(Q_KITE, n)
    assert len(plan.tiles) == n
    assert verify_plan(plan, 0, expected=Q_KITE).ok


@pytest.mark.parametrize(
    "cls, n",
    [
        (Q_GENERIC, 5),
        (GenericQuad(F(2, 7), F(5, 9)), 5),
        (Q_GENERIC, 7),
        (GenericQuad(F(3, 4), F(4, 5)), 7),
    ],
    ids=["generic-5", "generic-b-5", "generic-7", "kite-7"],
)
def test_odd_construction_tree_is_a_search_hit(cls, n):
    # The construction's tree carries copies of rep, the member of the flip
    # orbit with flip factor below 1 (a kite is its own flip).
    rep = cls if flip_factor(cls) < 1 else flip(cls)
    tree = dissect_odd(cls, n).tree
    assert canonical(tree).key in {h.tree.key for h in search_self_affine(rep, n)}


def test_odd_kite_five_refused():
    with pytest.raises(UnrealizableError, match="kite"):
        dissect_odd(Q_KITE, 5)


def test_odd_rejects_bad_counts():
    with pytest.raises(UnrealizableError):
        dissect_odd(Q_GENERIC, 6)
    with pytest.raises(UnrealizableError):
        dissect_odd(Q_GENERIC, 3)


# ------------------------------------------------------------------ fans


@pytest.mark.parametrize("n", range(2, 9))
def test_fan_trapezoid(n):
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(1, 2)), n)
    assert len(plan.tiles) == n
    assert plan.gc
    assert all(t.cls == Trapezoid(F(1, 2)) for t in plan.tiles)
    assert verify_plan(plan, 0).ok


def test_fan_wide_trapezoid():
    plan = dissect_trapezoid_selfaffine(Trapezoid(F(9, 10)), 2)
    assert verify_plan(plan, 0).ok


def test_fan_parallelogram():
    plan = dissect_trapezoid_selfaffine(Parallelogram(), 4)
    assert len(plan.tiles) == 4
    assert verify_plan(plan, 0).ok


def test_fan_rejects_one_tile():
    with pytest.raises(UnrealizableError):
        dissect_trapezoid_selfaffine(Trapezoid(F(1, 2)), 1)


# ----------------------------------------------------- five-tile generic


@pytest.mark.parametrize("cls", [Q_GENERIC, Q_KITE])
def test_por5(cls):
    plan = dissect_por5(cls)
    assert len(plan.tiles) == 5
    assert not plan.gc
    assert verify_plan(plan, 0, expected=cls).ok


# ------------------------------------------------------ even counts >= 6


@pytest.mark.parametrize("n", [6, 8])
def test_even_general(n):
    plan = dissect_even_general(Q_GENERIC, n)
    assert len(plan.tiles) == n
    assert not plan.gc
    assert plan.tree == Construction("even_general", (("n", n),))
    assert len(plan.pinned) == 1
    assert verify_plan(plan, 0, expected=Q_GENERIC).ok


def test_even_general_rejects_four():
    with pytest.raises(UnrealizableError):
        dissect_even_general(Q_GENERIC, 4)
    with pytest.raises(UnrealizableError):
        dissect_even_general(Q_GENERIC, 5)


# ------------------------------------------------------------- walk order


def _pt(p):
    return f"{p[0]},{p[1]}"


# Tiles, cuts (start, end, sides) and pinned ratios in the order the
# pre-order walk (left subtree before right) emits them.
WALK_ORDER = {
    "odd-7": (
        lambda: dissect_odd(Q_GENERIC, 7),
        [
            "0,0 3/4,0 3/8,15/32 0,3/4",
            "1/2,3/8 7/18,11/24 257/444,161/666 1061/1332,23/5328",
            "257/444,161/666 7/18,11/24 3/8,15/32 539/1332,575/1332",
            "3/4,0 313/396,0 981/1628,575/2664 539/1332,575/1332",
            "981/1628,575/2664 313/396,0 35/44,0 11149/14652,115/2664",
            "35/44,0 1583/1980,0 1271/1628,115/5328 11149/14652,115/2664",
            "1271/1628,115/5328 1583/1980,0 4/5,0 1061/1332,23/5328",
        ],
        [
            "3/4,0 3/8,15/32 0 2",
            "539/1332,575/1332 1061/1332,23/5328 3 1",
            "7/18,11/24 257/444,161/666 0 2",
            "35/44,0 11149/14652,115/2664 0 2",
            "313/396,0 981/1628,575/2664 0 2",
            "1583/1980,0 1271/1628,115/5328 0 2",
        ],
        (),
    ),
    "fan-T-4": (
        lambda: dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 4),
        [
            "0,0 2/3,0 2/3,1/12 0,1/4",
            "0,1/4 2/3,1/12 2/3,1/6 0,1/2",
            "0,1/2 2/3,1/6 2/3,1/4 0,3/4",
            "0,3/4 2/3,1/4 2/3,1/3 0,1",
        ],
        ["0,1/4 2/3,1/12 3 1", "0,1/2 2/3,1/6 3 1", "0,3/4 2/3,1/4 3 1"],
        (3, 2, 1),
    ),
    # The root is T^F . T^F over two ratio intervals that both hold 1/5:
    # the inverse picks 1/5 twice, so that cut is free and takes a pinned ratio.
    "mirror-intervals-5": (
        lambda: _realize_hit(Trapezoid(F(1, 5)), 5, "((LF.LF)F.(LF.(L.L)F)F)"),
        [
            "0,0 4/5,0 4/5,1/20 0,1/4",
            "0,1/4 4/5,1/20 4/5,1/10 0,1/2",
            "4/5,1/5 0,1 0,61/62 4/5,37/310",
            "0,1/2 2/3,1/6 2/3,49/186 0,61/62",
            "2/3,1/6 4/5,1/10 4/5,37/310 2/3,49/186",
        ],
        [
            "0,1/2 4/5,1/10 3 1",
            "0,1/4 4/5,1/20 3 1",
            "0,61/62 4/5,37/310 3 1",
            "2/3,1/6 2/3,49/186 0 2",
        ],
        (1, 1),
    ),
}


def _realize_hit(leaf, n, key):
    (hit,) = [h for h in search_self_affine(leaf, n) if h.tree.key == key]
    return realize_tree(hit.tree, leaf, root=leaf, tol=0)


@pytest.mark.parametrize("name", WALK_ORDER)
def test_realize_tree_walk_order_is_pinned(name):
    make, tiles, cuts, pinned = WALK_ORDER[name]
    plan = make()
    assert [" ".join(map(_pt, t.points)) for t in plan.tiles] == tiles
    assert [
        f"{_pt(c.start)} {_pt(c.end)} {c.start_side} {c.end_side}" for c in plan.cuts
    ] == cuts
    assert plan.pinned == pinned


@pytest.mark.parametrize(
    "leaf, n, count",
    [
        (Q_GENERIC, 5, 6),
        (Trapezoid(F(1, 3)), 4, 9),
        (Parallelogram(), 4, 2),
        (GenericQuad(F(3, 4), F(4, 5)), 7, 108),
    ],
    ids=["generic-5", "trapezoid-4", "parallelogram-4", "kite-7"],
)
def test_every_exact_search_hit_realizes_and_verifies(leaf, n, count):
    hits = search_self_affine(leaf, n)
    assert len(hits) == count
    for h in hits:
        plan = realize_tree(h.tree, leaf, root=h.witness, tol=0)
        assert plan.gc and len(plan.tiles) == n
        assert verify_plan(plan, 0, expected=leaf).ok, h.tree.key


def test_open_end_hits_at_positive_tol_raise_unrealizable():
    # At tol 1/10**9 the search also reports six trees that reach the class
    # only at an open span end, where the inverse would pick ratio 1.
    # Whether they are hits at all is open; realizing one raises the
    # documented error, not the class constructors' ValueError.
    tol = F(1, 10**9)
    exact = {h.tree.key for h in search_self_affine(Q_GENERIC, 5)}
    extra = [h for h in search_self_affine(Q_GENERIC, 5, tol) if h.tree.key not in exact]
    assert len(extra) == 6
    for h in extra:
        with pytest.raises(UnrealizableError):
            realize_tree(h.tree, Q_GENERIC, root=h.witness, tol=tol)
