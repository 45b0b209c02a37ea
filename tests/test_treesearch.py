"""Tree enumeration, evaluation, parity, and the self-affinity search."""

from __future__ import annotations

import itertools
import logging
import math
import random
from fractions import Fraction

import pytest

from gcdissect import (
    FamilyId,
    GenericQuad,
    LEAF,
    Node,
    Op,
    Parallelogram,
    SearchCapError,
    Trapezoid,
    affine_quotient,
    canonicalize,
    count_trees,
    enumerate_trees,
    evaluate,
    family_beta,
    flip,
    member,
    quotient_exponents,
    reachable_exponents,
    search_self_affine,
)
from gcdissect import composition, treesearch
from gcdissect.composition import compose_sets, glue_partners, holds, partner_targets, singleton
from gcdissect.treesearch import _expand, _ordered, _pairs, _with_flags, canonical
from test_composition import class_set

F = Fraction

# counts confirmed by the brute enumeration below at small n
KNOWN_COUNTS = {1: 1, 2: 6, 3: 48, 4: 540, 5: 6624, 6: 88224, 7: 1231104}


def brute_trees(n):
    """Every tree with n leaves, no canonical normalization at all."""
    if n == 1:
        yield LEAF
        return
    for k in range(1, n):
        for left, right in itertools.product(brute_trees(k), brute_trees(n - k)):
            for op in (Op.DOT, Op.COLON):
                for fl in (False, True):
                    for fr in (False, True):
                        yield Node(op, left, fl, right, fr)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_count_matches_brute_enumeration(n):
    distinct = {canonical(t).key for t in brute_trees(n)}
    assert len(distinct) == count_trees(n) == KNOWN_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_count_closed_form(n):
    assert count_trees(n) == KNOWN_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_is_canonical_and_complete(n):
    seen = []
    for t in enumerate_trees(n):
        assert canonical(t).key == t.key
        seen.append(t.key)
    assert len(seen) == len(set(seen)) == count_trees(n)


def test_enumeration_deterministic_order():
    first = [t.key for t in enumerate_trees(4)]
    second = [t.key for t in enumerate_trees(4)]
    assert first == second


def test_cap_refusal(monkeypatch):
    monkeypatch.setenv("GCDISSECT_SEARCH_CAP", "3")
    with pytest.raises(SearchCapError):
        list(enumerate_trees(4))
    with pytest.raises(SearchCapError):
        reachable_exponents(4)
    monkeypatch.setenv("GCDISSECT_SEARCH_CAP", "nope")
    with pytest.raises(SearchCapError):
        list(enumerate_trees(2))


def test_evaluate_chain_example():
    # (L:L).L on Q(1/5,1/2): the pair glues to T(1/10), then scales the leaf
    t = Node(Op.DOT, Node(Op.COLON, LEAF, False, LEAF, False), False, LEAF, False)
    s = evaluate(t, GenericQuad(F(1, 5), F(1, 2)))
    assert s.q_points == (GenericQuad(F(1, 50), F(1, 20)),)


def test_evaluate_three_leaf_factor():
    # ((L:L).L)^F : (L.L)^F at a generic rational point
    q = GenericQuad(F(1, 5), F(1, 2))
    pair = Node(Op.DOT, LEAF, False, LEAF, False)
    t = Node(Op.DOT, Node(Op.COLON, LEAF, False, LEAF, False), False, LEAF, False)
    s = evaluate(t, q)
    a, b = q.alpha, q.beta
    assert s.q_points[0] == GenericQuad(a * a * b, a * b * b)
    s2 = evaluate(pair, q)
    assert s2.q_points[0] == GenericQuad(a * a, b * b)


def test_evaluate_empty_is_legal():
    # Q over P has no glueing, so a tree forcing it evaluates to nothing
    t = Node(Op.DOT, LEAF, True, LEAF, False)
    s = evaluate(t, Parallelogram())
    assert not s


def test_evaluate_cache_shared():
    q = GenericQuad(F(1, 5), F(1, 2))
    cache = {}
    pair = Node(Op.DOT, LEAF, False, LEAF, False)
    evaluate(pair, q, cache)
    n1 = len(cache)
    evaluate(Node(Op.DOT, pair, False, LEAF, False), q, cache)
    assert len(cache) > n1
    assert evaluate(pair, q, cache).q_points == (GenericQuad(F(1, 25), F(1, 4)),)


def test_quotient_exponents_fixed():
    assert quotient_exponents(LEAF) == {1}
    t = Node(Op.DOT, Node(Op.COLON, LEAF, False, LEAF, False), False, LEAF, False)
    assert quotient_exponents(t) == {1}
    for t2 in enumerate_trees(2):
        assert quotient_exponents(t2) <= {0, 2}


@pytest.mark.parametrize("n", range(1, 7))
def test_reachable_exponents_match_every_tree(n):
    assert reachable_exponents(n) == frozenset().union(
        *(quotient_exponents(t) for t in enumerate_trees(n))
    )


def test_reachable_exponents_past_enumeration():
    assert reachable_exponents(7) == {1, 3, 5, 7}
    assert reachable_exponents(8) == {0, 2, 4, 6, 8}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exponents_match_evaluated_quotients(n):
    q = GenericQuad(F(2, 7), F(3, 5))
    base = affine_quotient(q)
    for t in enumerate_trees(n):
        ks = quotient_exponents(t)
        s = evaluate(t, q)
        for point in s.q_points:
            r = affine_quotient(point)
            assert any(r == base**k for k in ks)
        for curve in s.q_curves:
            assert any(curve.quotient == base**k for k in ks)


def test_search_trapezoid_n2():
    # only the between-parallel-sides split reproduces T(gamma); the apex
    # split shrinks the ratio to gamma squared
    hits = search_self_affine(Trapezoid(F(1, 2)), 2)
    assert {h.tree.key for h in hits} == {"(LF.LF)"}
    for h in hits:
        assert member(h.root_set, h.witness, 0)


def test_search_parallelogram_n3():
    hits = search_self_affine(Parallelogram(), 3)
    assert hits
    for h in hits:
        assert h.witness == Parallelogram()


def test_search_generic_n2_empty():
    assert search_self_affine(GenericQuad(F(1, 5), F(1, 2)), 2) == []


def test_search_kite_n5_empty():
    assert search_self_affine(GenericQuad(F(1, 2), F(2, 3)), 5) == []


def test_search_family_float_n3():
    beta = 2 * (2**0.5 - 1)
    hits = search_self_affine(GenericQuad(0.5, beta), 3, tol=1e-9)
    assert hits


def test_search_accepts_flip_witness():
    q = GenericQuad(F(1, 5), F(1, 2))
    for n in (5, 7):
        hits = search_self_affine(q, n)
        assert hits
        for h in hits:
            assert canonicalize(h.witness) == canonicalize(q)


def _reference_hits(leaf, n, tol):
    """The per-tree search: evaluate every canonical tree, test its root."""
    targets = [leaf]
    if isinstance(leaf, GenericQuad) and flip(leaf) != leaf:
        targets.append(flip(leaf))
    cache = {}
    pairs = []
    for t in enumerate_trees(n):
        root = evaluate(t, leaf, cache)
        target = next((c for c in targets if member(root, c, tol)), None)
        if target is not None:
            pairs.append((t.key, repr(target)))
    return sorted(pairs)


# At tol 1 every root set with a generic member matches the kite, so most
# trees are hits, among them those whose subtrees pair a set holding several
# trees with itself (no hit at tol 0 with five leaves or fewer does that).
@pytest.mark.parametrize(
    "leaf, tol",
    [
        (GenericQuad(F(1, 5), F(1, 2)), 0),
        (GenericQuad(F(1, 2), F(2, 3)), 0),
        (Trapezoid(F(1, 3)), 0),
        (Parallelogram(), 0),
        (GenericQuad(0.5, 2 * (2**0.5 - 1)), 1e-9),
        (GenericQuad(F(1, 2), F(2, 3)), 1),
    ],
    ids=["generic", "kite", "trapezoid", "parallelogram", "family-II", "kite-tol-1"],
)
def test_search_matches_per_tree_reference(leaf, tol):
    for n in range(1, 6):
        hits = search_self_affine(leaf, n, tol=tol)
        for h in hits:
            assert canonical(h.tree).key == h.tree.key
        got = sorted((h.tree.key, repr(h.witness)) for h in hits)
        assert got == _reference_hits(leaf, n, tol), n


def _expand_each_pair(levels, k, s):
    """_expand with every node put in order by _ordered, equal splits or not."""
    if k == 1:
        return [LEAF]
    out = []
    for op, k1, s1, f1, s2, f2 in levels[k][s]:
        lefts, rights = _expand_each_pair(levels, k1, s1), _expand_each_pair(levels, k - k1, s2)
        for t1, t2 in _pairs(lefts, rights, (k1, s1, f1) == (k - k1, s2, f2)):
            out.append(_ordered(op, t1, f1, t2, f2))
    return out


def test_expand_orders_trees_as_ordering_every_node_does():
    # _expand orders only the nodes of equal splits; on made-up levels of
    # two sets each, with three random back-pointers per set (at k = 6 one
    # pairs a 3-leaf set with itself), its trees and their order are those
    # of ordering every node.
    rng = random.Random(5)
    levels = [{}, {"1a": []}]
    for k in range(2, 8):
        levels.append({
            f"{k}{name}": [
                (rng.choice(list(Op)), k1, rng.choice(list(levels[k1])), rng.random() < 0.5,
                 rng.choice(list(levels[k - k1])), rng.random() < 0.5)
                for k1 in [rng.randint(1, k // 2) for _ in range(3)]
            ]
            for name in "ab"
        })
    for k in range(2, 8):
        for s in levels[k]:
            got = _expand(levels, k, s)
            assert [t.key for t in got] == [t.key for t in _expand_each_pair(levels, k, s)]
            assert all(canonical(t).key == t.key for t in got)


# ---------------------------------------------------------------------------
# the last-level check against the unfiltered level loop


def _unfiltered_hits(leaf, n, tol):
    """The level-wise search with every pair composed at every level."""
    targets = [leaf]
    if isinstance(leaf, GenericQuad) and flip(leaf) != leaf:
        targets.append(flip(leaf))
    levels = [{}, {singleton(leaf): []}]
    for k in range(2, n + 1):
        level = {}
        for op in (Op.DOT, Op.COLON):
            for k1 in range(1, k // 2 + 1):
                lower, upper = _with_flags(levels[k1]), _with_flags(levels[k - k1])
                for (s1, f1), (s2, f2) in _pairs(lower, upper, 2 * k1 == k):
                    root = compose_sets(s1, f1, s2, f2, op)
                    if root:
                        level.setdefault(root, []).append((op, k1, s1, f1, s2, f2))
        levels.append(level)
    hits = []
    for root in levels[n]:
        for target in targets:
            if member(root, target, tol):
                hits.extend((t.key, root, target) for t in _expand(levels, n, root))
                break
    return hits


def _criterion_3_classes(count):
    rng = random.Random(303)
    out = []
    while len(out) < count:
        d1, d2 = rng.randint(3, 9), rng.randint(3, 9)
        a, b = F(rng.randint(1, d1 - 1), d1), F(rng.randint(1, d2 - 1), d2)
        if a < b:
            out.append(GenericQuad(a, b))
    return out


# The kite at n = 7 (108 hits) pairs sets of odd sizes the n <= 6 cases do not.
# The generic class at n = 7 (441 hits) is the generic case whose pruned level
# n - 1 keeps hits (at n = 6 it has none, by parity).  Q(2/5,1/2) at n = 5
# has hits through level 4 sets holding only the flip of a partner target.
# Near-unit float quotients: q^j and q^k at j != k lie within the colon's float
# tie band, but pieces of one leaf tie by exponent, as tokens do, so q = 1 -
# 2e-13 has no hit at even n.  At q = 1 - 3e-12 and n = 6, flipping a short
# curve's betas rounds its two ends past each other.  The family III and IV
# points take an exact alpha and a float beta, as the decide workload's do.
@pytest.mark.parametrize(
    "leaf, tol, top",
    [
        (GenericQuad(F(1, 5), F(1, 2)), 0, 7),
        (Trapezoid(F(1, 3)), 0, 6),
        (Parallelogram(), 0, 6),
        (GenericQuad(F(1, 2), F(2, 3)), 1, 6),
        (GenericQuad(F(1, 2), F(2, 3)), F(1, 10), 6),
        (GenericQuad(0.5, 2 * (2**0.5 - 1)), 1e-9, 6),
        (GenericQuad(F(1, 2), family_beta(FamilyId.III, F(1, 2))), 1e-9, 5),
        (GenericQuad(F(1, 2), family_beta(FamilyId.IV, F(1, 2))), 1e-9, 5),
        (GenericQuad(0.3, 0.35), 0.4, 6),
        *((cls, 0, 6) for cls in _criterion_3_classes(3)),
        (GenericQuad(F(3, 4), F(4, 5)), 0, 7),
        (GenericQuad(F(2, 5), F(1, 2)), 0, 5),
        (GenericQuad(0.5, 0.5 + 1e-13), 0, 6),
        (GenericQuad(0.5, 0.5 + 1e-13), 1e-9, 5),
        (GenericQuad(0.3, 0.3 + 1e-12), 0, 6),
        (GenericQuad(0.3, 0.3 + 1e-12), 1e-9, 6),
    ],
    ids=[
        "generic", "trapezoid", "parallelogram", "kite-tol-1", "kite-tol-1/10",
        "family-II", "family-III", "family-IV", "float-tol-above-beta",
        "crit3-a", "crit3-b", "crit3-c", "kite-n7", "flipped-partner",
        "near-unit-13", "near-unit-13-tol", "near-unit-12", "near-unit-12-tol",
    ],
)
def test_search_matches_unfiltered_level_loop(leaf, tol, top):
    for n in range(1, top + 1):
        got = [(h.tree.key, h.root_set, h.witness) for h in search_self_affine(leaf, n, tol)]
        assert got == _unfiltered_hits(leaf, n, tol), n


# A float leaf's pieces are powers of its quotient, tied by exponent, so its
# hits are those of the same two numbers as Fractions, also near q = 1, where
# the colon's float tie band would tie unequal exponents.
@pytest.mark.parametrize(
    "leaf, tol, ns",
    [
        (GenericQuad(0.5, 0.5 + 1e-13), 0, range(1, 7)),
        (GenericQuad(0.5, 0.5 + 1e-13), 1e-9, [5]),
        (GenericQuad(0.3, 0.3 + 1e-12), 0, range(1, 7)),
        *((GenericQuad(F(1, 2), family_beta(fam, F(1, 2))), 1e-9, [5])
          for fam in (FamilyId.II, FamilyId.III, FamilyId.IV)),
    ],
    ids=["near-unit-13", "near-unit-13-tol", "near-unit-12", "family-II", "family-III",
         "family-IV"],
)
def test_float_hits_match_their_fraction_values(leaf, tol, ns):
    exact = GenericQuad(F(leaf.alpha), F(leaf.beta))
    for n in ns:
        got = {h.tree.key for h in search_self_affine(leaf, n, tol)}
        assert got == {h.tree.key for h in search_self_affine(exact, n, tol)}, n


# The small sets of these classes exercise every row, point and span pieces,
# positive tolerances and float quotients within 1e-12 of each other.
GLUE_CASES = pytest.mark.parametrize(
    "leaf, tol",
    [
        (GenericQuad(F(1, 5), F(1, 2)), 0),
        (GenericQuad(F(3, 4), F(4, 5)), 0),
        (Trapezoid(F(1, 3)), 0),
        (Parallelogram(), 0),
        (GenericQuad(F(3, 4), F(4, 5)), F(1, 10)),
        (GenericQuad(F(3, 4), F(4, 5)), 1),
        (GenericQuad(0.5, 2 * (2**0.5 - 1)), 1e-9),
        (GenericQuad(0.3, 0.3 + 1e-12), 0),
        (GenericQuad(0.3, 0.3 + 1e-12), 1e-9),
    ],
    ids=[
        "generic", "kite", "trapezoid", "parallelogram", "kite-tol-1/10", "kite-tol-1",
        "family-II", "near-unit-12", "near-unit-12-tol",
    ],
)


def _small_sets(leaf):
    """The non-empty root sets of up to four leaves, per leaf count, and the
    targets (the class and its flip)."""
    cache = {}
    levels = {
        k: [s for s in dict.fromkeys(evaluate(t, leaf, cache) for t in enumerate_trees(k)) if s]
        for k in range(1, 5)
    }
    targets = list(dict.fromkeys([leaf, flip(leaf)] if isinstance(leaf, GenericQuad) else [leaf]))
    return levels, targets


def _views(s):
    return s.q_points, s.t_points, s.t_intervals, s.q_curves, s.has_p


@GLUE_CASES
def test_views_rebuild_each_set(leaf, tol):
    # A set read as classes and built again from them has the same views in
    # the same order, and holds the classes it lists.  It is the same set
    # when exact; a float Q point's quotient, rebuilt as alpha/beta, may
    # differ from the glued one by an ulp.
    levels, _ = _small_sets(leaf)
    exact = not isinstance(getattr(leaf, "alpha", 0), float)
    for s in (s for sets in levels.values() for s in sets):
        rebuilt = class_set(*_views(s))
        assert _views(rebuilt) == _views(s) and (rebuilt == s or not exact), s
        assert all(member(s, c) for c in s.members()), s


def test_float_points_hold_themselves():
    # A point's piece keeps alpha/beta as its quotient, and for some floats
    # (the first class here is one) quotient * beta misses alpha by an ulp:
    # each class must still be a member of its own set and its one-leaf hit.
    rng = random.Random(22)
    classes = [GenericQuad(0.35164240903012256, 0.5266704452974954)]
    while len(classes) < 2000:
        a, b = sorted((rng.random(), rng.random()))
        if 0 < a < b < 1:
            classes.append(GenericQuad(a, b))
    for c in classes:
        assert member(singleton(c), c, 0), c
        assert [h.witness for h in search_self_affine(c, 1)] == [c], c


@GLUE_CASES
def test_glue_holds_matches_member_of_composed_set(leaf, tol):
    # The last two levels' test of a built set (composition.holds) against
    # member for a class and _meets for a window, over the sets glued from
    # the non-empty sets of up to four leaves, every ordered pair of at most
    # six leaves (every pair would take about half a minute), both ops, all
    # flags; the windows are the level n - 1 ones of a generic leaf.
    levels, targets = _small_sets(leaf)
    generic = isinstance(leaf, GenericQuad)
    windows = partner_targets(leaf, range(1, 5), targets, tol) if generic else []
    for k1, k2 in itertools.product(levels, levels):
        if k1 + k2 > 6:
            continue
        for a, b in itertools.product(levels[k1], levels[k2]):
            for op, f1, f2 in itertools.product(Op, (False, True), (False, True)):
                root = compose_sets(a, f1, b, f2, op)
                for target in targets:
                    assert holds(root, [target], tol) == member(root, target, tol), root
                for w in windows:
                    want = any(composition._meets(p, w, tol) for p in root.pieces)
                    assert holds(root, [w], tol) == want, (root, w)
                assert holds(root, targets, tol) == any(member(root, c, tol) for c in targets)


@GLUE_CASES
def test_glue_partners_hold_every_pair_glue_holds_accepts(leaf, tol):
    # The last level's lookup may return extra candidates but must miss no
    # pair whose glued set holds the target, over the same pairs as above.
    levels, targets = _small_sets(leaf)
    for k1, k2 in itertools.product(levels, levels):
        if k1 + k2 > 6:
            continue
        rights = [(j, b, f2) for j, (b, f2) in enumerate(_with_flags(levels[k2]))]
        for target in targets:
            partners = glue_partners(rights, [target], tol)
            for a, f1, op in itertools.product(levels[k1], (False, True), Op):
                candidates = partners(a, f1, op)
                for j, b, f2 in rights:
                    if j not in candidates:
                        root = compose_sets(a, f1, b, f2, op)
                        assert not member(root, target, tol), (a, f1, b, f2, op)


def test_last_level_composes_few_pairs(monkeypatch):
    # An empty exact search marks no move, so it glues no pair of sets at all
    # and solves no level n - 1 targets.
    calls, inverses, row_pairs = [], [], []

    def counting(*args):
        calls.append(args)
        return compose_sets(*args)

    def counting_inverse(*args):
        inverses.append(args)
        return inverse(*args)

    def counting_row_pairs(*args):
        for pair in pairs_of(*args):
            row_pairs.append(pair)
            yield pair

    inverse, pairs_of = composition._inverse, composition._row_pairs
    monkeypatch.setattr(treesearch, "compose_sets", counting)
    monkeypatch.setattr(composition, "_inverse", counting_inverse)
    monkeypatch.setattr(composition, "_row_pairs", counting_row_pairs)
    for n in (6, 8):
        assert search_self_affine(GenericQuad(F(1, 5), F(1, 2)), n) == []
        assert calls == [] and inverses == [] and row_pairs == [], n
    # With hits, levels 2 and 3 glue 6 + 30 pairs.  Level 4 composes the 6
    # of its 171 marked pairs that the lookup finds and keeps the 5 sets
    # holding T(4/5), the one window through which the leaf glues to the
    # class or its flip; the last level composes the 10 of its 310 marked
    # pairs that the lookup finds and keeps the 5 that hold the class.  The
    # row piece pairs visited are those of the windows' solve and of each
    # compose_sets call.
    assert len(search_self_affine(GenericQuad(F(1, 5), F(1, 2)), 5)) == 6
    assert len(calls) == 36 + 6 + 10
    assert len(row_pairs) == 62


# Exact leaves at tol 0, where the windows are points, and the float and
# positive-tol cases of the search's reference test.
@pytest.mark.parametrize(
    "leaf, tol",
    [
        (GenericQuad(F(1, 5), F(1, 2)), 0),
        (GenericQuad(F(3, 4), F(4, 5)), 0),
        (GenericQuad(F(2, 5), F(1, 2)), 0),
        (GenericQuad(0.5, 2 * (2**0.5 - 1)), 1e-9),
        (GenericQuad(0.3, 0.3 + 1e-12), 1e-9),
        (GenericQuad(F(3, 4), F(4, 5)), F(1, 10)),
        (GenericQuad(0.3, 0.35), 0.4),
    ],
    ids=["generic", "kite", "flipped-partner", "family-II", "near-unit-12-tol", "kite-tol-1/10",
         "float-tol-above-beta"],
)
def test_partner_targets_are_held_by_every_set_the_leaf_glues_to_the_class(leaf, tol):
    # Level n - 1 keeps only the sets with a piece meeting a partner window:
    # every set of up to four leaves that the leaf glues to the class within
    # tol (either op, any flags) must have one, and Q(1/5,1/2) has the one
    # window, the point T(4/5).
    levels, targets = _small_sets(leaf)
    windows = partner_targets(leaf, range(1, 5), targets, tol)
    for s in (s for sets in levels.values() for s in sets):
        for op, f1, f2 in itertools.product(Op, (False, True), (False, True)):
            root = compose_sets(singleton(leaf), f1, s, f2, op)
            if any(member(root, c, tol) for c in targets):
                assert any(composition._meets(p, w, tol) for p in s.pieces for w in windows), (
                    s, f1, f2, op)
    assert all(0 <= w.lo <= w.hi <= 1 for _, _, w in windows)
    if leaf == GenericQuad(F(1, 5), F(1, 2)):
        assert windows == [("T", 1, composition.Span(F(4, 5), True, F(4, 5), True))]


def test_float_windows_are_widened_for_roundoff():
    # The Q . T row glues the leaf's beta x and a trapezoid ratio y to x*y, so
    # the flipped class, of beta t, needs y <= (t + tol)/x.  That bound is
    # rounded: for this family II leaf the next float above it still glues to
    # the flip within tol, so its window must reach past the bound.
    leaf = GenericQuad(0.0625, family_beta(FamilyId.II, 0.0625))
    target, tol = flip(leaf), 1e-9
    x, t = leaf.beta, target.beta
    y_hi = (t + tol) / x
    y = math.nextafter(y_hi, 1)
    assert member(compose_sets(singleton(leaf), False, singleton(Trapezoid(y)), False, Op.DOT),
                  target, tol)
    piece = singleton(Trapezoid(y)).pieces[0]
    windows = partner_targets(leaf, range(1, 5), [leaf, target], tol)
    assert any(composition._meets(piece, w, tol) for w in windows)
    bare = ("T", 1, composition.Span((t - tol) / x, True, y_hi, True))
    assert not composition._meets(piece, bare, tol)


def test_partner_targets_refuse_rows_without_factor():
    # T and P leaves meet the mirror rows, whose inverse is no exact solve.
    assert partner_targets(Trapezoid(F(1, 3)), [], [Trapezoid(F(1, 3))]) is None
    assert partner_targets(Parallelogram(), [], [Parallelogram()]) is None


def test_search_certifies_n8_on_random_classes():
    for cls in _criterion_3_classes(20):
        assert search_self_affine(cls, 8) == [], cls


def _level_counts(records):
    return {r.args[0]: r.args[1:] for r in records if r.name == "gcdissect.treesearch"}


def test_search_logs_counts_per_level(caplog):
    # level: (token sets, moves, marked, distinct sets, pairs glued); at the
    # last level, and at level n - 1 of an exact search once a pair there is
    # marked, (sets kept, marked pairs, candidates tested, targets), since
    # only the candidates the lookup returns are tested, and only sets
    # holding a target (meeting a window at level n - 1) are built
    with caplog.at_level(logging.DEBUG, logger="gcdissect.treesearch"):
        assert search_self_affine(GenericQuad(F(1, 5), F(1, 2)), 4) == []
    assert _level_counts(caplog.records) == {
        2: (2, 8, 0, 0, 0),
        3: (2, 10, 0, 0, 0),
        4: (4, 30, 0, 0, 0, 0, 2),
    }
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="gcdissect.treesearch"):
        assert len(search_self_affine(GenericQuad(F(1, 5), F(1, 2)), 5)) == 6
    assert _level_counts(caplog.records) == {
        2: (2, 8, 8, 6, 6),
        3: (2, 10, 10, 20, 30),
        4: (4, 30, 22, 5, 171, 6, 1),
        5: (3, 40, 18, 5, 310, 10, 2),
    }


def test_float_family_point_filters_level_n_minus_1(monkeypatch, caplog):
    # A float leaf at tol 1e-9 filters level 4 by its partner windows too:
    # it keeps 7 of the sets it glues (114 unfiltered), and the whole search
    # composes 58 pairs for its 20 hits.
    calls = []

    def counting(*args):
        calls.append(args)
        return compose_sets(*args)

    monkeypatch.setattr(treesearch, "compose_sets", counting)
    with caplog.at_level(logging.DEBUG, logger="gcdissect.treesearch"):
        assert len(search_self_affine(GenericQuad(0.5, 2 * (2**0.5 - 1)), 5, 1e-9)) == 20
    assert _level_counts(caplog.records) == {
        2: (2, 8, 8, 6, 6),
        3: (2, 10, 10, 23, 30),
        4: (4, 30, 22, 7, 191, 8, 5),
        5: (3, 40, 18, 12, 364, 14, 2),
    }
    assert len(calls) == 58


def test_search_logger_has_no_handlers():
    search_self_affine(GenericQuad(F(1, 5), F(1, 2)), 4)
    for name in ("gcdissect", "gcdissect.treesearch"):
        logger = logging.getLogger(name)
        assert logger.handlers == [] and logger.level == logging.NOTSET


def _signature(s):
    """Sorted, duplicate-free (kind, quotient) of a set's unflagged pieces."""
    return tuple(sorted({(p.kind, p.quotient) for p in s.pieces}))


@pytest.mark.parametrize(
    "leaf",
    [
        GenericQuad(F(1, 5), F(1, 2)),
        GenericQuad(F(1, 2), F(2, 3)),
        Trapezoid(F(1, 3)),
        Parallelogram(),
        GenericQuad(0.5, 2 * (2**0.5 - 1)),
    ],
    ids=["generic", "kite", "trapezoid", "parallelogram", "family-II"],
)
def test_equal_signatures_glue_to_equal_signatures(leaf):
    # The token pass stands for concrete sets only because glueing depends on
    # the operands' (kind, quotient) pieces, not their spans. All pairs among
    # up to six sets of each signature from the levels k <= 4 (every pair of
    # those sets would take about ten seconds a leaf).
    cache = {}
    sets = dict.fromkeys(evaluate(t, leaf, cache) for k in range(1, 5) for t in enumerate_trees(k))
    by_signature = {}
    for s in sets:
        by_signature.setdefault(_signature(s), []).append(s)
    sample = [s for group in by_signature.values() for s in group[:6]]
    roots = {}
    for a, b in itertools.product(sample, sample):
        for op, f1, f2 in itertools.product(Op, (False, True), (False, True)):
            got = _signature(compose_sets(a, f1, b, f2, op))
            want = roots.setdefault((_signature(a), f1, _signature(b), f2, op), got)
            assert got == want, (a, f1, b, f2, op)


def _set_tokens(s, q, k):
    """The tokens of a concrete set's pieces, each Q quotient matched to q^e."""
    out = set()
    for p in s.pieces:
        if p.kind != "Q":
            out.add((p.kind,))
            continue
        (e,) = [e for e in range(1, k + 1) if q**e == p.quotient]
        out.add(("Q", e))
    return frozenset(out)


@pytest.mark.parametrize(
    "leaf, tol",
    [
        (GenericQuad(F(1, 5), F(1, 2)), 0),
        (GenericQuad(F(1, 2), F(2, 3)), 0),
        (Trapezoid(F(1, 3)), 0),
        (Parallelogram(), 0),
        (GenericQuad(0.5, 2 * (2**0.5 - 1)), 1e-9),
        (GenericQuad(0.5, 0.5 + 1e-13), 0),
    ],
    ids=["generic", "kite", "trapezoid", "parallelogram", "family-II", "near-unit-13"],
)
def test_marked_moves_give_each_set_one_token_id(leaf, tol):
    # The set pass gives a glued set the token id that the skeleton's
    # follow map gives the move that made it. Every marked move (one in
    # follow) that makes one concrete set gives it the same id, and that
    # id's tokens are the set's own kinds and quotients.
    targets = [leaf, flip(leaf)] if isinstance(leaf, GenericQuad) else [leaf]
    q = affine_quotient(leaf)
    shared = 0
    for n in range(2, 8):
        ids, _, follow, _ = treesearch._skeleton(leaf, n, targets, tol)
        # levels[k]: concrete set -> the ids its marked moves give it
        levels = [{}, {singleton(leaf): {0}}]
        for k in range(2, n + 1):
            level = {}
            for op, k1 in treesearch._splits(k):
                lower, upper = _with_flags(levels[k1]), _with_flags(levels[k - k1])
                for (s1, f1), (s2, f2) in _pairs(lower, upper, 2 * k1 == k):
                    (i1,), (i2,) = levels[k1][s1], levels[k - k1][s2]
                    to = follow[k].get((op, k1, i1, f1), {})
                    if (i2, f2) in to:
                        level.setdefault(compose_sets(s1, f1, s2, f2, op), []).append(to[i2, f2])
            tokens = {j: toks for toks, j in ids[k].items()}
            for root, got in level.items():
                assert set(got) == {got[0]}, (n, k, root, got)
                assert _set_tokens(root, q, k) == tokens[got[0]], (n, k, root)
                shared += len(got) > 1
            levels.append({root: {got[0]} for root, got in level.items()})
    assert shared > 0
