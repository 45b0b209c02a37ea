"""Tree enumeration, evaluation, parity, and the self-affinity search."""

from __future__ import annotations

import itertools
import logging
import random
from fractions import Fraction

import pytest

from gcdissect import (
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
    flip,
    member,
    quotient_exponents,
    search_self_affine,
)
from gcdissect import treesearch
from gcdissect.composition import compose_sets, singleton
from gcdissect.scalars import quotients_equal
from gcdissect.treesearch import _expand, _pairs, _with_flags, canonical

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


@pytest.mark.parametrize(
    "leaf, tol",
    [
        (GenericQuad(F(1, 5), F(1, 2)), 0),
        (Trapezoid(F(1, 3)), 0),
        (Parallelogram(), 0),
        (GenericQuad(F(1, 2), F(2, 3)), 1),
        (GenericQuad(F(1, 2), F(2, 3)), F(1, 10)),
        (GenericQuad(0.5, 2 * (2**0.5 - 1)), 1e-9),
        (GenericQuad(0.3, 0.35), 0.4),
        *((cls, 0) for cls in _criterion_3_classes(3)),
    ],
    ids=[
        "generic", "trapezoid", "parallelogram", "kite-tol-1", "kite-tol-1/10",
        "family-II", "float-tol-above-beta", "crit3-a", "crit3-b", "crit3-c",
    ],
)
def test_search_matches_unfiltered_level_loop(leaf, tol):
    for n in range(1, 7):
        got = [(h.tree.key, h.root_set, h.witness) for h in search_self_affine(leaf, n, tol)]
        assert got == _unfiltered_hits(leaf, n, tol), n


def test_last_level_composes_few_pairs(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return compose_sets(*args)

    monkeypatch.setattr(treesearch, "compose_sets", counting)
    assert search_self_affine(GenericQuad(F(1, 5), F(1, 2)), 6) == []
    assert len(calls) < 3000


def _level_counts(records):
    return {r.args[0]: r.args[1:] for r in records if r.name == "gcdissect.treesearch"}


def test_search_logs_counts_per_level(caplog):
    with caplog.at_level(logging.DEBUG, logger="gcdissect.treesearch"):
        assert search_self_affine(GenericQuad(F(1, 5), F(1, 2)), 4) == []
    # level: (distinct sets, pairs tried, composed, skipped, verdicts)
    assert _level_counts(caplog.records) == {
        2: (6, 6, 6, 0, 0),
        3: (20, 48, 48, 0, 0),
        4: (0, 316, 40, 276, 40),
    }


def test_search_logger_has_no_handlers():
    search_self_affine(GenericQuad(F(1, 5), F(1, 2)), 4)
    for name in ("gcdissect", "gcdissect.treesearch"):
        logger = logging.getLogger(name)
        assert logger.handlers == [] and logger.level == logging.NOTSET


def _same_signature(a, b, exact):
    """Equal signatures; float quotients may differ by roundoff."""
    if exact:
        return a == b
    return all(
        any(ka == kb and quotients_equal(qa, qb) for kb, qb in other)
        for one, other in ((a, b), (b, a))
        for ka, qa in one
    )


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
    # All pairs among up to six sets of each signature from the levels k <= 4
    # (every pair of those sets would take about ten seconds a leaf).
    cache = {}
    sets = dict.fromkeys(evaluate(t, leaf, cache) for k in range(1, 5) for t in enumerate_trees(k))
    by_signature = {}
    for s in sets:
        by_signature.setdefault(s.signature, []).append(s)
    sample = [s for group in by_signature.values() for s in group[:6]]
    exact = not isinstance(getattr(leaf, "alpha", 0), float)
    roots = {}
    for a, b in itertools.product(sample, sample):
        for op, f1, f2 in itertools.product(Op, (False, True), (False, True)):
            got = compose_sets(a, f1, b, f2, op).signature
            want = roots.setdefault((a.signature, f1, b.signature, f2, op), got)
            assert _same_signature(got, want, exact), (a, f1, b, f2, op)
