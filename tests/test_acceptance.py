"""Acceptance suite: one test per criterion, timed where the criterion is.

Each test registers a one-line verdict through the ``criterion`` fixture;
the terminal summary lists them all after the run.  Random inputs use
fixed seeds so a failure is reproducible.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction as F

from gcdissect import (
    FamilyId,
    GenericQuad,
    Parallelogram,
    Trapezoid,
    affine_quotient,
    canonicalize,
    class_close,
    classify_quadrangle,
    dissect_even_general,
    dissect_odd,
    dissect_por5,
    dissect_trapezoid,
    dissect_trapezoid_selfaffine,
    enumerate_trees,
    evaluate,
    family_beta,
    family_residual,
    flip,
    is_affine_kite,
    quotient_exponents,
    search_self_affine,
    standard_placement,
    verify_plan,
)
from gcdissect.cli import dumps_plan, loads_plan, main
from gcdissect.realizer import _even_general_pieces, _exact_generic
from gcdissect.treesearch import LEAF, Node, Op


def _random_generic(rng, max_den):
    while True:
        d1 = rng.randint(3, max_den)
        d2 = rng.randint(3, max_den)
        a = F(rng.randint(1, d1 - 1), d1)
        b = F(rng.randint(1, d2 - 1), d2)
        if 0 < a < b < 1:
            return GenericQuad(a, b)


def _random_kite(rng, max_den=64):
    d = rng.randint(3, max_den)
    a = F(rng.randint(1, d - 1), d)
    return GenericQuad(a, 1 / (2 - a))


def test_flip_quotient_algebra(criterion):
    criterion("criterion 1: flip and quotient invariants on 10^4 classes")
    rng = random.Random(101)
    start = time.perf_counter()
    for i in range(10_000):
        cls = _random_kite(rng) if i % 100 == 0 else _random_generic(rng, 10_000)
        other = flip(cls)
        assert flip(other) == cls
        assert affine_quotient(other) == affine_quotient(cls)
        assert is_affine_kite(cls) == (other == cls)
    assert time.perf_counter() - start < 5.0


def test_exponent_parity(criterion):
    criterion("criterion 2: quotient exponent parity for n <= 6")
    start = time.perf_counter()
    for n in range(1, 7):
        exponents = set()
        for t in enumerate_trees(n):
            exponents |= quotient_exponents(t)
        assert exponents
        for k in exponents:
            assert 0 <= k <= n
            assert k % 2 == n % 2
    assert time.perf_counter() - start < 60.0


def test_even_search_empty_and_fans(criterion):
    criterion("criterion 3: no generic hits at n in {2,4,6}; fans verify")
    rng = random.Random(303)
    start = time.perf_counter()
    for _ in range(100):
        cls = _random_generic(rng, 9)
        for n in (2, 4, 6):
            assert search_self_affine(cls, n) == []
    for n in range(2, 9):
        for host in (Trapezoid(F(1, 2)), Trapezoid(F(1, 5))):
            plan = dissect_trapezoid_selfaffine(host, n)
            assert verify_plan(plan, 0).ok
    assert time.perf_counter() - start < 300.0


def test_three_tile_families(criterion):
    criterion("criterion 4: three-tile curves hit at n=3, off-curve misses")
    start = time.perf_counter()

    curves = (FamilyId.II, FamilyId.III, FamilyId.IV)
    stated = {
        FamilyId.II: (0.8284271247, 1e-10),
        FamilyId.III: (0.7807764064, 1e-10),
        FamilyId.IV: (0.80487, 1e-5),
    }
    for family, (value, precision) in stated.items():
        beta = family_beta(family, F(1, 2))
        assert abs(beta - value) < precision
        assert abs(family_residual(family, 0.5, beta)) < 1e-9

    for k in range(1, 100):
        alpha = F(k, 100)
        for family in curves:
            beta = family_beta(family, alpha)
            hits = search_self_affine(GenericQuad(alpha, beta), 3, tol=1e-9)
            assert hits, f"no n=3 hit on curve {family.value} at alpha={alpha}"
            for delta in (0.01, -0.01):
                off = beta + delta
                if not alpha < off < 1:
                    continue
                residuals = [
                    abs(family_residual(f, float(alpha), off)) for f in curves
                ]
                if min(residuals) <= 1e-4:
                    continue
                misses = search_self_affine(GenericQuad(alpha, off), 3, tol=1e-9)
                assert misses == [], f"off-curve hit at alpha={alpha}, beta={off}"
    assert time.perf_counter() - start < 300.0


def _named_five_leaf_trees():
    pair = Node(Op.DOT, LEAF, False, LEAF, False)
    tpair = Node(Op.COLON, LEAF, False, LEAF, False)
    return {
        "a": Node(Op.COLON, Node(Op.DOT, pair, False, LEAF, False), True, pair, True),
        "b": Node(Op.COLON, Node(Op.DOT, pair, True, LEAF, False), True, pair, True),
        "c": Node(Op.COLON, Node(Op.COLON, pair, False, LEAF, False), True, pair, True),
        "d": Node(Op.COLON, Node(Op.COLON, pair, True, LEAF, False), True, pair, True),
        "e": Node(Op.COLON, Node(Op.DOT, tpair, False, LEAF, False), True, pair, True),
    }


def _kite_root_factor(name, a):
    """Closed-form ratio of root beta to leaf beta for the named trees."""
    if name == "a":
        num = (a * a - 5 * a + 7) * (3 - a) * a * a
        den = (a * a + a + 1) * (a + 1) * (2 - a) ** 2
    elif name == "b":
        num = (-(a**3) + 4 * a * a - 2 * a - 5) * (3 - a) * a * a
        den = (a**3 - 2 * a * a - 2 * a - 1) * (a + 1) * (2 - a) ** 2
    elif name == "d":
        num = (a * a - a - 4) * (3 - a) * a
        den = (a * a - 3 * a - 2) * (a + 1) * (2 - a)
    else:  # c and e share one factor
        num = (4 - a) * (3 - a) * a
        den = (a + 2) * (a + 1) * (2 - a)
    return num / den


def test_kite_five_impossible(criterion):
    criterion("criterion 5: kites admit no five-tile glass-cut dissection")
    start = time.perf_counter()
    for k in range(1, 32):
        a = F(k, 32)
        kite = GenericQuad(a, 1 / (2 - a))
        assert search_self_affine(kite, 5, tol=0) == []

    trees = _named_five_leaf_trees()
    for j in range(1, 11):
        a = F(j, 11)
        beta = 1 / (2 - a)
        kite = GenericQuad(a, beta)
        q = affine_quotient(kite)
        for name, t in trees.items():
            factor = _kite_root_factor(name, a)
            root_set = evaluate(t, kite)
            assert root_set.q_points == (GenericQuad(q * factor * beta, factor * beta),)
            assert not root_set.t_points and not root_set.t_intervals
            assert not root_set.q_curves and not root_set.has_p
            # equality with the leaf would need factor == 1
            assert factor != 1
    assert time.perf_counter() - start < 600.0


def test_odd_constructions(criterion):
    criterion("criterion 6: odd-count plans verify exactly")
    rng = random.Random(606)
    start = time.perf_counter()
    seen = 0
    while seen < 50:
        cls = _random_generic(rng, 12)
        if is_affine_kite(cls):
            continue
        seen += 1
        for n in (5, 7, 9):
            plan = dissect_odd(cls, n)
            assert len(plan.tiles) == n
            assert verify_plan(plan, 0, expected=cls).ok
    for _ in range(20):
        kite = _random_kite(rng)
        for n in (7, 9):
            plan = dissect_odd(kite, n)
            assert len(plan.tiles) == n
            assert verify_plan(plan, 0, expected=kite).ok
    assert time.perf_counter() - start < 300.0


def test_general_constructions(criterion):
    criterion("criterion 7: five-tile and even-count constructions verify")
    rng = random.Random(707)
    start = time.perf_counter()
    for _ in range(50):
        cls = _random_generic(rng, 12)
        plan = dissect_por5(cls)
        assert len(plan.tiles) == 5
        assert verify_plan(plan, 0, expected=cls).ok
        for n in (6, 8, 10):
            plan = dissect_even_general(cls, n)
            assert len(plan.tiles) == n
            assert verify_plan(plan, 0, expected=cls).ok
            # the filler ratio is exactly the pair ratio
            ecls = _exact_generic(cls)
            frame = standard_placement(ecls)
            mu_hat = (1 - ecls.beta) / (1 - ecls.alpha)
            mirrored = flip(ecls)
            nu_hat = (1 - mirrored.beta) / (1 - mirrored.alpha)
            scale = 1 / (2 - mu_hat - nu_hat)
            (nu0,) = plan.pinned
            mu = _even_general_pieces(nu0, scale, frame)[2].gamma
            assert mu == ecls.alpha * ecls.beta
    assert time.perf_counter() - start < 300.0


FAMILY_II_HALF = "Q:0.5,0.8284271247461903"

POSSIBILITY_TABLE = {
    "T:1/3": {2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0},
    "P": {2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0},
    "Q:1/5,1/2": {2: 1, 3: 1, 4: 1, 5: 0, 6: 1, 7: 0},
    "Q:1/2,2/3": {2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 0},
    FAMILY_II_HALF: {2: 1, 3: 0, 4: 1, 5: 0, 6: 1, 7: 0},
}


def test_round_trips_and_exit_codes(criterion, capsys, tmp_path):
    criterion("criterion 8: plans round-trip; exit codes match the table")
    q = GenericQuad(F(1, 5), F(1, 2))
    kite = GenericQuad(F(1, 2), F(2, 3))
    emitted = [
        (dissect_trapezoid_selfaffine(Trapezoid(F(1, 3)), 4), Trapezoid(F(1, 3)), 0.0),
        (dissect_trapezoid_selfaffine(Parallelogram(), 3), Parallelogram(), 0.0),
        (dissect_odd(q, 5), q, 0.0),
        (dissect_odd(kite, 7), kite, 0.0),
        (dissect_por5(q), q, 0.0),
        (dissect_even_general(q, 6), q, 0.0),
        (dissect_trapezoid(F(1, 2), q, 4), q, 0.0),
    ]
    for plan, cls, tol in emitted:
        expected = canonicalize(cls)
        for tile in plan.tiles:
            got = classify_quadrangle(tile.points, tol).cls
            assert class_close(got, expected, tol)
        text = dumps_plan(plan, cls, tol)
        loaded, loaded_cls, loaded_tol = loads_plan(text)
        assert dumps_plan(loaded, loaded_cls, loaded_tol) == text
        assert loaded_cls == cls

    for cls_text, expected_codes in POSSIBILITY_TABLE.items():
        for n, expected_code in expected_codes.items():
            argv = ["dissect", "--class", cls_text, "--n", str(n)]
            if cls_text == FAMILY_II_HALF:
                argv += ["--tol", "1e-9"]
            code = main(argv)
            out = capsys.readouterr().out
            assert code == expected_code, (cls_text, n, code)
            if code == 0:
                doc = json.loads(out)
                assert len(doc["tiles"]) == n
                path = tmp_path / "plan.json"
                path.write_text(out)
                assert main(["verify", "--plan", str(path)]) == 0
                capsys.readouterr()
            else:
                assert "error" in json.loads(out)
