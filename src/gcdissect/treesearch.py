"""Extended dissection trees: enumeration, evaluation, self-affinity search.

A gc-dissection of a convex quadrangle into quadrangle tiles is recorded by
a binary tree: each internal node is one straight cut, annotated with the
glueing operation that reverses it (dot or colon) and a mirror flag per
child edge.  Evaluating a tree bottom-up through the glueing algebra yields
the set of classes the root can have when every leaf tile belongs to a given
class; the tree witnesses n-gc-self-affinity of that class exactly when the
class (or its flip) lies in the root set.

The search does not evaluate trees one by one.  A root set depends only on
the subtrees' sets, and few are distinct, so it runs level by level over
leaf counts k = 2..n: level k maps each non-empty root set of k-leaf trees
to back-pointers, made by glueing every unordered pair of flagged
lower-level sets once.  Only level-n sets that contain the class are
expanded back into trees.

At level n a pair is glued only when its root can hold the class: a glued
set's kinds and quotients (its signature) follow from its operands', their
flags and the op, so one glueing per such key decides composition.may_hold,
a necessary condition of member.  Hits and their order do not change.

Canonical form quotients only by commutativity of the glueing operations:
children of a node are ordered by (leaf count, serialized key, flag).  Flags
are enumerated on every edge, including edges to leaves; a flag on a leaf
edge is only redundant when the leaf class happens to be mirror-symmetric,
so normalizing it away in general would lose trees (a trapezoid leaf needs
mirror-placed copies already at n = 2).
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Union

from .affine_types import AffineClass, GenericQuad, flip
from .composition import ClassSet, Op, compose_sets, may_hold, member, singleton
from .errors import SearchCapError

DEFAULT_SEARCH_CAP = 8
CAP_ENV_VAR = "GCDISSECT_SEARCH_CAP"

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Leaf:
    """A tile of the dissection; all leaves carry the same class."""

    @property
    def n_leaves(self) -> int:
        return 1

    @property
    def key(self) -> str:
        return "L"


@dataclass(frozen=True)
class Node:
    """One cut: op plus the two subtrees with their edge mirror flags."""

    op: Op
    left: "ExtTree"
    left_flip: bool
    right: "ExtTree"
    right_flip: bool

    @cached_property
    def n_leaves(self) -> int:
        return self.left.n_leaves + self.right.n_leaves

    @cached_property
    def key(self) -> str:
        lf = "F" if self.left_flip else ""
        rf = "F" if self.right_flip else ""
        return f"({self.left.key}{lf}{self.op.symbol}{self.right.key}{rf})"


ExtTree = Union[Leaf, Node]

LEAF = Leaf()


def _edge_order(t: ExtTree, flag: bool) -> tuple[int, str, bool]:
    return (t.n_leaves, t.key, flag)


def _ordered(op: Op, t1: ExtTree, f1: bool, t2: ExtTree, f2: bool) -> Node:
    """Node with its two children in canonical order."""
    if _edge_order(t1, f1) <= _edge_order(t2, f2):
        return Node(op, t1, f1, t2, f2)
    return Node(op, t2, f2, t1, f1)


def canonical(t: ExtTree) -> ExtTree:
    """Equivalent tree with children sorted at every node."""
    if isinstance(t, Leaf):
        return t
    return _ordered(t.op, canonical(t.left), t.left_flip, canonical(t.right), t.right_flip)


def search_cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_SEARCH_CAP
    try:
        return int(raw)
    except ValueError:
        raise SearchCapError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None


def _check_size(n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    cap = search_cap()
    if n > cap:
        # count_trees takes O(n^2) big-integer products (11 s at 2,000 leaves).
        # Past 200, give a lower bound: a leaf beside any (k-1)-leaf tree, two
        # ops and a flag per child make each level at least 8 times the last.
        trees = count_trees(n) if n <= 200 else f"more than 6 * 8^{n - 2}"
        raise SearchCapError(
            f"a search over {n}-leaf trees exceeds the cap of {cap} "
            f"({trees} canonical trees; set {CAP_ENV_VAR} higher to allow)"
        )


def count_trees(n: int) -> int:
    """Number of canonical trees with n leaves, by recurrence (no enumeration).

    With F(k) = 2 * count(k) counting (subtree, flag) choices, a node picks
    an op and an unordered pair of flagged subtrees whose sizes sum to n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    counts = [0, 1]
    for k in range(2, n + 1):
        pairs = sum(4 * counts[k1] * counts[k - k1] for k1 in range(1, (k + 1) // 2))
        if k % 2 == 0:
            f = 2 * counts[k // 2]
            pairs += f * (f + 1) // 2
        counts.append(2 * pairs)
    return counts[n]


def enumerate_trees(n: int) -> Iterator[ExtTree]:
    """All canonical trees with n leaves, in a fixed deterministic order.

    Refuses n above the enumeration cap (GCDISSECT_SEARCH_CAP, default 8)
    with the would-be tree count in the message.
    """
    _check_size(n)
    levels: list[tuple[ExtTree, ...]] = [(), (LEAF,)]
    for k in range(2, n):
        levels.append(tuple(_compose_level(k, levels)))
    yield from _compose_level(n, levels) if n > 1 else levels[1]


def _compose_level(n: int, levels: list[tuple[ExtTree, ...]]) -> Iterator[ExtTree]:
    for op in (Op.DOT, Op.COLON):
        for n1 in range(1, n // 2 + 1):
            lower, upper = _with_flags(levels[n1]), _with_flags(levels[n - n1])
            same = 2 * n1 == n
            if same:
                # pair order must match canonical()'s comparator
                lower = upper = sorted(lower, key=lambda tf: _edge_order(*tf))
            for (t1, f1), (t2, f2) in _pairs(lower, upper, same):
                yield Node(op, t1, f1, t2, f2)


def _with_flags(items: Iterable) -> list[tuple]:
    return [(x, f) for x in items for f in (False, True)]


def _pairs(lefts: list, rights: list, same: bool) -> Iterator[tuple]:
    """Each (left, right) pair; when the two lists are the same one, each
    unordered pair once."""
    for i, a in enumerate(lefts):
        for b in rights[i:] if same else rights:
            yield a, b


# ---------------------------------------------------------------------------
# evaluation


def evaluate(
    t: ExtTree, leaf_class: AffineClass, cache: dict[str, ClassSet] | None = None
) -> ClassSet:
    """Set of possible root classes when every leaf is leaf_class.

    Empty result means no dissection with this tree exists for the class.
    A cache dict (keyed by subtree key) may be shared across calls with the
    same leaf_class; enumerated trees share subtree structure heavily, and
    the leaf's own set is kept there too, so its pieces are built once.
    """
    if cache is None:
        cache = {}
    got = cache.get(t.key)
    if got is None:
        if isinstance(t, Leaf):
            got = singleton(leaf_class)
        else:
            left = evaluate(t.left, leaf_class, cache)
            right = evaluate(t.right, leaf_class, cache)
            got = compose_sets(left, t.left_flip, right, t.right_flip, t.op)
        cache[t.key] = got
    return got


# ---------------------------------------------------------------------------
# symbolic quotient exponents

_T_TOKEN = ("T",)
_P_TOKEN = ("P",)


def quotient_exponents(t: ExtTree) -> frozenset[int]:
    """Exponents k with some root member of quotient (alpha/beta)^k, symbolically.

    Treats the leaf as a generic quadrangle with indeterminate quotient
    q = alpha/beta: dot glueings add exponents, colon glueings take the
    absolute difference, and equal exponents under colon produce trapezoids.
    Trapezoid and parallelogram members have quotient 1 = q^0 and are
    reported as exponent 0.
    """
    toks = _sym_eval(t)
    out = {k for kind, *rest in toks if kind == "Q" for k in rest}
    if _T_TOKEN in toks or _P_TOKEN in toks:
        out.add(0)
    return frozenset(out)


_LEAF_TOKENS = frozenset({("Q", 1)})
# Symbolic sets depend only on tree shape, so one global cache is safe.
_SYM_CACHE: dict[str, frozenset[tuple]] = {}


def _sym_eval(t: ExtTree) -> frozenset[tuple]:
    if isinstance(t, Leaf):
        return _LEAF_TOKENS
    got = _SYM_CACHE.get(t.key)
    if got is None:
        left = _sym_eval(t.left)
        right = _sym_eval(t.right)
        out: set[tuple] = set()
        for x in left:
            for y in right:
                out.update(_sym_glue(x, t.left_flip, y, t.right_flip, t.op))
        got = frozenset(out)
        _SYM_CACHE[t.key] = got
    return got


def _sym_glue(
    x: tuple, fx: bool, y: tuple, fy: bool, op: Op
) -> Iterator[tuple]:
    # Mirror flags on Q operands are absorbed (the quotient is flip-invariant)
    # but on T/P operands they gate the same rows as the concrete table.
    if x[0] == "Q" and y[0] == "Q":
        j, k = x[1], y[1]
        if op is Op.DOT:
            yield ("Q", j + k)
        elif j == k:
            yield _T_TOKEN
        else:
            yield ("Q", abs(j - k))
        return
    if op is Op.COLON:
        return
    if x[0] == "Q" or y[0] == "Q":
        q, other, of = (x, y, fy) if x[0] == "Q" else (y, x, fx)
        if other == _T_TOKEN and not of:
            yield q
        return
    if x == _T_TOKEN and y == _T_TOKEN:
        if fx != fy:
            return
        yield _T_TOKEN
        if fx:
            yield _P_TOKEN
        return
    if x == _P_TOKEN and y == _P_TOKEN:
        if not fx and not fy:
            yield _P_TOKEN
        return
    # T with P
    t_flag, p_flag = (fx, fy) if x == _T_TOKEN else (fy, fx)
    if t_flag and not p_flag:
        yield _T_TOKEN


# ---------------------------------------------------------------------------
# search


@dataclass(frozen=True)
class SearchHit:
    """A tree witnessing self-affinity, with the root set and the member
    (the target class or its flip) that matched."""

    tree: ExtTree
    root_set: ClassSet
    witness: AffineClass


def search_self_affine(leaf: AffineClass, n: int, tol=0) -> list[SearchHit]:
    """All canonical n-leaf trees whose root set contains the class.

    For generic quadrangle targets the flip is also accepted, since the two
    parametrizations name the same shape.  An empty list at tol 0 with exact
    parameters certifies the class is not n-gc-self-affine (within the
    enumeration cap).  Hits come in a fixed order: root sets in the order
    the level-wise pass first meets them, then each set's trees in
    back-pointer order.  At level n only pairs whose root passes may_hold, a
    necessary condition of member, are glued; hits and order stay the same.
    Each level logs its counts on the "gcdissect.treesearch" debug logger.
    """
    _check_size(n)
    targets: list[AffineClass] = [leaf]
    if isinstance(leaf, GenericQuad):
        flipped = flip(leaf)
        if flipped != leaf:
            targets.append(flipped)
    # levels[k]: each non-empty root set of k-leaf trees -> its back-pointers
    # (op, k1, left set, left flag, right set, right flag), k1 leaves on the left;
    # edges[k]: (set, flag, small id of the set's signature) per set and flag
    levels: list[dict[ClassSet, list[tuple]]] = [{}, {singleton(leaf): []}]
    edges, ids = [[]], {}
    for k in range(2, n + 1):
        edges.append(
            [(s, f, ids.setdefault(s.signature, len(ids))) for s, f in _with_flags(levels[k - 1])]
        )
        level: dict[ClassSet, list[tuple]] = {}
        # at level n only: (id1, f1, id2, f2, op) -> can the root hold a target?
        verdicts: dict[tuple, bool] = {}
        composed = skipped = 0
        for op in (Op.DOT, Op.COLON):
            for k1 in range(1, k // 2 + 1):
                for (s1, f1, i1), (s2, f2, i2) in _pairs(edges[k1], edges[k - k1], 2 * k1 == k):
                    key = (i1, f1, i2, f2, op)
                    if not verdicts.get(key, True):
                        skipped += 1
                        continue
                    composed += 1
                    root = compose_sets(s1, f1, s2, f2, op)
                    if k == n and key not in verdicts:
                        verdicts[key] = any(may_hold(root.signature, t, tol) for t in targets)
                    if root and verdicts.get(key, True):
                        level.setdefault(root, []).append((op, k1, s1, f1, s2, f2))
        _log.debug(
            "level %d: %d distinct sets, %d pairs tried, %d composed, %d skipped, %d verdicts",
            k, len(level), composed + skipped, composed, skipped, len(verdicts),
        )
        levels.append(level)

    hits = []
    for root in levels[n]:
        for target in targets:
            if member(root, target, tol):
                hits.extend(SearchHit(t, root, target) for t in _expand(levels, n, root))
                break
    return hits


# Module-level, not a closure over the levels: a recursive closure is a
# reference cycle and would keep the levels alive until a cyclic collection.
def _expand(levels: list[dict], k: int, s: ClassSet) -> list[ExtTree]:
    """The canonical k-leaf trees with root set s, from the back-pointers."""
    if k == 1:
        return [LEAF]
    out = []
    for op, k1, s1, f1, s2, f2 in levels[k][s]:
        lefts, rights = _expand(levels, k1, s1), _expand(levels, k - k1, s2)
        for t1, t2 in _pairs(lefts, rights, (k1, s1, f1) == (k - k1, s2, f2)):
            out.append(_ordered(op, t1, f1, t2, f2))
    return out
