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
to back-pointers, made by glueing unordered pairs of flagged lower-level
sets, each pair once.  At level n only the pairs an index lookup finds
(composition.glue_partners) are tested piece by piece (glue_holds), and
only the sets that contain the class are built and expanded into trees.
Level n - 1 is glued only to the leaf, so for every generic leaf, exact or
float and at any tol, it builds the same way only the sets with a piece in
a window through which the leaf glues to the class
(composition.partner_targets); trapezoid and parallelogram leaves meet
rows with no factor and keep the whole level.

The same level pass on token sets (composition.glue_tokens, the table's
token column) holds a handful of sets per level, the same for every leaf of
one kind; parity reads it, and the search runs it first as a skeleton, and
glues a pair of sets only when its tokens can reach a level-n root passing
composition.may_hold.  Hits and their order do not change.  enumerate_trees,
quotient_exponents and count_trees are the per-tree references the level
passes are tested against.

Canonical form quotients only by commutativity of the glueing operations:
children of a node are ordered by (leaf count, serialized key, flag), so
keys are compared only between equal leaf counts, and hit trees build their
keys on first read.  Flags are enumerated on every edge, including edges to
leaves; a flag on a leaf edge is only redundant when the leaf class happens
to be mirror-symmetric, so normalizing it away in general would lose trees
(a trapezoid leaf needs mirror-placed copies already at n = 2).
"""

from __future__ import annotations

import itertools
import logging
import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

from .affine_types import AffineClass, GenericQuad, Trapezoid, affine_quotient, flip
from .composition import LEAF_TOKENS, P_TOKEN, T_TOKEN, ClassSet, Op, cached_attribute
from .composition import compose_sets, glue_holds, glue_partners, glue_tokens, may_hold, member
from .composition import partner_targets, singleton
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

    @cached_attribute
    def n_leaves(self) -> int:
        return self.left.n_leaves + self.right.n_leaves

    @cached_attribute
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
        raise SearchCapError(
            f"a search over {n}-leaf trees exceeds the cap of {cap} "
            f"(set {CAP_ENV_VAR} higher to allow)"
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

    Refuses n above the enumeration cap (GCDISSECT_SEARCH_CAP, default 8).
    """
    _check_size(n)
    levels: list[tuple[ExtTree, ...]] = [(), (LEAF,)]
    for k in range(2, n):
        levels.append(tuple(_compose_level(k, levels)))
    yield from _compose_level(n, levels) if n > 1 else levels[1]


def _compose_level(n: int, levels: list[tuple[ExtTree, ...]]) -> Iterator[ExtTree]:
    for op, n1 in _splits(n):
        lower, upper = _with_flags(levels[n1]), _with_flags(levels[n - n1])
        same = 2 * n1 == n
        if same:
            # pair order must match canonical()'s comparator
            lower = upper = sorted(lower, key=lambda tf: _edge_order(*tf))
        for (t1, f1), (t2, f2) in _pairs(lower, upper, same):
            yield Node(op, t1, f1, t2, f2)


def _splits(k: int) -> Iterator[tuple[Op, int]]:
    """(op, leaves on the left) for the nodes of a k-leaf level, in order."""
    for op in (Op.DOT, Op.COLON):
        for k1 in range(1, k // 2 + 1):
            yield op, k1


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


def quotient_exponents(t: ExtTree) -> frozenset[int]:
    """Exponents k with some root member of quotient (alpha/beta)^k, symbolically.

    Glues the tokens of a generic leaf, of indeterminate quotient q =
    alpha/beta, through the table's token column (composition.glue_tokens).
    Trapezoid and parallelogram members have quotient 1 = q^0 and are
    reported as exponent 0.
    """
    return frozenset(map(_exponent, _sym_eval(t)))


def reachable_exponents(n: int) -> frozenset[int]:
    """Union of quotient_exponents over every canonical n-leaf tree, read off
    the level pass over distinct token sets; refuses n above the search cap."""
    _check_size(n)
    ids, _ = _token_pass(LEAF_TOKENS, n)
    return frozenset(map(_exponent, frozenset().union(*ids[n])))


def _exponent(tok: tuple) -> int:
    """k for the token Q^k; 0 for T and P, whose quotient is 1 = q^0."""
    return tok[1] if tok[0] == "Q" else 0


def _sym_eval(t: ExtTree) -> frozenset[tuple]:
    if isinstance(t, Leaf):
        return LEAF_TOKENS
    return glue_tokens(_sym_eval(t.left), t.left_flip, _sym_eval(t.right), t.right_flip, t.op)


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
    enumeration cap).

    A glued set's tokens (Q^k for quotient q^k, T, P), emptiness included,
    follow from its operands' tokens, flags and the op through the table's
    token column (composition.glue_tokens), so the search runs in three
    passes.  The skeleton is the token pass seeded with the leaf's kind:
    every move (op and ordered pair of flagged token sets) and the token set
    it glues to.  The backward pass marks the moves on a path to a level-n
    token set whose quotients pass may_hold, a necessary condition of
    member.  The set pass maps each non-empty root set of level k = 2..n to
    its back-pointers, glueing each unordered pair of flagged lower-level
    sets once, in a fixed order, when its move is marked; the glued set
    takes its token id from that move.  At level n a left edge first looks
    up the admitted right edges that can glue with it to the class
    (glue_partners), tests those pairs in order with glue_holds, member on
    each forward piece, and builds only the sets holding the class or its
    flip.  For n >= 3, level n - 1 only meets the leaf, at level n, so it
    runs the same branch once a pair there is marked, for any leaf class
    and tol, with windows in place of the targets: the kind, quotient and
    parameter span a piece needs for the leaf to glue it to the class or
    its flip within tol (composition.partner_targets, solved then from the
    product rows' factor), and a glued set is built only when one of its
    forward pieces meets one.  A leaf meeting a row with no factor (T and
    P) keeps the whole level.  Every pair on a path to a hit is marked,
    found, passes that test and keeps its place, so the hits and their
    order are those of glueing every pair.  Each level logs its counts on
    the "gcdissect.treesearch" debug logger (on a level that builds only
    holders: sets kept, marked pairs, candidates tested, targets or
    windows).
    """
    _check_size(n)
    targets = list(dict.fromkeys([leaf, flip(leaf)] if isinstance(leaf, GenericQuad) else [leaf]))
    ids, moves, marked = _skeleton(leaf, n, targets, tol)
    # goals[k]: the classes (or windows) whose holders are the only sets level
    # k builds; a level without one (or with None) builds every set it glues.
    # Level n - 1's are solved at its first marked pair, so an empty search
    # solves none.
    goals: dict[int, list | None] = {n: targets}

    # levels[k]: each non-empty root set of k-leaf trees -> its back-pointers
    # (op, k1, left set, left flag, right set, right flag), k1 leaves on the left;
    # edges[k]: (set, flag, token id) per set of levels[k] and flag
    levels: list[dict[ClassSet, list[tuple]]] = [{}, {singleton(leaf): []}]
    edges = [[], [(singleton(leaf), f, 0) for f in (False, True)]]
    # k1 -> glue_partners over the level k - k1 edges that marked moves admit
    partners: dict[int, Callable] = {}
    for k in range(2, n + 1):
        level: dict[ClassSet, list[tuple]] = {}
        token_ids: dict[ClassSet, int] = {}
        glued = tested = 0
        partners.clear()
        for op, k1 in _splits(k):
            lefts, rights, same = edges[k1], edges[k - k1], 2 * k1 == k
            # (id2, f2) -> positions of the right edges with that token id and flag
            groups: dict[tuple, list[int]] = {}
            for j, (_, f2, i2) in enumerate(rights):
                groups.setdefault((i2, f2), []).append(j)
            # (id1, f1) -> positions, ascending, of the right edges its marked moves admit
            admitted: dict[tuple, list[int]] = {}
            for i, (s1, f1, i1) in enumerate(lefts):
                js = admitted.get((i1, f1))
                if js is None:
                    js = admitted[(i1, f1)] = sorted(
                        j for (i2, f2), g in groups.items()
                        if (k1, i1, f1, i2, f2, op) in marked[k] for j in g
                    )
                js = js[bisect_left(js, i):] if same else js
                glued += len(js)
                if not js:
                    continue
                if k == n - 1 and k not in goals:
                    goals[k] = _partner_targets(leaf, ids[k], marked[n], targets, tol)
                goal = goals.get(k)
                if goal == []:
                    continue  # no target or window, so no set here is built
                if goal is not None:
                    if k1 not in partners:
                        wanted = {(m[3], m[4]) for m in marked[k] if m[0] == k1}
                        partners[k1] = glue_partners(
                            ((j, s, f) for j, (s, f, i) in enumerate(rights) if (i, f) in wanted),
                            goal, tol,
                        )
                    candidates = partners[k1](s1, f1, op)
                    js = [j for j in js if j in candidates]
                    tested += len(js)
                for j in js:
                    s2, f2, i2 = rights[j]
                    if goal is not None and not glue_holds(s1, f1, s2, f2, op, goal, tol):
                        continue
                    root = compose_sets(s1, f1, s2, f2, op)
                    level.setdefault(root, []).append((op, k1, s1, f1, s2, f2))
                    token_ids.setdefault(root, moves[k][(k1, i1, f1, i2, f2, op)])
        goal = goals.get(k)
        tail = ("%d sets kept, %d marked pairs, %d candidates tested, %d targets"
                if goal is not None else "%d distinct sets, %d pairs glued")
        _log.debug(
            "level %d: %d token sets, %d moves, %d marked, " + tail, k, len(ids[k]), len(moves[k]),
            len(marked[k]), len(level), glued, *((tested, len(goal)) if goal is not None else ()),
        )
        levels.append(level)
        edges.append([(s, f, i) for s, i in token_ids.items() for f in (False, True)])

    partners.clear()  # expanding the hits needs no index
    hits = []
    for root in levels[n]:
        for target in targets:
            if member(root, target, tol):
                hits.extend(SearchHit(t, root, target) for t in _expand(levels, n, root))
                break
    return hits


def _token_pass(seed, n: int) -> tuple[list, list]:
    """Per level k, ids[k] (token set -> id, in order of first appearance) and
    moves[k] ((k1, id1, f1, id2, f2, op) -> glued id) over every ordered pair
    of flagged token sets of levels k1 and k - k1; empty glued sets drop."""
    ids: list[dict] = [{} for _ in range(n + 1)]
    moves: list[dict] = [{} for _ in range(n + 1)]
    ids[1][seed] = 0
    for k in range(2, n + 1):
        for op, k1 in _splits(k):
            for (r1, i1), f1, (r2, i2), f2 in itertools.product(
                ids[k1].items(), (False, True), ids[k - k1].items(), (False, True)
            ):
                root = glue_tokens(r1, f1, r2, f2, op)
                if root:
                    moves[k][(k1, i1, f1, i2, f2, op)] = ids[k].setdefault(root, len(ids[k]))
    return ids, moves


def _token_quotients(toks: frozenset[tuple], q) -> list[tuple]:
    """(kind, quotient) per token at leaf quotient q."""
    return [(tok[0], q ** _exponent(tok)) for tok in toks]


def _skeleton(leaf: AffineClass, n: int, targets: list, tol) -> tuple[list, list, list]:
    """search_self_affine's skeleton and backward passes: ids and moves of the
    token pass seeded with the leaf's kind, and marked[k], the moves on a
    path to a level-n token set whose quotients pass may_hold."""
    q = affine_quotient(leaf)
    kind = T_TOKEN if isinstance(leaf, Trapezoid) else P_TOKEN
    seed = LEAF_TOKENS if isinstance(leaf, GenericQuad) else frozenset({kind})
    ids, moves = _token_pass(seed, n)
    live = [set() for _ in range(n + 1)]
    for toks, j in ids[n].items():
        if any(may_hold(_token_quotients(toks, q), t, tol) for t in targets):
            live[n].add(j)
    marked = [set() for _ in range(n + 1)]
    for k in range(n, 1, -1):
        for move, j in moves[k].items():
            if j in live[k]:
                k1, i1, _, i2, _, _ = move
                marked[k].add(move)
                live[k1].add(i1)
                live[k - k1].add(i2)
    return ids, moves, marked


def _partner_targets(
    leaf: AffineClass, ids_below: dict, marked_n: set, targets: list, tol
) -> list | None:
    """composition.partner_targets at tol for level n - 1 of a search,
    ids_below its token sets: the Q exponents are those of the sets that
    marked level-n moves with the leaf on the left (k1 = 1) take."""
    tokens = {i: toks for toks, i in ids_below.items()}
    exponents = {tok[1] for m in marked_n if m[0] == 1 for tok in tokens[m[3]] if tok[0] == "Q"}
    return partner_targets(leaf, exponents, targets, tol)


# Module-level, not a closure over the levels: a recursive closure is a
# reference cycle and would keep the levels alive until a cyclic collection.
def _expand(levels: list[dict], k: int, s: ClassSet) -> list[ExtTree]:
    """The canonical k-leaf trees with root set s, from the back-pointers."""
    if k == 1:
        return [LEAF]
    out = []
    for op, k1, s1, f1, s2, f2 in levels[k][s]:
        lefts, rights = _expand(levels, k1, s1), _expand(levels, k - k1, s2)
        if 2 * k1 < k:  # fewer leaves on the left already put it first
            out += [Node(op, t1, f1, t2, f2) for t1 in lefts for t2 in rights]
            continue
        for t1, t2 in _pairs(lefts, rights, (s1, f1) == (s2, f2)):
            out.append(_ordered(op, t1, f1, t2, f2))
    return out
