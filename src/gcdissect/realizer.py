"""Concrete dissections: from cut trees and named recipes to coordinates.

A realized dissection is a DissectionPlan: a root quadrangle with labeled
vertices, the tiles that cover it, and the cut segments that produced them.
realize_tree walks a cut tree top down, in pre-order on an explicit stack;
at every node composition.decompose picks concrete operand classes from the
glueing table's inverse and cuts the node's quad with the same row, one
tile per leaf.
The dissect_* functions package the known recipes (pair chains for
trapezoids, odd tile counts, fans, and the two recipes that give up the
opposite-side cut discipline) as plans; the last two need exact p/q
parameters.

All geometry is affine.  Exact inputs stay exact: every cut point is a
rational combination of the parent's vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .affine_types import (
    AffineClass,
    CutRecord,
    GenericQuad,
    LabeledQuad,
    Parallelogram,
    Point,
    Trapezoid,
    class_is_exact,
    canonicalize,
    classify_quadrangle,
    cross,
    flip,
    flip_factor,
    is_affine_kite,
    lerp,
    vadd,
    vscale,
    vsub,
)
from .composition import ClassSet, Op, decompose, member
from .errors import UnrealizableError
from .scalars import Scalar, exactify, scalar_close
from .treesearch import LEAF, ExtTree, Leaf, Node, evaluate

# Tolerance for matching classes at internal nodes when any scalar in play
# is a float; exact inputs always match exactly.
INTERNAL_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class Construction:
    """Tag for plans built by a named recipe instead of a cut tree."""

    name: str
    params: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class DissectionPlan:
    root: LabeledQuad
    tiles: tuple[LabeledQuad, ...]
    tree: Union[ExtTree, Construction]
    pinned: tuple[Scalar, ...] = ()
    gc: bool = True
    cuts: tuple[CutRecord, ...] = ()


def standard_placement(cls: AffineClass) -> LabeledQuad:
    """Reference coordinates for a class.

    Generic: a = (0,0), b = (1-alpha, 0), c = (1-beta, 1-beta'), with
    (alpha', beta') the mirror parameters, so that ab and dc meet at (1,0)
    and ad, bc at the second apex.  Trapezoid: the legs meet at (1,0) and
    the parallel sides are vertical.  Parallelogram: the unit square.
    """
    zero = Fraction(0)
    one = Fraction(1)
    if isinstance(cls, GenericQuad):
        mirrored = flip(cls)
        return LabeledQuad(
            cls,
            (zero, zero),
            (1 - cls.alpha, zero),
            (1 - cls.beta, 1 - mirrored.beta),
            (zero, 1 - mirrored.alpha),
        )
    if isinstance(cls, Trapezoid):
        g = cls.gamma
        return LabeledQuad(
            cls, (zero, zero), (1 - g, zero), (1 - g, g), (zero, one)
        )
    return LabeledQuad(cls, (zero, zero), (one, zero), (one, one), (zero, one))


def _ccw(lq: LabeledQuad) -> LabeledQuad:
    return lq if lq.is_ccw else lq.mirrored()


def _meet(p: Point, q: Point, r: Point, s: Point) -> Point:
    """Intersection of lines pq and rs; the lines must not be parallel."""
    denom = cross(vsub(q, p), vsub(s, r))
    t = cross(vsub(r, p), vsub(s, r)) / denom
    return lerp(p, q, t)


# ---------------------------------------------------------------------------
# whole-tree realization


def _realize_into(
    t: ExtTree,
    leaf: AffineClass,
    root_quad: LabeledQuad,
    pinned: Iterable[Scalar],
    tol: Scalar,
) -> tuple[list[LabeledQuad], list[CutRecord], list[Scalar]]:
    """(tiles, cuts, ratios used) of t realized inside root_quad.

    The walk is pre-order, left before right, with an explicit stack, and
    the free-ratio cuts take the pinned values in that order.
    """
    cache: dict[str, ClassSet] = {}
    if not member(evaluate(t, leaf, cache), root_quad.cls, tol):
        raise UnrealizableError(
            f"tree cannot produce {root_quad.cls} from copies of {leaf}"
        )
    queue = deque(pinned)
    tiles: list[LabeledQuad] = []
    cuts: list[CutRecord] = []
    used: list[Scalar] = []

    def take_lam() -> Scalar:
        used.append(queue.popleft() if queue else Fraction(1))
        return used[-1]

    stack: list[tuple[ExtTree, LabeledQuad]] = [(t, root_quad)]
    while stack:
        node, quad = stack.pop()
        if isinstance(node, Leaf):
            tiles.append(_ccw(quad))
            continue
        child_l, child_r, cut = decompose(
            evaluate(node.left, leaf, cache), node.left_flip,
            evaluate(node.right, leaf, cache), node.right_flip,
            node.op, quad, tol, take_lam,
        )
        cuts.append(cut)
        stack += [(node.right, child_r), (node.left, child_l)]
    return tiles, cuts, used


def _auto_tol(*classes: AffineClass) -> Scalar:
    return 0 if all(class_is_exact(c) for c in classes) else INTERNAL_MATCH_TOL


def realize_tree(
    t: ExtTree,
    leaf: AffineClass,
    pinned: Iterable[Scalar] = (),
    *,
    root: AffineClass,
    tol: Union[Scalar, None] = None,
) -> DissectionPlan:
    """Concrete coordinates for a cut tree over one leaf class.

    The root is placed at standard_placement of root, a class that the
    tree's class set must contain (the leaf itself, its flip, or a search
    hit's witness).  pinned supplies cut positions for the free-ratio cuts
    in the order the walk meets them (missing values default to 1, an even
    split).  Raises UnrealizableError when the tree cannot produce root.
    """
    if tol is None:
        tol = _auto_tol(leaf, root)
    root_quad = standard_placement(root)
    tiles, cuts, used = _realize_into(t, leaf, root_quad, pinned, tol)
    return DissectionPlan(
        root=root_quad,
        tiles=tuple(tiles),
        tree=t,
        pinned=tuple(used),
        gc=True,
        cuts=tuple(cuts),
    )


# ---------------------------------------------------------------------------
# named recipes


def _pair_tree(flagged: bool) -> Node:
    return Node(Op.COLON, LEAF, flagged, LEAF, flagged)


def _chain_tree(pairs: int, flagged: bool) -> ExtTree:
    """pairs colon-pairs glued in a row; the result ratio is a power."""
    t: ExtTree = _pair_tree(flagged)
    for _ in range(pairs - 1):
        t = Node(Op.DOT, _pair_tree(flagged), False, t, False)
    return t


def _fill_tree(pairs: int, flagged: bool) -> Node:
    """pairs colon-pairs filling a trapezoid: a chain of pairs - 1 with the
    last pair mirror-placed beside it."""
    return Node(Op.DOT, _pair_tree(flagged), True, _chain_tree(pairs - 1, flagged), True)


def _trapezoid_branch(cls: GenericQuad) -> tuple[bool, Scalar]:
    """(use mirror copies, admissible lower bound)."""
    f = flip_factor(cls)
    base = cls.alpha * cls.beta
    flagged = f < 1
    bound = base * min(f, 1)
    return flagged, bound


def dissect_trapezoid(gamma: Scalar, cls: GenericQuad, k: int) -> DissectionPlan:
    """Cut T(gamma) into k copies of cls; k must be even.

    k = 2 works only for gamma = alpha * beta (the one ratio two copies can
    glue to across a single cut).  For even k >= 4 every gamma at or above
    alpha * beta * min(flip_factor, 1) is realizable: k/2 - 1 pairs stack
    into a thin trapezoid and the last pair closes the gap, mirror-placed.
    """
    if not isinstance(cls, GenericQuad):
        raise ValueError(f"tile class must be generic, got {cls}")
    if k < 2 or k % 2:
        raise UnrealizableError(
            f"a trapezoid splits into an even number of copies, not {k}"
        )
    if k == 2:
        base = cls.alpha * cls.beta
        if not scalar_close(gamma, base, _auto_tol(cls, Trapezoid(gamma))):
            raise UnrealizableError(
                f"two copies only glue to ratio {base}, not {gamma}"
            )
        tree: ExtTree = _pair_tree(False)
        return realize_tree(tree, cls, root=Trapezoid(gamma))
    flagged, bound = _trapezoid_branch(cls)
    if gamma < bound:
        raise UnrealizableError(
            f"ratio {gamma} lies below the admissible bound {bound} for {cls}"
        )
    return realize_tree(_fill_tree(k // 2, flagged), cls, root=Trapezoid(gamma))


def _odd_kite_ratio(cls: GenericQuad) -> Scalar:
    a, b = cls.alpha, cls.beta
    return (1 - a * a * b) * b / (1 - a * b * b)


def dissect_odd(cls: GenericQuad, n: int) -> DissectionPlan:
    """Cut a generic quadrangle into an odd number n >= 5 of its own copies.

    Away from the fixed points of flip the quad splits off one full-size
    copy whose complement is a trapezoid with the flip factor as ratio.
    At a fixed point (beta = 1/(2 - alpha)) that complement degenerates,
    n = 5 becomes impossible, and n >= 7 goes through a three-tile head
    whose complement ratio stays realizable.
    """
    if not isinstance(cls, GenericQuad):
        raise ValueError(f"need a generic class, got {cls}")
    if n % 2 == 0:
        raise UnrealizableError(f"dissect_odd handles odd counts, got {n}")
    if n < 5:
        raise UnrealizableError(
            f"no glass-cut self-affine dissection into {n} generic tiles exists"
        )
    tol = _auto_tol(cls)
    if is_affine_kite(cls, tol if tol else 0):
        if n == 5:
            raise UnrealizableError(
                "an affine kite admits no glass-cut dissection into five "
                "copies of itself: the complement of one copy degenerates "
                "at the flip fixed point"
            )
        gamma = _odd_kite_ratio(cls)
        base = cls.alpha * cls.beta
        assert gamma >= base, "kite complement ratio fell below the pair ratio"
        head = Node(Op.DOT, LEAF, False, _pair_tree(False), False)
        tree = Node(Op.DOT, head, True, _fill_tree((n - 3) // 2, False), False)
        return realize_tree(tree, cls, root=cls)
    rep = cls if flip_factor(cls) < 1 else flip(cls)
    f_rep = flip_factor(rep)
    flagged, bound = _trapezoid_branch(rep)
    assert f_rep >= bound, "complement ratio fell below the admissible bound"
    tree = Node(Op.DOT, LEAF, False, _fill_tree((n - 1) // 2, flagged), False)
    return realize_tree(tree, rep, root=flip(rep))


def dissect_trapezoid_selfaffine(
    cls: Union[Trapezoid, Parallelogram], n: int
) -> DissectionPlan:
    """Fan of n >= 2 parallel cuts: every tile is the class itself.

    Cut positions are pinned to equal fractions of the long parallel side,
    so the n tiles are congruent up to the fixed affine frame.
    """
    if not isinstance(cls, (Trapezoid, Parallelogram)):
        raise ValueError(f"need a trapezoid or parallelogram, got {cls}")
    if n < 2:
        raise UnrealizableError(f"a fan needs at least two tiles, got {n}")
    flagged = isinstance(cls, Trapezoid)
    tree: ExtTree = LEAF
    for _ in range(n - 1):
        tree = Node(Op.DOT, LEAF, flagged, tree, flagged)
    pinned = tuple(Fraction(j) for j in range(n - 1, 0, -1))
    return realize_tree(tree, cls, pinned=pinned, root=cls)


def _exact_generic(cls: GenericQuad) -> GenericQuad:
    if not class_is_exact(cls):
        raise ValueError(
            f"the general constructions need exact p/q parameters, got {cls}"
        )
    return GenericQuad(exactify(cls.alpha), exactify(cls.beta))


def dissect_por5(cls: GenericQuad) -> DissectionPlan:
    """Five copies via one shrunk copy and two split trapezoids.

    Scales the quad into its own corner at ratio alpha * beta; the
    complement splits along the diagonal through that corner into two
    trapezoids of exactly the pair ratio, each of which is two copies.
    The middle cuts are not between opposite sides, so the plan is not
    glass-cut.
    """
    if not isinstance(cls, GenericQuad):
        raise ValueError(f"need a generic class, got {cls}")
    ecls = _exact_generic(cls)
    root = standard_placement(ecls)
    a, b, c, d = root.points
    r = ecls.alpha * ecls.beta
    rb, rc, rd = vscale(r, b), vscale(r, c), vscale(r, d)
    shrunk = LabeledQuad(ecls, a, rb, rc, rd)
    trap1 = LabeledQuad(Trapezoid(r), b, rb, rc, c)
    trap2 = LabeledQuad(Trapezoid(r), c, rc, rd, d)
    tiles = (_ccw(shrunk),)
    for trap in (trap1, trap2):
        tiles += tuple(_realize_into(_pair_tree(False), ecls, trap, (), 0)[0])
    return DissectionPlan(
        root=root,
        tiles=tiles,
        tree=Construction("por5"),
        pinned=(),
        gc=False,
        cuts=(),
    )


def _even_general_pieces(
    nu: Fraction, k: Fraction, frame: LabeledQuad
) -> tuple[Point, Point, Trapezoid]:
    """Cut points of the scaled copy against the two filler triangles."""
    a, b, c, d = frame.points
    big_b, big_c, big_d = vscale(k, b), vscale(k, c), vscale(k, d)
    z1 = _meet(big_b, c, vscale(nu, big_b), vscale(nu, big_c))
    z2 = _meet(c, big_d, vscale(nu, big_c), vscale(nu, big_d))
    ratio = classify_quadrangle((b, vscale(nu, big_b), z1, c)).cls
    assert isinstance(ratio, Trapezoid)
    return z1, z2, ratio


def dissect_even_general(cls: GenericQuad, n: int) -> DissectionPlan:
    """n >= 6 even copies of a generic quadrangle, not glass-cut.

    An expanded frame holds the original, a reversed affine copy, and two
    filler trapezoids of a ratio that is affine in the frame size.  The
    frame size is solved so that this ratio is exactly the pair ratio
    alpha * beta, and the fillers then split into 2 and n - 4 copies
    through the checked cut.  Four copies are impossible; odd counts are
    handled by dissect_odd.
    """
    if not isinstance(cls, GenericQuad):
        raise ValueError(f"need a generic class, got {cls}")
    if n % 2:
        raise UnrealizableError(f"dissect_even_general handles even counts, got {n}")
    if n < 6:
        raise UnrealizableError(
            f"no self-affine dissection of a generic quadrangle into {n} tiles exists"
        )
    ecls = _exact_generic(cls)
    frame = standard_placement(ecls)
    a, b, c, d = frame.points
    mirrored = flip(ecls)
    mu_hat = (1 - ecls.beta) / (1 - ecls.alpha)
    nu_hat = (1 - mirrored.beta) / (1 - mirrored.alpha)
    assert c == vadd(vscale(mu_hat, b), vscale(nu_hat, d))
    t = 2 - mu_hat - nu_hat
    assert 0 < t < 1, "reversed copy fell outside the frame"
    k = 1 / t
    big_b, big_c, big_d = vscale(k, b), vscale(k, c), vscale(k, d)
    pair = Trapezoid(ecls.alpha * ecls.beta)
    # The filler (b, nu*kB, z1, c), kB = big_b, has one leg on line AB and
    # the other on line (kB, c), so its legs meet at kB, and its parallel
    # sides are bc and the segment at nu*kB, parallel to kB kC.  Its ratio is
    # the ratio of their distances from kB, k(1 - nu)/(k - 1) =
    # (1 - nu)/(1 - t): affine in nu, it is the pair ratio at nu0 below, and
    # t < nu0 < 1.
    nu0 = 1 - (1 - t) * pair.gamma
    z1, z2, filler = _even_general_pieces(nu0, k, frame)
    assert filler == pair, "filler ratio is not the pair ratio"

    original = LabeledQuad(ecls, a, b, c, d)
    reversed_pts = (c, z2, vscale(nu0, big_c), z1)
    rev_cl = classify_quadrangle(reversed_pts)
    assert rev_cl.cls == canonicalize(ecls), "reversed copy is not the same class"
    reversed_copy = LabeledQuad(
        rev_cl.cls, *(reversed_pts[j] for j in rev_cl.labeling)
    )
    trap1 = LabeledQuad(pair, b, vscale(nu0, big_b), z1, c)
    trap2_pts = (c, z2, vscale(nu0, big_d), d)
    assert classify_quadrangle(trap2_pts).cls == pair, "filler ratios disagree"
    trap2 = LabeledQuad(pair, *trap2_pts)

    rest = _pair_tree(False) if n == 6 else _fill_tree((n - 4) // 2, _trapezoid_branch(ecls)[0])
    pieces = [original, reversed_copy]
    for tree, trap in ((_pair_tree(False), trap1), (rest, trap2)):
        pieces += _realize_into(tree, ecls, trap, (), 0)[0]

    scale = 1 / (nu0 * k)
    tiles = tuple(
        _ccw(LabeledQuad(p.cls, *(vscale(scale, pt) for pt in p.points)))
        for p in pieces
    )
    return DissectionPlan(
        root=frame,
        tiles=tiles,
        tree=Construction("even_general", (("n", n),)),
        pinned=(nu0,),
        gc=False,
        cuts=(),
    )
