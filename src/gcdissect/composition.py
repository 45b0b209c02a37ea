"""Partial glueing algebra on affine classes.

Two convex quadrangles sharing a full side merge into a convex quadrangle in
only a handful of patterns.  Writing x for the first tile's class, y for the
second, an optional ^F for a mirror-placed tile, and "dot"/"colon" for the
two ways the shared side can sit (dot: the shared side runs between two
opposite sides of the parent; colon: it runs between the other pair), the
complete table is:

    Q(a1,b1)   . Q(a2,b2)    -> Q(a1*a2, b1*b2)
    Q(a1,b1)   : Q(a2,b2)    -> Q(a1*b2, b1*a2) ordered by quotient,
                                or T(a1*b2) when the quotients are equal
    Q(a,b)     . T(g)        -> Q(a*g, b*g)        (T unflipped only)
    T(g1)      . T(g2)       -> T(g1*g2)
    T(g1)^F    . T(g2)^F     -> {T(g): min(g1,g2) <= g < 1} u {P}
                                (closed at the min only when g1 = g2)
    T(g0)^F    . P           -> {T(g): g0 < g < 1}
    P          . P           -> P

Mirror placement of a Q tile is not tracked with a flag: it is the same as
using the flipped parameters, so a flagged Q piece flips its betas.  For T
and P tiles the flag is real (it decides whether glueing happens along
constant sides) and undefined rows raise GlueingError.

Each row is written once, in ROWS: its forward image (compose_sets,
combine), its cut geometry, which places the two children inside a
concrete parent quad, its token image (glue_tokens), and on the four
product rows (Q . Q, Q : Q, Q . T, T . T) a factor: they glue single
values a, b to a*b*m with m = max(factor(a), factor(b)).  decompose picks
operand classes that glue to a given parent quad's class and cuts it with
the row it solved, so every cut is checked.  The inverse is no
column: a product row's follows from its forward piece and that m; the
mirror rows and P . P test a few members of each operand against their
forward image.  The same m, exact per quotient, gives the search's lookup
windows (glue_partners), and, against a wildcard operand, the windows a
set's pieces must meet for a leaf to glue it to a target within tol
(partner_targets).  The search composes each pair the lookup returns once,
with compose_sets, and then tests the built set (holds).  Rows work on
pieces, which is what a ClassSet holds: a Q piece is a quotient with a range
of betas, a T piece a range of ratios, and a P piece the parallelogram; a
single class is the degenerate closed range.
A set stores its pieces as on an unflagged edge, and _flag moves each onto
a flagged one.  A glued Q piece keeps the quotient its row computed, so
equal sets glue to equal sets; a float leaf's are powers of its quotient
that store their exponent, and Q : Q ties them by it.

A token stands for a set's pieces of one kind and quotient, whatever their
spans: ("Q", k) for quotient q^k at the leaf's quotient q, ("T",) and ("P",).
Whether a row applies depends only on kinds and flags, Q . Q adds exponents,
Q : Q takes their difference or ties to T, and the other rows give T or P,
so a glued set's tokens, emptiness included, follow from its operands'.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .affine_types import (
    AffineClass,
    CutRecord,
    GenericQuad,
    LabeledQuad,
    Parallelogram,
    Trapezoid,
    affine_quotient,
    lerp,
)
from .errors import GlueingError, UnrealizableError
from .scalars import Scalar, is_exact, quotients_equal, scalar_close


class Op(Enum):
    """The two glueing operations."""

    DOT = "dot"
    COLON = "colon"

    # Members are singletons: hash by identity in C, not Enum's hash of the name.
    __hash__ = object.__hash__

    @property
    def symbol(self) -> str:
        return "." if self is Op.DOT else ":"


class Span(NamedTuple):
    """Range of one piece parameter: beta on Q pieces, gamma on T pieces.

    Endpoints may individually be open or closed; a single value is the
    degenerate closed span lo == hi.
    """

    lo: Scalar
    lo_closed: bool
    hi: Scalar
    hi_closed: bool

    def contains(self, x: Scalar, tol: Scalar = 0) -> bool:
        """Membership; with tol > 0 endpoints soften and strictness is ignored."""
        if tol:
            return self.lo - tol <= x <= self.hi + tol
        if not self.lo <= x <= self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def times(self, other: "Span") -> "Span":
        """{x*y : x in self, y in other}; an endpoint is attained iff both
        factors attain theirs."""
        return Span(
            self.lo * other.lo,
            self.lo_closed and other.lo_closed,
            self.hi * other.hi,
            self.hi_closed and other.hi_closed,
        )


class Interval(Span):
    """Subinterval of (0, 1) of trapezoid ratios (or curve betas).

    Unlike a bare Span it is never a single value, and hi = 1 is always open
    (ratio 1 would be a parallelogram, tracked separately).
    """

    __slots__ = ()

    def __new__(cls, lo: Scalar, lo_closed: bool, hi: Scalar, hi_closed: bool):
        if not (0 < lo < hi <= 1):
            raise ValueError(f"interval ({lo}, {hi}) not inside (0, 1]")
        if hi == 1 and hi_closed:
            raise ValueError("interval closed at 1 is not a set of trapezoid ratios")
        return super().__new__(cls, lo, lo_closed, hi, hi_closed)


def _flip_betas(q: Scalar, s: Span) -> Span:
    """Image of a beta span under flip at quotient q.

    b -> (1-b)/(1-q*b) is a decreasing involution of (0,1), so the span
    reverses.  Sorted, since near q = 1 float rounding can cross the ends of
    a short span.
    """
    lo, hi = sorted(((1 - s.hi) / (1 - q * s.hi), (1 - s.lo) / (1 - q * s.lo)))
    return Span(lo, s.hi_closed, hi, s.lo_closed)


@dataclass(frozen=True)
class QCurve:
    """One-parameter family {Q(quotient*b, b) : b in betas}.

    Every Q-set produced by the table keeps the affine quotient constant
    along its parametric families, so a curve is determined by the quotient
    and the range of its beta coordinate.
    """

    quotient: Scalar
    betas: Interval

    def __post_init__(self) -> None:
        if not (0 < self.quotient < 1):
            raise ValueError(f"curve quotient {self.quotient} outside (0,1)")
        # flip sends beta 1 to 0, so such a curve would have no flipped image
        if self.betas.hi == 1:
            raise ValueError("curve betas must stay below 1")

    def at(self, beta: Scalar) -> GenericQuad:
        return GenericQuad(self.quotient * beta, beta)


class cached_attribute:
    """functools.cached_property without the lock Python 3.11 takes on a first
    read: the value goes into the instance's __dict__, which later reads find."""

    def __init__(self, func: Callable) -> None:
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Piece(NamedTuple):
    """One operand of the table: a kind, its edge flag and its span.

    kind "Q" is {Q(quotient*b, b) : b in span}, with the edge flag already
    absorbed into the parameters (flag is always False); kind "T" is
    {T(g) : g in span}; kind "P" is the parallelogram (span None).  A float
    leaf's Q pieces are base ** exponent, base its quotient; others have none.
    """

    kind: str
    flag: bool
    span: Optional[Span]
    quotient: Scalar = 1
    base: Optional[float] = None
    exponent: int = 1


# A goal for a set's pieces (partner_targets): kind, quotient, parameter span.
Window = tuple[str, Scalar, Span]

# The tokens of T and P pieces, and of a generic leaf's own set.
T_TOKEN, P_TOKEN = ("T",), ("P",)
LEAF_TOKENS = frozenset({("Q", 1)})


@dataclass(frozen=True)
class ClassSet:
    """Finite union of pieces, deduplicated and sorted by _class_set.

    q_points, t_points, t_intervals, q_curves and has_p read the pieces as
    classes: Q and T points, trapezoid intervals, Q-curves and the
    parallelogram.  Each view builds and validates its classes when read.
    """

    pieces: tuple[Piece, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.pieces)

    def _of(self, kind: str, point: bool) -> Iterator[Piece]:
        return (p for p in self.pieces if p.kind == kind and (p.span.lo == p.span.hi) == point)

    @property
    def q_points(self) -> tuple[GenericQuad, ...]:
        return tuple(GenericQuad(p.quotient * p.span.lo, p.span.lo) for p in self._of("Q", True))

    @property
    def t_points(self) -> tuple[Trapezoid, ...]:
        return tuple(Trapezoid(p.span.lo) for p in self._of("T", True))

    @property
    def t_intervals(self) -> tuple[Interval, ...]:
        return tuple(Interval(*p.span) for p in self._of("T", False))

    @property
    def q_curves(self) -> tuple[QCurve, ...]:
        return tuple(QCurve(p.quotient, Interval(*p.span)) for p in self._of("Q", False))

    @property
    def has_p(self) -> bool:
        return _P in self.pieces

    def members(self) -> Iterator[AffineClass]:
        """The isolated-point members (intervals and curves are uncountable)."""
        yield from self.q_points
        yield from self.t_points
        if self.has_p:
            yield Parallelogram()

    # The pieces on a flagged edge, built once per set: search composes the
    # same subtree sets many times.
    @cached_attribute
    def _flagged(self) -> tuple[Piece, ...]:
        return tuple(map(_flag, self.pieces))

    # Stored on first use: Fraction hashes in Python code, and each dict
    # operation on a set would hash every Fraction of its pieces again.
    def __hash__(self) -> int:
        return self._hash

    @cached_attribute
    def _hash(self) -> int:
        return hash(self.pieces)

    # Only the pieces are pickled: the stored hash holds str hashes, which
    # differ from process to process.
    def __getstate__(self) -> dict:
        return {"pieces": self.pieces}


def singleton(cls: AffineClass) -> ClassSet:
    return ClassSet((_piece(cls),))


# ---------------------------------------------------------------------------
# membership


def member(s: ClassSet, c: AffineClass, tol: Scalar = 0) -> bool:
    """Whether c lies in s, componentwise within tol.

    tol = 0 demands exact membership including interval endpoint strictness;
    tol > 0 softens interval endpoints and compares parameters by |diff|.
    Q-membership against a curve needs the quotient to match within tol and
    the beta coordinate to land in the curve's range.  A Q point stores its
    beta and quotient, and its alpha, quotient * beta, may miss an alpha by
    an ulp that alpha/beta does not: at tol 0 it holds c when the betas and
    either the alphas or the quotients are equal, so it holds both its own
    q_points class and every class whose piece it is.
    """
    return any(_piece_holds(p, c, tol) for p in s.pieces)


def _piece_holds(p: Piece, c: AffineClass, tol: Scalar) -> bool:
    """member on the one-piece set p."""
    if p.kind != _kind(c):
        return False
    if p.kind == "P":
        return True
    s = p.span
    if p.kind == "T":
        return scalar_close(s.lo, c.gamma, tol) if s.lo == s.hi else s.contains(c.gamma, tol)
    if s.lo == s.hi:
        # beta first: it rules out most points before alpha is multiplied out
        return scalar_close(s.lo, c.beta, tol) and (
            scalar_close(p.quotient * s.lo, c.alpha, tol)
            or not tol and p.quotient == affine_quotient(c)
        )
    return s.contains(c.beta, tol) and scalar_close(p.quotient, affine_quotient(c), tol)


def _kind(c: AffineClass) -> str:
    """The kind of c's pieces: "Q", "T" or "P"."""
    return "P" if isinstance(c, Parallelogram) else "T" if isinstance(c, Trapezoid) else "Q"


def may_hold(signature: tuple, c: AffineClass, tol: Scalar = 0) -> bool:
    """Necessary condition of member: may a set of these (kind, quotient) pieces hold c?

    Kinds must match; a generic c also needs a quotient Q with |Q - alpha/beta|
    <= 2*tol/(beta - tol), from member's tests |d alpha|, |d beta| <= tol and
    |d Q| <= tol (no bound at tol >= beta).  Exact values compare exactly (==
    at tol 0), floats in float, with no band: pieces store the q ** k tokens name.
    """
    kind = _kind(c)
    quotients = [q for k, q in signature if k == kind]
    if kind != "Q" or tol >= c.beta:
        return bool(quotients)
    cq = affine_quotient(c)
    bound = 2 * tol / (c.beta - tol) if tol else 0
    return any(abs(q - cq) <= bound for q in quotients)


# ---------------------------------------------------------------------------
# pieces


def _point(x: Scalar) -> Span:
    return Span(x, True, x, True)


def _piece(cls: AffineClass) -> Piece:
    """The unflagged piece of one class."""
    if isinstance(cls, GenericQuad):
        q = affine_quotient(cls)
        return Piece("Q", False, _point(cls.beta), q, None if is_exact(q) else q)
    if isinstance(cls, Trapezoid):
        return Piece("T", False, _point(cls.gamma))
    return _P


def _flag(p: Piece) -> Piece:
    """p on a flagged edge: a Q piece flips its betas, T and P take the flag."""
    if p.kind == "Q":
        return p._replace(span=_flip_betas(p.quotient, p.span))
    return p._replace(flag=True)


def _class_set(pieces: Iterable[Piece]) -> ClassSet:
    """Deduplicated, deterministically ordered ClassSet of result pieces."""
    return ClassSet(tuple(sorted(set(pieces))))


def _t(s: Span) -> Piece:
    return Piece("T", False, s)


_P = Piece("P", False, None)


def _members_at(a: Piece, b: Piece, xy: Optional[tuple]) -> Optional[tuple]:
    """The members of Q or T pieces a and b at span values xy, or None when
    there is no xy or it leaves (0, 1), as an open span end may at tol > 0."""
    if not xy or not all(0 < x < 1 for x in xy):
        return None
    return tuple(
        GenericQuad(p.quotient * x, x) if p.kind == "Q" else Trapezoid(x)
        for p, x in zip((a, b), xy)
    )


def _split(a: Span, b: Span, product: Scalar, tol: Scalar) -> Optional[tuple]:
    """(x, y) with x in a, y in b and x * y = product (to tol), or None.

    A single-valued span fixes its factor; otherwise x is the midpoint of
    the part of a that b can complement.
    """
    if a.lo == a.hi:
        x = a.lo
    elif b.lo == b.hi:
        x = product / b.lo
        return (x, b.lo) if a.contains(x, tol) else None
    else:
        lo, hi = max(a.lo, product / b.hi), min(a.hi, product / b.lo)
        if lo > hi or (lo == hi and not a.contains(lo)):
            return None
        x = (lo + hi) / 2
    y = product / x
    if not b.contains(y, tol):
        return None
    return x, (b.lo if b.lo == b.hi else y)


def _pick(s: Span) -> Scalar:
    """The closed lower end of s, else its middle."""
    return s.lo if s.lo_closed else (s.lo + s.hi) / 2


def _below(s: Span, bound: Scalar) -> Optional[Scalar]:
    """A member of s strictly below bound, or None."""
    if s.lo >= bound:
        return None
    return s.lo if s.lo_closed else (s.lo + min(s.hi, bound)) / 2


def _positive(lam: Scalar) -> Scalar:
    if lam <= 0:
        raise UnrealizableError(f"pinned cut ratio {lam} must be positive")
    return lam


# ---------------------------------------------------------------------------
# the rows: forward image, cut geometry, token image

TakeLam = Callable[[], Scalar]
Cut = tuple[LabeledQuad, LabeledQuad, CutRecord]


def _glued_q(span: Span, a: Piece, b: Piece, k: int, quotient: Scalar) -> Piece:
    """Q piece over span: base ** k if a and b are powers of one base, else quotient."""
    if a.base is not None and a.base == b.base:
        return Piece("Q", False, span, a.base ** k, a.base, k)
    return Piece("Q", False, span, quotient)


def _dot(a: Piece, b: Piece) -> tuple[Piece, ...]:
    # Q . Q, Q . T and T . T: parameters multiply (a T piece is q^0)
    span = a.span.times(b.span)
    if b.kind == "T":
        return (Piece(a.kind, False, span, a.quotient, a.base, a.exponent),)
    return (_glued_q(span, a, b, a.exponent + b.exponent, a.quotient * b.quotient),)


def _dot_tokens(a: tuple, b: tuple) -> tuple[tuple, ...]:
    # exponents add; only Q . Q has a Q second operand, and T has exponent 0
    return (("Q", a[1] + b[1]),) if b[0] == "Q" else (a,)


def _apex_params(cls: AffineClass) -> tuple[Scalar, Scalar]:
    if isinstance(cls, GenericQuad):
        return cls.alpha, cls.beta
    return cls.gamma, cls.gamma


def _cut_apex(parent: LabeledQuad, left, right, take_lam: TakeLam) -> Cut:
    """Cut from side ab to side dc, towards their common apex; the left
    child keeps the parent's a corner."""
    p1, q1 = _apex_params(left)
    pp, qp = _apex_params(parent.cls)
    x = lerp(parent.a, parent.b, (1 - p1) / (1 - pp))
    y = lerp(parent.d, parent.c, (1 - q1) / (1 - qp))
    return (
        LabeledQuad(left, parent.a, x, y, parent.d),
        LabeledQuad(right, x, parent.b, parent.c, y),
        CutRecord(parent.points, x, y, 0, 2),
    )


def _colon_qq(a: Piece, b: Piece) -> tuple[Piece, ...]:
    # betas scale by m = max(q1, q2), as in _inverse, also at a float tie;
    # powers of one base tie by exponent, other quotients by quotients_equal
    lo, hi = sorted((a.quotient, b.quotient))
    betas = a.span.times(b.span).times(_point(hi))
    shared = a.base is not None and a.base == b.base
    if a.exponent == b.exponent if shared else quotients_equal(lo, hi):
        return (_t(betas),)
    return (_glued_q(betas, a, b, abs(a.exponent - b.exponent), lo / hi),)


def _colon_qq_tokens(a: tuple, b: tuple) -> tuple[tuple, ...]:
    # q^j / q^k for j > k is q^(j-k); equal exponents tie
    return (T_TOKEN,) if a[1] == b[1] else (("Q", abs(a[1] - b[1])),)


def _cut_colon(parent: LabeledQuad, left, right, take_lam: TakeLam) -> Cut:
    """Cut from ab to dc with the two children facing opposite apexes.

    One child keeps the parent's orientation, the other is mirror-labeled.
    Which one depends on the order of the two cross products alpha1*beta2
    and beta1*alpha2; only a tie glues to a trapezoid parent, whatever
    roundoff does to the two products.
    """
    a, b, c, d = parent.points
    a1, b1 = left.alpha, left.beta
    u = a1 * right.beta
    v = b1 * right.alpha
    if u > v and not isinstance(parent.cls, Trapezoid):
        x = lerp(a, b, (1 - b1) / (1 - v))
        y = lerp(d, c, (1 - a1) / (1 - u))
        child_l = LabeledQuad(left, d, y, x, a)
        child_r = LabeledQuad(right, x, b, c, y)
    else:
        x = lerp(a, b, (1 - a1) / (1 - u))
        y = lerp(d, c, (1 - b1) / (1 - v))
        child_l = LabeledQuad(left, a, x, y, d)
        child_r = LabeledQuad(right, y, c, b, x)
    return child_l, child_r, CutRecord(parent.points, x, y, 0, 2)


def _mirror_tt(a: Piece, b: Piece) -> tuple[Piece, ...]:
    # everything from the joint min up, plus P; the min is attained only
    # when both operands attain it (g1 = g2 there)
    lo = min(a.span.lo, b.span.lo)
    closed = a.span.contains(lo) and b.span.contains(lo)
    return (_t(Span(lo, closed, 1, False)), _P)


def _cut_mirror_tt(parent: LabeledQuad, left, right, take_lam: TakeLam) -> Cut:
    """Cut from side da to side bc into two mirror-placed trapezoids.

    The child with the smaller ratio g_a takes the parent's a corner.  A
    parallelogram parent forces the cut position, and so does a trapezoid
    parent unless both ratios equal its own; then the cut is pinned as in
    P . P.
    """
    a, b, c, d = parent.points
    g_a, g_far = sorted((left.gamma, right.gamma))
    if isinstance(parent.cls, Parallelogram):
        u = (1 - g_far) / (1 - g_a * g_far)
        p = lerp(a, d, g_a * u)
        q = lerp(b, c, u)
        near = LabeledQuad(Trapezoid(g_a), q, p, a, b)
        far = LabeledQuad(Trapezoid(g_far), p, q, c, d)
    elif g_a == parent.cls.gamma and g_far == g_a:
        return _cut_pp(parent, left, right, take_lam)
    else:
        gp = parent.cls.gamma
        lam = (gp - g_a) / (1 - gp * g_far)
        if lam <= 0:
            raise UnrealizableError(
                f"trapezoid ratio {gp} does not lie above the glued ratio {g_a}"
            )
        p = lerp(a, d, 1 / (1 + lam * g_far))
        q = lerp(b, c, g_a / (g_a + lam))
        near = LabeledQuad(Trapezoid(g_a), a, b, q, p)
        far = LabeledQuad(Trapezoid(g_far), c, d, p, q)
    children = (near, far) if left.gamma <= right.gamma else (far, near)
    return (*children, CutRecord(parent.points, p, q, 3, 1))


def _mirror_tp(t: Piece, p: Piece) -> tuple[Piece, ...]:
    return (_t(Span(t.span.lo, False, 1, False)),)


def _cut_mirror_tp(parent: LabeledQuad, left, right, take_lam: TakeLam) -> Cut:
    """Trapezoid parent into a mirror-placed trapezoid plus parallelogram."""
    a, b, c, d = parent.points
    t_left = isinstance(left, Trapezoid)
    g0 = (left if t_left else right).gamma
    gp = parent.cls.gamma
    if not g0 < gp:
        raise UnrealizableError(
            f"parallelogram complement needs ratio below {gp}, got {g0}"
        )
    t = (1 - gp) / (1 - g0)
    p = lerp(a, d, t)
    q = lerp(b, c, g0 * t / gp)
    near = LabeledQuad(Trapezoid(g0), a, b, q, p)
    far = LabeledQuad(Parallelogram(), p, q, c, d)
    children = (near, far) if t_left else (far, near)
    return (*children, CutRecord(parent.points, p, q, 3, 1))


def _dot_pp(a: Piece, b: Piece) -> tuple[Piece, ...]:
    return (_P,)


def _cut_pp(parent: LabeledQuad, left, right, take_lam: TakeLam) -> Cut:
    """Cut from side da to side bc at the pinned ratio; the left child
    keeps side ab.  Also the free case of T^F . T^F."""
    a, b, c, d = parent.points
    h = 1 / (1 + _positive(take_lam()))
    p = lerp(a, d, h)
    q = lerp(b, c, h)
    return (
        LabeledQuad(left, a, b, q, p),
        LabeledQuad(right, p, q, c, d),
        CutRecord(parent.points, p, q, 3, 1),
    )


class Row(NamedTuple):
    """One line of the glueing table.

    left and right are the operand patterns (kind, mirror flag).  forward
    maps two operand pieces to the parent's pieces; tokens maps two operand
    tokens to the tokens of forward's pieces.  cut places the children of a
    concrete parent quad; it takes the effective classes in tree order,
    since the placement depends on it.  A product row has a factor and one
    forward piece: it glues single values a, b to a*b*m, m = max(factor(a),
    factor(b)) (1 on the dot rows, max(q1, q2) on Q : Q).  _inverse solves
    that, and solves every other row by testing a few members of each
    operand with forward.  All but cut take operands in the row's order.
    """

    name: str
    op: Op
    left: tuple[str, bool]
    right: tuple[str, bool]
    forward: Callable[[Piece, Piece], tuple[Piece, ...]]
    cut: Callable[[LabeledQuad, AffineClass, AffineClass, TakeLam], Cut]
    tokens: Callable[[tuple, tuple], tuple[tuple, ...]]
    factor: Optional[Callable[[Piece], Scalar]] = None


_Q, _T, _TF, _PU = ("Q", False), ("T", False), ("T", True), ("P", False)

ROWS = (
    Row("Q . Q", Op.DOT, _Q, _Q, _dot, _cut_apex, _dot_tokens, lambda a: 1),
    Row("Q : Q", Op.COLON, _Q, _Q, _colon_qq, _cut_colon, _colon_qq_tokens, lambda a: a.quotient),
    Row("Q . T", Op.DOT, _Q, _T, _dot, _cut_apex, _dot_tokens, lambda a: 1),
    Row("T . T", Op.DOT, _T, _T, _dot, _cut_apex, _dot_tokens, lambda a: 1),
    Row("T^F . T^F", Op.DOT, _TF, _TF, _mirror_tt, _cut_mirror_tt,
        lambda a, b: (T_TOKEN, P_TOKEN)),
    Row("T^F . P", Op.DOT, _TF, _PU, _mirror_tp, _cut_mirror_tp, lambda a, b: (T_TOKEN,)),
    Row("P . P", Op.DOT, _PU, _PU, _dot_pp, _cut_pp, lambda a, b: (P_TOKEN,)),
)

# (op, left kind, left flag, right kind, right flag) -> (row, swapped); a
# swapped entry matches the row with its operands in the other order.
_TABLE: dict[tuple, tuple[Row, bool]] = {}
for _row in ROWS:
    _TABLE[(_row.op, *_row.left, *_row.right)] = (_row, False)
    _TABLE.setdefault((_row.op, *_row.right, *_row.left), (_row, True))


def _tries(p: Piece, parent: AffineClass) -> Iterator[tuple[Piece, AffineClass]]:
    """Members of a T or P piece to test against parent, each as a one-member
    piece and its class: P itself; for T the parent's ratio g when the span
    holds it, a member below g, then _pick's member."""
    if p.kind == "P":
        yield p, Parallelogram()
        return
    s, xs = p.span, []
    if isinstance(parent, Trapezoid):
        g = parent.gamma
        xs = [g if s.contains(g) else None, _below(s, g)]
    for x in [*xs, _pick(s)]:
        if x is not None:
            yield p._replace(span=_point(x)), Trapezoid(x)


def _inverse(row: Row, a: Piece, b: Piece, parent: AffineClass, tol: Scalar):
    """Effective operand classes from pieces a and b that glue to parent
    under row, or None.  A product row's one forward piece fixes the
    parent's kind and quotient, and its parameter is then a*b*m.  Any
    other row takes the first pair of _tries whose forward image holds
    parent exactly, whatever tol: an open end of it stays open."""
    if row.factor is None:
        for x, cx in _tries(a, parent):
            for y, cy in _tries(b, parent):
                if any(_piece_holds(p, parent, 0) for p in row.forward(x, y)):
                    return cx, cy
        return None
    (p,) = row.forward(a, b)
    if p.kind != _kind(parent) or (
        p.kind == "Q" and not scalar_close(parent.alpha, p.quotient * parent.beta, tol)
    ):
        return None
    value = parent.beta if p.kind == "Q" else parent.gamma
    xy = _split(a.span, b.span, value / max(row.factor(a), row.factor(b)), tol)
    return _members_at(a, b, xy)


def _row_pairs(
    left: ClassSet, left_flipped: bool, right: ClassSet, right_flipped: bool, op: Op
) -> Iterator[tuple[Row, bool, Piece, Piece]]:
    """(row, swapped, a, b) for every piece pair that has a row, with a and
    b in the row's operand order."""
    right_pieces = right._flagged if right_flipped else right.pieces
    for a in left._flagged if left_flipped else left.pieces:
        for b in right_pieces:
            found = _TABLE.get((op, a.kind, a.flag, b.kind, b.flag))
            if found is not None:
                row, swapped = found
                yield (row, True, b, a) if swapped else (row, False, a, b)


# ---------------------------------------------------------------------------
# the table applied: forward, inverse, cut, tokens


def combine(
    left: AffineClass, left_flipped: bool, right: AffineClass, right_flipped: bool, op: Op
) -> ClassSet:
    """One table row applied to two classes, given with their edge flags.

    Returns the set of possible parent classes (a singleton for the
    determinate rows, an interval-with-P for the mirror trapezoid rows).
    Undefined patterns raise GlueingError naming the pattern.
    """
    ls, rs = singleton(left), singleton(right)
    if next(_row_pairs(ls, left_flipped, rs, right_flipped, op), None) is None:
        (a,) = ls._flagged if left_flipped else ls.pieces
        (b,) = rs._flagged if right_flipped else rs.pieces
        pattern = f"{a.kind}{'^F' * a.flag} {op.symbol} {b.kind}{'^F' * b.flag}"
        raise GlueingError(
            f"no glueing row for {pattern}; the rows are {', '.join(r.name for r in ROWS)}"
        )
    return compose_sets(ls, left_flipped, rs, right_flipped, op)


def compose_sets(
    left: ClassSet, left_flipped: bool, right: ClassSet, right_flipped: bool, op: Op
) -> ClassSet:
    """combine lifted over all pairs of members; impossible pairs are skipped.

    The result may be empty, which means no parent class exists for this
    edge configuration.
    """
    return _class_set(
        p
        for row, _, a, b in _row_pairs(left, left_flipped, right, right_flipped, op)
        for p in row.forward(a, b)
    )


def holds(s: ClassSet, goal: list, tol: Scalar = 0) -> bool:
    """Whether s holds one of goal's classes (member at tol), or meets one of
    its windows (partner_targets)."""
    test = _meets if goal and isinstance(goal[0], tuple) else _piece_holds
    return any(test(p, c, tol) for p in s.pieces for c in goal)


def _meets(p: Piece, window: Window, tol: Scalar) -> bool:
    """Whether p has a parameter in window: the same kind and quotient, and
    spans that touch; at tol 0 a point window must lie in p's span, whose
    open ends stay open."""
    kind, quotient, w = window
    if p.kind != kind or p.quotient != quotient:
        return False
    if w.lo == w.hi and not tol:
        return p.span.contains(w.lo)
    return p.span.lo <= w.hi and w.lo <= p.span.hi


def _value_range(c, tol: float) -> tuple[float, float]:
    """The values target c admits: a window's span, or a class's value
    (beta of Q, gamma of T) within tol."""
    if isinstance(c, tuple):
        return float(c[2].lo), float(c[2].hi)
    t = float(c.gamma if isinstance(c, Trapezoid) else c.beta)
    return t - tol, t + tol


def glue_partners(
    rights: Iterable[tuple[int, ClassSet, bool]], targets: list, tol: Scalar = 0
) -> Callable[[ClassSet, bool, Op], set[int]]:
    """An index of right edges (position, set, flag): the returned function
    maps a left edge (set, flag) and an op to a superset of the positions of
    the right edges with which it glues to a set that holds one of targets
    (holds: classes or windows).  On a product row, single values a and b glue to a*b*m, so
    b reaches a target's values [lo, hi] only if it is in [lo/(a*m),
    hi/(a*m)], widened for roundoff and found by bisect.  The right point
    pieces are grouped by kind, flag and quotient (for a float leaf's, by
    exponent), so each group has its exact m = max(factor(a), factor(b)).
    A piece with a real span, or a row with no factor, admits every right
    edge of its pattern."""
    points: dict[tuple, list] = defaultdict(list)
    spans: dict[tuple, set[int]] = defaultdict(set)
    for j, s, f in rights:
        for b in s._flagged if f else s.pieces:
            if b.span is not None and b.span.lo == b.span.hi:
                points[b.kind, b.flag, float(b.quotient)].append((float(b.span.lo), j))
            else:
                spans[b.kind, b.flag].add(j)
    # (kind, flag) -> per quotient (a piece of it, its sorted values, their positions);
    # float quotients that round together differ by less than the widening
    index: dict[tuple, list] = defaultdict(list)
    for (kind, flag, q), vj in points.items():
        index[kind, flag].append((Piece(kind, flag, None, q), *zip(*sorted(vj))))
    every = {key: {j for *_, js in g for j in js} for key, g in index.items()}
    keys = index.keys() | spans.keys()
    ranges = [_value_range(c, float(tol)) for c in targets if not isinstance(c, Parallelogram)]

    def partners(left: ClassSet, left_flipped: bool, op: Op) -> set[int]:
        out: set[int] = set()
        for a in left._flagged if left_flipped else left.pieces:
            for key in keys:
                found = _TABLE.get((op, a.kind, a.flag, *key))
                if found is None:
                    continue
                out |= spans[key]
                factor = found[0].factor
                if factor is None or a.span.lo != a.span.hi:
                    out.update(every.get(key, ()))
                    continue
                x, fa = float(a.span.lo), float(factor(a))
                for b, values, js in index.get(key, ()):
                    xm = x * max(fa, factor(b))
                    for lo, hi in ranges:
                        hi /= xm
                        out.update(js[bisect_left(values, lo / xm - 1e-9 * hi):
                                      bisect_right(values, hi * (1 + 1e-9))])
        return out

    return partners


def partner_targets(
    leaf: AffineClass, exponents: Iterable[int], targets: list[AffineClass], tol: Scalar = 0
) -> Optional[list[Window]]:
    """Windows (kind, quotient, span) that a set's pieces must meet (_meets)
    for the leaf, glued to the set under either op and any edge flags, to
    give one of targets within tol.

    The rows are run against a wildcard operand: a T piece and, per exponent
    j, a Q piece of quotient q ** j (a float leaf's as a power of q, as glued
    pieces are), each over (0, 1).  A product row glues the leaf's value x
    and the partner's y to x*y*m, so a target value t needs y in
    [(t - tol)/(x*m), (t + tol)/(x*m)], and the glued quotient must pass
    may_hold.  On a flagged Q edge the window is taken back through the
    flip, so every window is a span of the stored piece; see _window.  An
    exact leaf at tol 0 gets closed points.  None when a row met has no
    factor: no piece is ruled out."""
    tol = tol or 0  # a float 0 would turn exact windows into floats
    lp = _piece(leaf)
    whole = Span(0, False, 1, False)
    wildcard = ClassSet(
        (_t(whole), *(_glued_q(whole, lp, lp, j, lp.quotient**j) for j in sorted(exponents)))
    )
    out: dict[Window, None] = {}
    leaf_set = singleton(leaf)
    for op in Op:
        for fl in (False, True):
            for f2 in (False, True):
                for row, swapped, a, b in _row_pairs(leaf_set, fl, wildcard, f2, op):
                    if row.factor is None:
                        return None
                    (p,) = row.forward(a, b)
                    partner, x = (a, b.span.lo) if swapped else (b, a.span.lo)
                    xm = x * max(row.factor(a), row.factor(b))
                    for c in targets:
                        if _kind(c) != p.kind:
                            continue
                        t = c.beta if p.kind == "Q" else c.gamma
                        w = _window((t - tol) / xm, (t + tol) / xm, tol)
                        if w and f2 and partner.kind == "Q":
                            w = _window(*_flip_betas(partner.quotient, w)[::2], tol)
                        if w and may_hold(((p.kind, p.quotient),), c, tol):
                            out[partner.kind, partner.quotient, w] = None
    return list(out)


def _window(lo: Scalar, hi: Scalar, tol: Scalar) -> Optional[Span]:
    """The closed span [lo, hi], widened by 1e-9 of hi for roundoff when
    float, clipped to [0, 1]; None when it misses (0, 1) (at tol 0, a point
    at 0 or 1 does too)."""
    if not is_exact(lo):
        lo, hi = lo - 1e-9 * abs(hi), hi + 1e-9 * abs(hi)
    lo, hi = max(lo, 0), min(hi, 1)
    if lo > hi or lo == hi and not (tol or 0 < lo < 1):
        return None
    return Span(lo, True, hi, True)


def decompose(
    left: ClassSet,
    left_flipped: bool,
    right: ClassSet,
    right_flipped: bool,
    op: Op,
    parent: LabeledQuad,
    tol: Scalar = 0,
    take_lam: TakeLam = lambda: Fraction(1),
) -> Cut:
    """Inverse of compose_sets at one parent quad, and its cut.

    Picks a member of each operand set such that glueing them can produce
    parent's class, and cuts parent with the same row: each child carries
    the member its subtree has (before the edge flag), mirror-labeled where
    a generic one sits on a flagged edge.
    Deterministic: pieces are tried in the order the sets store them and
    the first success wins.  Raises UnrealizableError when no pair works.
    """
    for row, swapped, a, b in _row_pairs(left, left_flipped, right, right_flipped, op):
        pair = _inverse(row, a, b, parent.cls, tol)
        if pair:
            eff_l, eff_r = pair[::-1] if swapped else pair
            child_l, child_r, cut = row.cut(parent, eff_l, eff_r, take_lam)
            if left_flipped and isinstance(eff_l, GenericQuad):
                child_l = child_l.mirrored()
            if right_flipped and isinstance(eff_r, GenericQuad):
                child_r = child_r.mirrored()
            return child_l, child_r, cut
    raise UnrealizableError(f"no operand choice glues to {parent.cls} at this node")


def glue_tokens(
    xs: frozenset[tuple], fx: bool, ys: frozenset[tuple], fy: bool, op: Op
) -> frozenset[tuple]:
    """compose_sets on tokens: the tokens of the set glued from sets with
    tokens xs and ys on edges flagged fx and fy (empty when nothing glues)."""
    out = []
    for x in xs:
        for y in ys:
            # as on pieces, a Q operand's flag is absorbed into its parameters
            found = _TABLE.get((op, x[0], fx and x[0] != "Q", y[0], fy and y[0] != "Q"))
            if found is not None:
                row, swapped = found
                out.extend(row.tokens(y, x) if swapped else row.tokens(x, y))
    return frozenset(out)

