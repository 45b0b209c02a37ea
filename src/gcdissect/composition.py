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
using the flipped parameters, so ClassTerm normalizes it away.  For T and P
tiles the flag is real (it decides whether glueing happens along constant
sides) and undefined rows raise GlueingError.

Each row is written once, in ROWS, and carries three things: its forward
image (compose_sets, combine), its inverse, which picks operand classes that
glue to a given parent class (decompose), and its cut geometry, which places
the two children inside a concrete parent quad (cut_quad).  Rows work on
pieces: the members of a ClassSet as seen on one tree edge.  A Q piece is a
quotient with a range of betas, a T piece a range of ratios, and a P piece
the parallelogram; a single class is the degenerate closed range.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .affine_types import (
    AffineClass,
    CutRecord,
    GenericQuad,
    LabeledQuad,
    Parallelogram,
    Trapezoid,
    affine_quotient,
    flip,
    lerp,
)
from .errors import GlueingError, UnrealizableError
from .scalars import QUOTIENT_TIE_REL, Scalar, is_exact, quotients_equal, scalar_close


class Op(Enum):
    """The two glueing operations."""

    DOT = "dot"
    COLON = "colon"

    @property
    def symbol(self) -> str:
        return "." if self is Op.DOT else ":"


@dataclass(frozen=True)
class ClassTerm:
    """A class with a mirror flag, as it appears on a tree edge.

    Q-classes absorb the flag into their parameters at construction; for T
    and P the flag is kept and interpreted by the glueing table.
    """

    cls: AffineClass
    flipped: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.cls, GenericQuad) and self.flipped:
            object.__setattr__(self, "cls", flip(self.cls))
            object.__setattr__(self, "flipped", False)


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

    def scaled(self, c: Scalar) -> "Span":
        """Image under multiplication by a constant 0 < c <= 1."""
        return Span(self.lo * c, self.lo_closed, self.hi * c, self.hi_closed)

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
    reverses.
    """
    return Span(
        (1 - s.hi) / (1 - q * s.hi), s.hi_closed, (1 - s.lo) / (1 - q * s.lo), s.lo_closed
    )


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

    def flipped(self) -> "QCurve":
        """Image of the member set under flip: same quotient, mapped betas."""
        return QCurve(self.quotient, Interval(*_flip_betas(self.quotient, self.betas)))


class Piece(NamedTuple):
    """One operand of the table: a kind, its edge flag and its span.

    kind "Q" is {Q(quotient*b, b) : b in span}, with the edge flag already
    absorbed into the parameters (flag is always False); kind "T" is
    {T(g) : g in span}; kind "P" is the parallelogram (span None).
    """

    kind: str
    flag: bool
    span: Optional[Span]
    quotient: Scalar = 1


@dataclass(frozen=True)
class ClassSet:
    """Finite union of points, trapezoid intervals, and Q-curves; has_p
    tracks the parallelogram class separately."""

    q_points: tuple[GenericQuad, ...] = ()
    t_points: tuple[Trapezoid, ...] = ()
    t_intervals: tuple[Interval, ...] = ()
    q_curves: tuple[QCurve, ...] = ()
    has_p: bool = False

    def __bool__(self) -> bool:
        return bool(
            self.q_points or self.t_points or self.t_intervals or self.q_curves or self.has_p
        )

    def members(self) -> Iterator[AffineClass]:
        """The isolated-point members (intervals and curves are uncountable)."""
        yield from self.q_points
        yield from self.t_points
        if self.has_p:
            yield Parallelogram()

    # Pieces on an unflagged and on a flagged edge, built once per set:
    # search composes the same subtree sets many times.

    @cached_property
    def _unflagged(self) -> tuple[Piece, ...]:
        return _pieces_of(self, False)

    @cached_property
    def _flagged(self) -> tuple[Piece, ...]:
        return _pieces_of(self, True)

    @cached_property
    def signature(self) -> tuple[tuple[str, Scalar], ...]:
        """Sorted, duplicate-free (kind, quotient) of the unflagged pieces.

        The rows fix a glued set's kinds and quotients from the operands'
        kinds, quotients and edge flags, not their spans, so equal signatures
        glue to equal signatures (float quotients up to roundoff).
        """
        return tuple(sorted({(p.kind, p.quotient) for p in self._unflagged}))


def singleton(cls: AffineClass) -> ClassSet:
    if isinstance(cls, GenericQuad):
        return ClassSet(q_points=(cls,))
    if isinstance(cls, Trapezoid):
        return ClassSet(t_points=(cls,))
    return ClassSet(has_p=True)


# ---------------------------------------------------------------------------
# membership


def member(s: ClassSet, c: AffineClass, tol: Scalar = 0) -> bool:
    """Whether c lies in s, componentwise within tol.

    tol = 0 demands exact membership including interval endpoint strictness;
    tol > 0 softens interval endpoints and compares parameters by |diff|.
    Q-membership against a curve needs the quotient to match within tol and
    the beta coordinate to land in the curve's range.
    """
    if isinstance(c, Parallelogram):
        return s.has_p
    if isinstance(c, Trapezoid):
        for t in s.t_points:
            if scalar_close(t.gamma, c.gamma, tol):
                return True
        return any(i.contains(c.gamma, tol) for i in s.t_intervals)
    for q in s.q_points:
        if scalar_close(q.alpha, c.alpha, tol) and scalar_close(q.beta, c.beta, tol):
            return True
    cq = affine_quotient(c)
    return any(
        scalar_close(curve.quotient, cq, tol) and curve.betas.contains(c.beta, tol)
        for curve in s.q_curves
    )


def may_hold(signature: tuple, c: AffineClass, tol: Scalar = 0) -> bool:
    """Necessary condition of member: can a set with this signature hold c?

    Kinds must match; a generic c also needs a quotient Q with |Q - alpha/beta|
    <= 2*tol/(beta - tol), from member's tests |d alpha|, |d beta| <= tol and
    |d Q| <= tol (no bound at tol >= beta).  Exact values compare exactly (==
    at tol 0), floats in float, widened by the roundoff band QUOTIENT_TIE_REL.
    """
    kind = "P" if isinstance(c, Parallelogram) else "T" if isinstance(c, Trapezoid) else "Q"
    quotients = [q for k, q in signature if k == kind]
    if kind != "Q" or tol >= c.beta:
        return bool(quotients)
    cq = affine_quotient(c)
    bound = 2 * tol / (c.beta - tol) if tol else 0
    if not all(map(is_exact, (cq, bound, *quotients))):
        bound = float(bound) * (1 + QUOTIENT_TIE_REL) + QUOTIENT_TIE_REL * float(cq)
    return any(abs(q - cq) <= bound for q in quotients)


# ---------------------------------------------------------------------------
# pieces


def _point(x: Scalar) -> Span:
    return Span(x, True, x, True)


def _pieces_of(s: ClassSet, flipped: bool) -> tuple[Piece, ...]:
    out = []
    for q in s.q_points:
        r = q.alpha / q.beta
        betas = _point(q.beta)
        out.append(Piece("Q", False, _flip_betas(r, betas) if flipped else betas, r))
    for c in s.q_curves:
        betas = _flip_betas(c.quotient, c.betas) if flipped else c.betas
        out.append(Piece("Q", False, betas, c.quotient))
    out.extend(Piece("T", flipped, _point(t.gamma)) for t in s.t_points)
    out.extend(Piece("T", flipped, i) for i in s.t_intervals)
    if s.has_p:
        out.append(Piece("P", flipped, None))
    return tuple(out)


def _class_set(pieces: Iterable[Piece]) -> ClassSet:
    """Deduplicated, deterministically ordered ClassSet of result pieces."""
    qp, tp, ti, qc = [], [], [], []
    has_p = False
    for p in set(pieces):
        s = p.span
        if p.kind == "P":
            has_p = True
        elif p.kind == "T":
            if s.lo == s.hi:
                tp.append(Trapezoid(s.lo))
            else:
                ti.append(Interval(*s))
        elif s.lo == s.hi:
            qp.append(GenericQuad(p.quotient * s.lo, s.lo))
        else:
            qc.append(QCurve(p.quotient, Interval(*s)))
    qp.sort(key=lambda q: (q.alpha, q.beta))
    tp.sort(key=lambda t: t.gamma)
    ti.sort(key=lambda i: (i.lo, i.hi, i.lo_closed, i.hi_closed))
    qc.sort(key=lambda c: (c.quotient, c.betas.lo, c.betas.hi, c.betas.lo_closed))
    return ClassSet(tuple(qp), tuple(tp), tuple(ti), tuple(qc), has_p)


def _t(s: Span) -> Piece:
    return Piece("T", False, s)


_P = Piece("P", False, None)


def _at(piece: Piece, x: Scalar) -> AffineClass:
    """The member of a Q or T piece at span value x."""
    return GenericQuad(piece.quotient * x, x) if piece.kind == "Q" else Trapezoid(x)


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


def _pick(s: Span, prefer: Optional[Scalar] = None) -> Scalar:
    """prefer when s contains it, else the closed lower end, else the middle."""
    if prefer is not None and s.contains(prefer):
        return prefer
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
# the rows: forward image, inverse, cut geometry

TakeLam = Callable[[], Scalar]
Cut = tuple[LabeledQuad, LabeledQuad, CutRecord]


def _dot(a: Piece, b: Piece) -> tuple[Piece, ...]:
    # Q . Q, Q . T and T . T: parameters multiply (a T piece has quotient 1)
    return (Piece(a.kind, False, a.span.times(b.span), a.quotient * b.quotient),)


def _dot_inverse(a, b, parent, tol):
    if a.kind == "Q":
        if not (
            isinstance(parent, GenericQuad)
            and scalar_close(parent.alpha, a.quotient * b.quotient * parent.beta, tol)
        ):
            return None
        product = parent.beta
    elif isinstance(parent, Trapezoid):
        product = parent.gamma
    else:
        return None
    xy = _split(a.span, b.span, product, tol)
    return xy and (_at(a, xy[0]), _at(b, xy[1]))


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
    betas = a.span.times(b.span)
    if quotients_equal(a.quotient, b.quotient):
        return (_t(betas.scaled(a.quotient)),)
    lo, hi = sorted((a.quotient, b.quotient))
    return (Piece("Q", False, betas.scaled(hi), lo / hi),)


def _colon_qq_inverse(a, b, parent, tol):
    if quotients_equal(a.quotient, b.quotient):
        if not isinstance(parent, Trapezoid):
            return None
        product = parent.gamma / a.quotient
    else:
        lo, hi = sorted((a.quotient, b.quotient))
        if not (
            isinstance(parent, GenericQuad)
            and scalar_close(parent.alpha, lo / hi * parent.beta, tol)
        ):
            return None
        product = parent.beta / hi
    xy = _split(a.span, b.span, product, tol)
    return xy and (_at(a, xy[0]), _at(b, xy[1]))


def _cut_colon(parent: LabeledQuad, left, right, take_lam: TakeLam) -> Cut:
    """Cut from ab to dc with the two children facing opposite apexes.

    One child keeps the parent's orientation, the other is mirror-labeled.
    Which one depends on the order of the two cross products alpha1*beta2
    and beta1*alpha2; at a tie the parent is the trapezoid they glue to.
    """
    a, b, c, d = parent.points
    a1, b1 = left.alpha, left.beta
    u = a1 * right.beta
    v = b1 * right.alpha
    if u > v and not quotients_equal(u, v):
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


def _mirror_partner(g: Scalar, s: Span, gp: Scalar) -> Optional[Scalar]:
    """A ratio in s that glues with the fixed ratio g to T(gp) under
    T^F . T^F, or None."""
    if g < gp:
        return _pick(s, gp)
    if g == gp and s.contains(gp):
        return gp
    return _below(s, gp)


def _mirror_tt_inverse(a, b, parent, tol):
    sa, sb = a.span, b.span
    if isinstance(parent, Parallelogram):
        g = _pick(sa)
        return Trapezoid(g), Trapezoid(_pick(sb, g))
    if not isinstance(parent, Trapezoid):
        return None
    gp = parent.gamma
    # Fix one ratio, a single-valued operand's first, then find its partner.
    if sa.lo == sa.hi:
        fixed = ((sa.lo, False),)
    elif sb.lo == sb.hi:
        fixed = ((sb.lo, True),)
    else:
        inside = gp if sa.contains(gp) else None
        fixed = ((_below(sa, gp), False), (_below(sb, gp), True), (inside, False))
    for g, from_b in fixed:
        h = None if g is None else _mirror_partner(g, sa if from_b else sb, gp)
        if h is not None:
            pair = (Trapezoid(g), Trapezoid(h))
            return pair[::-1] if from_b else pair
    return None


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


def _mirror_tp_inverse(t, p, parent, tol):
    if isinstance(parent, Trapezoid):
        g = _below(t.span, parent.gamma)
        if g is not None:
            return Trapezoid(g), Parallelogram()
    return None


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


def _dot_pp_inverse(a, b, parent, tol):
    return (Parallelogram(), Parallelogram()) if isinstance(parent, Parallelogram) else None


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
    maps two operand pieces to the parent's pieces; inverse maps two
    operand pieces and a parent class to effective operand classes that
    glue to it, or None.  Both take the pieces in the row's order.  cut
    places the children of a concrete parent quad; it takes the effective
    classes in tree order, since the placement depends on it.
    """

    name: str
    op: Op
    left: tuple[str, bool]
    right: tuple[str, bool]
    forward: Callable[[Piece, Piece], tuple[Piece, ...]]
    inverse: Callable[..., Optional[tuple[AffineClass, AffineClass]]]
    cut: Callable[[LabeledQuad, AffineClass, AffineClass, TakeLam], Cut]


_Q, _T, _TF, _PU = ("Q", False), ("T", False), ("T", True), ("P", False)

ROWS = (
    Row("Q . Q", Op.DOT, _Q, _Q, _dot, _dot_inverse, _cut_apex),
    Row("Q : Q", Op.COLON, _Q, _Q, _colon_qq, _colon_qq_inverse, _cut_colon),
    Row("Q . T", Op.DOT, _Q, _T, _dot, _dot_inverse, _cut_apex),
    Row("T . T", Op.DOT, _T, _T, _dot, _dot_inverse, _cut_apex),
    Row("T^F . T^F", Op.DOT, _TF, _TF, _mirror_tt, _mirror_tt_inverse, _cut_mirror_tt),
    Row("T^F . P", Op.DOT, _TF, _PU, _mirror_tp, _mirror_tp_inverse, _cut_mirror_tp),
    Row("P . P", Op.DOT, _PU, _PU, _dot_pp, _dot_pp_inverse, _cut_pp),
)

# (op, left kind, left flag, right kind, right flag) -> (row, swapped); a
# swapped entry matches the row with its operands in the other order.
_TABLE: dict[tuple, tuple[Row, bool]] = {}
for _row in ROWS:
    _TABLE[(_row.op, *_row.left, *_row.right)] = (_row, False)
    _TABLE.setdefault((_row.op, *_row.right, *_row.left), (_row, True))


def _lookup(op: Op, left: ClassTerm, right: ClassTerm) -> tuple[Row, bool]:
    (a,) = _pieces_of(singleton(left.cls), left.flipped)
    (b,) = _pieces_of(singleton(right.cls), right.flipped)
    found = _TABLE.get((op, a.kind, a.flag, b.kind, b.flag))
    if found is None:
        pattern = f"{a.kind}{'^F' * a.flag} {op.symbol} {b.kind}{'^F' * b.flag}"
        raise GlueingError(
            f"no glueing row for {pattern}; the rows are {', '.join(r.name for r in ROWS)}"
        )
    return found


def _row_pairs(
    left: ClassSet, left_flipped: bool, right: ClassSet, right_flipped: bool, op: Op
) -> Iterator[tuple[Row, bool, Piece, Piece]]:
    """(row, swapped, a, b) for every piece pair that has a row, with a and
    b in the row's operand order."""
    right_pieces = right._flagged if right_flipped else right._unflagged
    for a in left._flagged if left_flipped else left._unflagged:
        for b in right_pieces:
            found = _TABLE.get((op, a.kind, a.flag, b.kind, b.flag))
            if found is not None:
                row, swapped = found
                yield (row, True, b, a) if swapped else (row, False, a, b)


# ---------------------------------------------------------------------------
# the table applied: forward, inverse, cut


def combine(left: ClassTerm, right: ClassTerm, op: Op) -> ClassSet:
    """One table row applied to two single-class terms.

    Returns the set of possible parent classes (a singleton for the
    determinate rows, an interval-with-P for the mirror trapezoid rows).
    Undefined patterns raise GlueingError naming the pattern.
    """
    _lookup(op, left, right)
    return compose_sets(
        singleton(left.cls), left.flipped, singleton(right.cls), right.flipped, op
    )


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


def decompose(
    left: ClassSet,
    left_flipped: bool,
    right: ClassSet,
    right_flipped: bool,
    op: Op,
    parent: AffineClass,
    tol: Scalar = 0,
) -> tuple[AffineClass, AffineClass]:
    """Inverse of compose_sets at one parent class.

    Picks a member of each operand set, as the class its subtree carries
    (before the edge flag), such that glueing them can produce parent.
    Deterministic: pieces are tried in the order the sets store them and
    the first success wins.  Raises UnrealizableError when no pair works.
    """
    for row, swapped, a, b in _row_pairs(left, left_flipped, right, right_flipped, op):
        pair = row.inverse(a, b, parent, tol)
        if pair:
            eff_l, eff_r = pair[::-1] if swapped else pair
            return ClassTerm(eff_l, left_flipped).cls, ClassTerm(eff_r, right_flipped).cls
    raise UnrealizableError(f"no operand choice glues to {parent} at this node")


def cut_quad(
    parent: LabeledQuad,
    op: Op,
    left: AffineClass,
    left_flip: bool,
    right: AffineClass,
    right_flip: bool,
    take_lam: TakeLam = lambda: Fraction(1),
) -> Cut:
    """The row's cut geometry: split parent into children of classes left
    and right, given with their edge flags as on a tree.

    Does not check that the two classes glue to parent's class.  take_lam
    supplies the cut position where the row leaves it free.  Children come
    back in (left, right) order, mirror-labeled where a generic class sits
    on a flagged edge.
    """
    term_l, term_r = ClassTerm(left, left_flip), ClassTerm(right, right_flip)
    row = _lookup(op, term_l, term_r)[0]
    child_l, child_r, cut = row.cut(parent, term_l.cls, term_r.cls, take_lam)
    if left_flip and isinstance(left, GenericQuad):
        child_l = child_l.mirrored()
    if right_flip and isinstance(right, GenericQuad):
        child_r = child_r.mirrored()
    return child_l, child_r, cut
