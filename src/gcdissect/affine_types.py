"""Affine classes of convex quadrangles and exact classification.

Up to an affine map of the plane, a convex quadrangle is one of

* a parallelogram (both pairs of opposite sides parallel),
* a trapezoid, determined by the ratio gamma in (0, 1) of its short
  parallel side to its long one,
* a generic quadrangle (no parallel sides), determined by a pair
  0 < alpha < beta < 1.

The generic parameters come from extending opposite sides: label the
vertices (a, b, c, d) cyclically so that lines ab and dc meet at an apex s
strictly beyond b and beyond c, and lines ad and bc meet at an apex t
strictly beyond d and beyond c.  Then

    alpha = |bs| / |as|,    beta = |cs| / |ds|.

Exactly two labelings of a generic quadrangle satisfy alpha < beta; they
are related by the mirror relabeling (a, b, c, d) -> (a, d, c, b), which
multiplies both parameters by the flip factor

    f = (1 - beta) / ((1 - alpha) * beta).

Classification below is exact for exact input, on ints.  Float input is
classified with a relative tolerance; configurations too close to parallel
to call raise AmbiguousGeometryError instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import AmbiguousGeometryError, InvalidQuadrangleError
from .scalars import Scalar, divide, is_exact, scalar_close

Point = tuple[Scalar, Scalar]
Quad = tuple[Point, Point, Point, Point]

# Relative tolerance for float parallelism and collinearity tests.
FLOAT_GEOMETRY_TOL = 1e-9


@dataclass(frozen=True)
class GenericQuad:
    """Affine class of a convex quadrangle with no parallel sides."""

    alpha: Scalar
    beta: Scalar

    def __post_init__(self) -> None:
        if not (0 < self.alpha < self.beta < 1):
            raise ValueError(
                f"generic quadrangle needs 0 < alpha < beta < 1, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )


@dataclass(frozen=True)
class Trapezoid:
    """Affine class of a trapezoid; gamma = short parallel side / long one."""

    gamma: Scalar

    def __post_init__(self) -> None:
        if not (0 < self.gamma < 1):
            raise ValueError(f"trapezoid needs 0 < gamma < 1, got {self.gamma}")


@dataclass(frozen=True)
class Parallelogram:
    """Affine class of a parallelogram (a single class: all are equivalent)."""


AffineClass = Union[GenericQuad, Trapezoid, Parallelogram]


def class_is_exact(cls: AffineClass) -> bool:
    """True when every parameter of the class is an exact rational."""
    if isinstance(cls, GenericQuad):
        return is_exact(cls.alpha) and is_exact(cls.beta)
    if isinstance(cls, Trapezoid):
        return is_exact(cls.gamma)
    return True


def flip_factor(cls: AffineClass) -> Scalar:
    """Factor multiplying (alpha, beta) under the mirror relabeling.

    Trapezoids and parallelograms are mirror-symmetric as classes, so their
    factor is 1.
    """
    if isinstance(cls, GenericQuad):
        a, b = cls.alpha, cls.beta
        one = Fraction(1) if is_exact(a) and is_exact(b) else 1.0
        return (one - b) / ((one - a) * b)
    return 1


def flip(cls: AffineClass) -> GenericQuad:
    """Mirror-relabeled class: Q(alpha, beta) -> Q(f*alpha, f*beta).

    An involution; its fixed points are the affine kites.  Defined only for
    generic quadrangles: trapezoid orientation is an attribute of how a tile
    sits in a glueing, not of the class, and lives with the glueing algebra.
    """
    if not isinstance(cls, GenericQuad):
        raise ValueError(f"flip is defined only for generic quadrangles, got {cls!r}")
    f = flip_factor(cls)
    return GenericQuad(f * cls.alpha, f * cls.beta)


def affine_quotient(cls: AffineClass) -> Scalar:
    """alpha/beta for generic quadrangles, 1 otherwise.  Flip-invariant."""
    if isinstance(cls, GenericQuad):
        return cls.alpha / cls.beta
    return Fraction(1)


def is_affine_kite(cls: AffineClass, tol: Scalar = 0) -> bool:
    """True for classes fixed by mirror relabeling: Q with beta = 1/(2 - alpha),
    and parallelograms.  Trapezoids are never kites."""
    if isinstance(cls, Parallelogram):
        return True
    if not isinstance(cls, GenericQuad):
        return False
    return scalar_close(cls.beta * (2 - cls.alpha), 1, tol)


def canonicalize(cls: AffineClass) -> AffineClass:
    """Lexicographically smaller of the class and its flip."""
    if isinstance(cls, GenericQuad):
        flipped = flip(cls)
        if (flipped.alpha, flipped.beta) < (cls.alpha, cls.beta):
            return flipped
    return cls


def class_close(lhs: AffineClass, rhs: AffineClass, tol: Scalar = 0) -> bool:
    """Same affine class up to tol, comparing generic quads up to flip.

    Parameters are compared componentwise.  The flip orbit matters because
    float roundoff can land two nearby quadrangles on opposite sides of the
    canonical lex-min choice.
    """
    if isinstance(lhs, Parallelogram) or isinstance(rhs, Parallelogram):
        return isinstance(lhs, Parallelogram) and isinstance(rhs, Parallelogram)
    if isinstance(lhs, Trapezoid) or isinstance(rhs, Trapezoid):
        return (
            isinstance(lhs, Trapezoid)
            and isinstance(rhs, Trapezoid)
            and scalar_close(lhs.gamma, rhs.gamma, tol)
        )
    for cand in (rhs, flip(rhs)):
        if scalar_close(lhs.alpha, cand.alpha, tol) and scalar_close(lhs.beta, cand.beta, tol):
            return True
    return False


# ---------------------------------------------------------------------------
# vector helpers shared with the realizer and verifier


def vsub(p: Point, q: Point) -> Point:
    return (p[0] - q[0], p[1] - q[1])


def vadd(p: Point, q: Point) -> Point:
    return (p[0] + q[0], p[1] + q[1])


def vscale(t: Scalar, p: Point) -> Point:
    return (t * p[0], t * p[1])


def cross(u: Point, v: Point) -> Scalar:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Point, v: Point) -> Scalar:
    return u[0] * v[0] + u[1] * v[1]


def lerp(p: Point, q: Point, t: Scalar) -> Point:
    """Point at fraction t of the way from p to q."""
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def on_lattice(pts: list[Point]) -> tuple[int, list[Point]]:
    """(scale, points times scale): with every coordinate exact, scale is the
    lcm of their denominators and the points become ints; else 1, unchanged."""
    try:
        scale = math.lcm(*(c.denominator for p in pts for c in p))
    except AttributeError:  # floats have no denominator
        return 1, pts
    return scale, [(x.numerator * (scale // x.denominator),
                    y.numerator * (scale // y.denominator)) for x, y in pts]


# ---------------------------------------------------------------------------
# labeled quads and cuts


@dataclass(frozen=True)
class LabeledQuad:
    """Four concrete vertices in the reference labeling of their class.

    For a generic class the sides ab and dc extend to one apex and ad, bc
    to the other; for a trapezoid, bc is the short parallel side and ad the
    long one.  Either orientation is allowed; mirror-labeled quads carry
    the class of the mirror labeling.
    """

    cls: AffineClass
    a: Point
    b: Point
    c: Point
    d: Point

    @property
    def points(self) -> Quad:
        return (self.a, self.b, self.c, self.d)

    @property
    def is_ccw(self) -> bool:
        return cross(vsub(self.b, self.a), vsub(self.c, self.b)) > 0

    def mirrored(self) -> "LabeledQuad":
        """Relabel with reversed orientation; generic params become the flip."""
        if isinstance(self.cls, GenericQuad):
            return LabeledQuad(flip(self.cls), self.a, self.d, self.c, self.b)
        if isinstance(self.cls, Trapezoid):
            return LabeledQuad(self.cls, self.d, self.c, self.b, self.a)
        return LabeledQuad(self.cls, self.a, self.d, self.c, self.b)


@dataclass(frozen=True)
class CutRecord:
    """One straight cut, kept with the quad it subdivided.

    start_side and end_side index the parent's sides (0 = ab, 1 = bc,
    2 = cd, 3 = da); a glass cut always joins two opposite sides.
    """

    parent: Quad
    start: Point
    end: Point
    start_side: int
    end_side: int


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    """Result of classifying four concrete vertices.

    labeling holds indices into the input tuple: input[labeling[0]] plays
    the vertex a of the class's reference labeling, and so on.
    """

    cls: AffineClass
    labeling: tuple[int, int, int, int]


def _sign_of_cross(u: Point, v: Point, tol: float, what: str) -> int:
    """-1, 0, +1 for the cross product, with a refusal band for floats.

    Exact inputs compare against exact zero.  For float inputs a cross
    product within tol * |u| * |v| of zero but not exactly zero is too close
    to call, and classifying it either way would be a guess.
    """
    c = cross(u, v)
    if is_exact(c):
        return 0 if c == 0 else (1 if c > 0 else -1)
    if c == 0.0:
        return 0
    scale = (abs(u[0]) + abs(u[1])) * (abs(v[0]) + abs(v[1]))
    if abs(c) <= tol * scale:
        raise AmbiguousGeometryError(
            f"{what}: cross product {c!r} within tolerance of zero; "
            f"supply exact rationals to resolve"
        )
    return 1 if c > 0 else -1


def _validate_convex(pts: Quad, tol: float) -> None:
    if len(pts) != 4:
        raise InvalidQuadrangleError(f"need 4 vertices, got {len(pts)}")
    if len({tuple(p) for p in pts}) != 4:
        raise InvalidQuadrangleError("repeated vertex")
    signs = []
    for i in range(4):
        u = vsub(pts[(i + 1) % 4], pts[i])
        v = vsub(pts[(i + 2) % 4], pts[(i + 1) % 4])
        signs.append(_sign_of_cross(u, v, tol, f"corner at vertex {(i + 1) % 4}"))
    if 0 in signs:
        raise InvalidQuadrangleError("three consecutive vertices are collinear")
    if len(set(signs)) != 1:
        raise InvalidQuadrangleError("vertices are not in convex position in this order")


def _line_params(a: Point, b: Point, c: Point, d: Point) -> tuple[Scalar, Scalar, Scalar]:
    """(N, M, D), D > 0, with a + t(b-a) = c + u(d-c) at t = N/D, u = M/D."""
    r, s = vsub(b, a), vsub(d, c)
    denom = cross(r, s)
    diff = vsub(c, a)
    n, m = cross(diff, s), cross(diff, r)
    return (n, m, denom) if denom > 0 else (-n, -m, -denom)


def _apex_ratio(n: Scalar, d: Scalar) -> Scalar:
    """(t - 1) / t at t = n / d: the Fraction (n - d) / n on the lattice."""
    return Fraction(n - d, n) if isinstance(d, int) else (n / d - 1) / (n / d)


def classify_quadrangle(pts: Iterable[Point], tol: float = FLOAT_GEOMETRY_TOL) -> Classification:
    """Affine class of four vertices given in cyclic order.

    Either orientation is accepted.  Exact (Fraction or int) coordinates
    classify exactly, on ints after scaling by the lcm of their own
    denominators: a positive scaling keeps orientation, class and labeling.
    Float coordinates use tol as a relative threshold on the parallelism
    tests and raise AmbiguousGeometryError inside the refusal band.  Raises
    InvalidQuadrangleError unless the vertices are strictly convex in the
    given order.

    The labeling in the result maps the reference labeling of the reported
    class onto the input: for a trapezoid, (a, b, c, d) with bc the short
    parallel side and ad the long one; for a generic quadrangle, the
    lex-min (alpha, beta) labeling.
    """
    pts = on_lattice([tuple(p) for p in pts])[1]
    _validate_convex(pts, tol)

    sides = [vsub(pts[(i + 1) % 4], pts[i]) for i in range(4)]
    par02 = _sign_of_cross(sides[0], sides[2], tol, "sides 01 and 23") == 0
    par13 = _sign_of_cross(sides[1], sides[3], tol, "sides 12 and 30") == 0

    if par02 and par13:
        return Classification(Parallelogram(), (0, 1, 2, 3))
    if par02 or par13:
        return _classify_trapezoid(pts, sides, short_first=par02)
    return _classify_generic(pts)


def _side_ratio(u: Point, v: Point) -> Scalar:
    """|u| / |v| for antiparallel u, v, without square roots."""
    return divide(abs(dot(u, v)), dot(v, v))


def _classify_trapezoid(pts: Quad, sides: list[Point], short_first: bool) -> Classification:
    # Parallel pair is (side 0, side 2) when short_first else (side 1, side 3).
    i = 0 if short_first else 1
    u, v = sides[i], sides[i + 2]
    ratio = _side_ratio(u, v)
    if ratio == 1:
        # Parallel and equal would make a parallelogram, contradicting the
        # one-pair test; only reachable through float cancellation.
        raise AmbiguousGeometryError("parallel sides of equal length but not a parallelogram")
    if ratio < 1:
        start = (i + 3) % 4  # side i is bc, so a = vertex before it
    else:
        ratio = 1 / ratio
        start = (i + 1) % 4  # side i+2 is bc
    labeling = tuple((start + k) % 4 for k in range(4))
    return Classification(Trapezoid(ratio), labeling)  # type: ignore[arg-type]


def _classify_generic(pts: Quad) -> Classification:
    best: tuple[tuple[Scalar, Scalar], tuple[int, int, int, int]] | None = None
    orders = [tuple((s + k) % 4 for k in range(4)) for s in range(4)]
    orders += [tuple((s - k) % 4 for k in range(4)) for s in range(4)]
    for order in orders:
        a, b, c, d = (pts[j] for j in order)
        n_t, n_w, den = _line_params(a, b, d, c)
        if not (n_t > den and n_w > den):
            continue
        n_u, n_v, den_t = _line_params(a, d, b, c)
        if not (n_u > den_t and n_v > den_t):
            continue
        alpha, beta = _apex_ratio(n_t, den), _apex_ratio(n_w, den)
        if alpha < beta and (best is None or (alpha, beta) < best[0]):
            best = ((alpha, beta), order)  # type: ignore[assignment]
    if best is None:
        raise InvalidQuadrangleError("no labeling yields generic parameters; degenerate input")
    (alpha, beta), order = best
    return Classification(GenericQuad(alpha, beta), order)
