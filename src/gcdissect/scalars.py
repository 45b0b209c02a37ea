"""Scalar values shared across the package.

Every quantity in the geometry layer is either an exact rational
(``fractions.Fraction``) or a float that arrived from user input or from a
numeric solver. Exact values flow through constructions unchanged so that
verification can run at tolerance zero; floats are tolerated everywhere but
carry their inexactness with them. Helpers here keep that distinction in one
place.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, int, float]

# Relative width of the tie band when the colon rule compares the quotients
# of two different float classes.  Flipped float parameters reproduce the
# quotient only to roundoff, so an exact == would misread "equal quotients"
# as a two-sided split.  Powers of one float class tie by exponent instead.
QUOTIENT_TIE_REL = 1e-12


def is_exact(x: Scalar) -> bool:
    """True when x is an exact rational (Fraction or int), False for floats."""
    return isinstance(x, (Fraction, int)) and not isinstance(x, bool)


def divide(n: Scalar, d: Scalar) -> Scalar:
    """n / d, as a Fraction when both are ints, so integer input stays exact."""
    if isinstance(n, int) and isinstance(d, int):
        return Fraction(n, d)
    return n / d


def exactify(x: Scalar) -> Fraction:
    """Fraction from an exact scalar. Refuses floats: converting would launder
    roundoff into 'exact' arithmetic."""
    if isinstance(x, float):
        raise TypeError(f"refusing to treat float {x!r} as exact")
    return Fraction(x)


def scalar_close(a: Scalar, b: Scalar, tol: Scalar = 0) -> bool:
    """|a - b| <= tol.  tol == 0 compares with ==; otherwise the test is exact
    when all three values are exact and done in float when any is a float."""
    if tol == 0:
        return a == b
    if is_exact(a) and is_exact(b) and is_exact(tol):
        return abs(a - b) <= tol
    return abs(float(a) - float(b)) <= float(tol)


def quotients_equal(u: Scalar, v: Scalar) -> bool:
    """u == v for exact values; for floats, equal within the relative band
    QUOTIENT_TIE_REL, which ties the quotients of two different float classes."""
    if is_exact(u) and is_exact(v):
        return u == v
    uf, vf = float(u), float(v)
    return abs(uf - vf) <= QUOTIENT_TIE_REL * max(abs(uf), abs(vf))


def _finite(x: float, text: object) -> float:
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {text!r}")
    return x


def parse_scalar(text: str) -> Scalar:
    """Parse 'p/q' or an integer as Fraction, anything else as float.

    CLI entry point for numbers: '2/3' -> Fraction(2,3), '4' -> Fraction(4),
    '0.75' -> 0.75 (float, inexact on purpose).
    """
    s = text.strip()
    try:
        return Fraction(s) if ("/" in s or s.lstrip("+-").isdigit()) else _finite(float(s), text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a number: {text!r}") from exc


def scalar_to_json(x: Scalar) -> object:
    """JSON form: exact -> 'p/q' string, float -> {'dec': repr}."""
    if is_exact(x):
        # an int is its own numerator, over denominator 1
        return f"{x.numerator}/{x.denominator}"
    return {"dec": repr(float(x))}


def scalar_from_json(obj: object) -> Scalar:
    """Inverse of scalar_to_json; refuses malformed and non-finite values,
    booleans, and decimals too large for a float, with ValueError."""
    try:
        if isinstance(obj, str):
            return Fraction(obj)
        if isinstance(obj, dict) and set(obj) >= {"dec"} and not isinstance(obj["dec"], bool):
            return _finite(float(obj["dec"]), obj)
        if is_exact(obj):
            return Fraction(obj)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad scalar encoding: {obj!r}") from exc
    raise ValueError(f"bad scalar encoding: {obj!r}")
