"""Scalar helpers: parsing, exactness, JSON round-trips."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gcdissect.scalars import (
    divide,
    exactify,
    is_exact,
    parse_scalar,
    scalar_close,
    scalar_from_json,
    scalar_to_json,
)


def test_parse_scalar_forms():
    assert parse_scalar("2/3") == Fraction(2, 3)
    assert parse_scalar("4") == Fraction(4)
    assert parse_scalar("-7/2") == Fraction(-7, 2)
    got = parse_scalar("0.75")
    assert isinstance(got, float) and got == 0.75
    with pytest.raises(ValueError):
        parse_scalar("banana")
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    for text in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_is_exact():
    assert is_exact(Fraction(1, 3))
    assert is_exact(4)
    assert not is_exact(0.25)
    # bool is an int subtype but not a scalar
    assert not is_exact(True)


def test_divide_keeps_ints_exact():
    got = divide(5, 9)
    assert type(got) is Fraction and got == Fraction(5, 9)
    assert divide(Fraction(1, 3), 2) == Fraction(1, 6)
    got = divide(1.0, 4)
    assert type(got) is float and got == 0.25


def test_exactify_refuses_floats():
    assert exactify(Fraction(2, 5)) == Fraction(2, 5)
    assert exactify(3) == Fraction(3)
    with pytest.raises(TypeError):
        exactify(0.4)


def test_scalar_close_exact_and_float():
    assert scalar_close(Fraction(1, 3), Fraction(1, 3))
    assert not scalar_close(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))
    assert scalar_close(0.1 + 0.2, 0.3, 1e-12)
    assert not scalar_close(0.1, 0.2, 1e-3)


@given(st.fractions())
def test_json_round_trip_exact(x):
    assert scalar_from_json(scalar_to_json(x)) == x


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_json_round_trip_float(x):
    back = scalar_from_json(scalar_to_json(x))
    assert isinstance(back, float) and back == x


def test_json_rejects_garbage():
    for bad in ([1, 2], "1/0", {"dec": "nan"}, {"dec": "inf"}, {"dec": [1]}, {"dec": True},
                {"dec": 10**400}):
        with pytest.raises(ValueError):
            scalar_from_json(bad)


def test_json_strings_decode_as_fraction_does():
    # the strings refused above, spellings a plan document may hold, and odd ones
    for text in ("1/0", "2/4", " 3/4", "1.5", "-7/3", "+1/2", "1e3", "1_000/3", "0/5",
                 "nan", "inf", "", "1 /2", "1/2/3", "0x10", "\u0663/4"):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError):
                scalar_from_json(text)
        else:
            got = scalar_from_json(text)
            assert type(got) is Fraction and got == expected, text


def test_json_rejects_booleans():
    # bool is an int subclass; Fraction(True) would read true as 1
    for bad in (True, False):
        with pytest.raises(ValueError):
            scalar_from_json(bad)
    assert scalar_from_json(1) == Fraction(1)
