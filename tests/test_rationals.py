"""The exact rational type: parsing, formatting, float and bool rejection."""

import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from recasymp import Rational, format_rational, parse_rational, rat

BOUND = 10**40


def test_rational_is_fraction():
    assert Rational is Fraction


def test_lowest_terms_positive_denominator():
    q = Rational(-6, -8)
    assert q.numerator == 3
    assert q.denominator == 4
    q = Rational(6, -8)
    assert q.numerator == -3
    assert q.denominator == 4


@pytest.mark.parametrize(
    "text,num,den",
    [
        ("7/24", 7, 24),
        ("-119/1152", -119, 1152),
        ("0", 0, 1),
        ("5", 5, 1),
        ("-5", -5, 1),
        ("10/4", 5, 2),
        ("  3/9 ", 1, 3),
        ("-267645803/2407897497600", -267645803, 2407897497600),
    ],
)
def test_parse_rational(text, num, den):
    q = parse_rational(text)
    assert q.numerator == num
    assert q.denominator == den


def test_parse_rational_rejects_zero_denominator():
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValueError):
        parse_rational("one half")


@pytest.mark.parametrize(
    "value,text",
    [
        (Rational(7, 24), "7/24"),
        (Rational(-7, 24), "-7/24"),
        (Rational(4, 2), "2"),
        (Rational(0), "0"),
        (Rational(-3), "-3"),
        # Values of another type are coerced first, with the same strings.
        (-4, "-4"),
        (True, "1"),
        (False, "0"),
        (Fraction(-3, 6), "-1/2"),
    ],
)
def test_format_rational(value, text):
    assert format_rational(value) == text


@given(
    st.one_of(
        st.builds(
            Rational,
            st.integers(-BOUND, BOUND),
            st.integers(-BOUND, BOUND).filter(bool),
        ),
        st.integers(-BOUND, BOUND),
        st.booleans(),
    )
)
def test_format_rational_is_numerator_over_denominator(value):
    # str() of the coerced value, against the explicit rendering it replaced.
    q = Rational(value)
    want = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    assert format_rational(value) == want


def test_format_parse_round_trip():
    for num in range(-12, 13):
        for den in range(1, 9):
            q = Rational(num, den)
            assert parse_rational(format_rational(q)) == q


def test_format_and_parse_past_the_int_string_limit():
    # Past the 4300 digits that str() and int() of an int allow on Python
    # 3.11+, the digits go through Decimal; the limit itself stays.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for q in (Rational(10**5000 + 7), Rational(-(10**5000 + 7), 3**10000), Rational(1, 3**10000)):
        text = format_rational(q)
        p, _, d = text.partition("/")
        assert Decimal(p) == q.numerator and Decimal(d or 1) == q.denominator
        assert parse_rational(f" {text} ") == rat(text) == q
    assert parse_rational("+" + "1" * 5000) == (10**5000 - 1) // 9
    # Junk of any length keeps int()'s ValueError.
    for junk in ("+-" + "1" * 5000, "1" * 5000 + "/y", "1" * 5000 + "x", "1/" + "0" * 5000):
        with pytest.raises(ValueError):
            parse_rational(junk)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_rat_accepts_int_string_rational():
    assert rat(3) == Rational(3)
    assert rat("3/4") == Rational(3, 4)
    assert rat(Rational(3, 4)) == Rational(3, 4)


def test_rat_rejects_float():
    with pytest.raises(TypeError):
        rat(0.5)


@pytest.mark.parametrize("value", [True, False])
def test_rat_rejects_bool(value):
    # A bool is an int to Python, but True is never a meant 1.
    with pytest.raises(TypeError, match="bool"):
        rat(value)


def test_exactness():
    # 1/3 has no finite binary representation; exact arithmetic must not care.
    third = Rational(1, 3)
    assert third + third + third == 1
    assert Rational(1, 10) * 10 == 1
