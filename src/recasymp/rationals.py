"""Exact rational scalars: fractions.Fraction, under the name Rational.

All series coefficients, frame parameters and expansion coefficients in this
package are arbitrary-precision rationals, and every value handed out is in
lowest terms with a positive denominator.  (Series store integer
numerators over one shared denominator instead, see the series module;
their coefficients come out as values of this type.)  The numerator and
denominator of a Rational are Python ints.

No floating point value is ever accepted or produced here: parsing takes
integer or "p/q" strings, formatting emits them back.  Both go past the
int-string digit limit of Python 3.11+ (4300 digits by default), which
str() and int() of an int enforce, without changing it: str() and int()
are tried first, and only a ValueError of that limit takes the exact
Decimal route, which has none.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction as Rational

from .errors import quoted

#: Integers up to this many bits go to Decimal in one conversion; on
#: CPython 3.11 splitting starts to pay at about 30000 bits.
_DECIMAL_SPLIT_BITS = 32768


def rat(value) -> "Rational":
    """Coerce to an exact rational.

    Accepts int, Rational (returned as it is), or a string "p" or "p/q"
    (optional sign, arbitrary size).  Floats are rejected: converting one
    would break every exactness guarantee downstream.  So are bools: Python
    counts them as ints, but a JSON true is not the number 1.
    """
    if isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise TypeError(f"{kind} is not an exact rational; pass int or 'p/q' string")
    if isinstance(value, str):
        return parse_rational(value)
    return value if type(value) is Rational else Rational(value)


def parse_rational(text: str) -> "Rational":
    """Parse "p" or "p/q" into a rational, validating q != 0."""
    body = text.strip()
    if "/" in body:
        num, _, den = body.partition("/")
        d = _int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational literal {quoted(text)}")
        return Rational(_int(num), d)
    return Rational(_int(body))


def _int(text: str) -> int:
    """int(text).  Past the int-string digit limit, which int() refuses
    with a ValueError as it refuses junk, a signed string of decimal digits
    is read exactly through Decimal; junk keeps int()'s error."""
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        if not (body[1:] if body[:1] in ("+", "-") else body).isdecimal():
            raise
        return int(Decimal(body))


def _decimal(value: int) -> Decimal:
    """A non-negative integer as an exact Decimal, whose str() has no digit
    limit.

    Decimal(value) takes time quadratic in the length, so past
    _DECIMAL_SPLIT_BITS the integer is split by bits into halves and
    rebuilt as hi * 2^h + lo in exact Decimal arithmetic, whose big
    products are fast.  Halving gives at most two widths per level, and
    each power of two is computed once."""
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    powers: dict[int, Decimal] = {}

    def convert(v: int, bits: int) -> Decimal:
        if bits <= _DECIMAL_SPLIT_BITS:
            return Decimal(v)
        h = bits // 2
        if h not in powers:
            powers[h] = ctx.power(2, h)
        hi = convert(v >> h, bits - h)
        return ctx.add(ctx.multiply(hi, powers[h]), convert(v & ((1 << h) - 1), h))

    return convert(value, value.bit_length())


def _digits(value: int) -> str:
    """str(value) of an int past the int-string digit limit."""
    return ("-" if value < 0 else "") + str(_decimal(abs(value)))


def format_rational(q) -> str:
    """Render a rational as "p" or "p/q" in lowest terms, q > 0: str() of
    a Rational, which is kept canonical, or the same digits through
    Decimal past the int-string digit limit.  A value of another type (an
    int, say) is coerced first."""
    q = q if type(q) is Rational else Rational(q)
    try:
        return str(q)
    except ValueError:
        p, d = q.as_integer_ratio()
        return _digits(p) if d == 1 else f"{_digits(p)}/{_digits(d)}"
