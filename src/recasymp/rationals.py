"""Exact rational arithmetic backend.

All series coefficients, frame parameters and expansion coefficients in this
package are arbitrary-precision rationals, and every value handed out is in
lowest terms with a positive denominator.  (Series store integer
numerators over one shared denominator instead, see the series module;
their coefficients come out as values of this type.)  gmpy2.mpq provides
that contract with C-speed arithmetic; fractions.Fraction provides the
identical contract in pure Python and is used as a fallback when gmpy2 is
not installed.

No floating point value is ever accepted or produced here: parsing takes
integer or "p/q" strings, formatting emits them back.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover
    from fractions import Fraction as Rational


def rat(value) -> "Rational":
    """Coerce to an exact rational.

    Accepts int, Rational, or a string of the form "p" or "p/q" (optional
    sign, arbitrary size).  Floats are rejected: silent binary-to-decimal
    conversion would break every exactness guarantee downstream.  So are
    bools: Python counts them as ints, but a JSON true is not the number 1.
    """
    if isinstance(value, (float, bool)):
        kind = type(value).__name__
        raise TypeError(f"{kind} is not an exact rational; pass int or 'p/q' string")
    if isinstance(value, str):
        return parse_rational(value)
    return Rational(value)


def parse_rational(text: str) -> "Rational":
    """Parse "p" or "p/q" into a rational, validating q != 0."""
    body = text.strip()
    if "/" in body:
        num, _, den = body.partition("/")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Rational(int(num), d)
    return Rational(int(body))


def format_rational(q) -> str:
    """Render a rational as "p" or "p/q" in lowest terms, q > 0.

    Both backends keep values canonical, so str() already has this shape;
    the integer case is normalised to drop the "/1".  Only a value of
    another type (an int, say) is coerced first.
    """
    if type(q) is not Rational:
        q = Rational(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
