"""Exact rational scalars: fractions.Fraction, under the name Rational.

All series coefficients, frame parameters and expansion coefficients in this
package are arbitrary-precision rationals, and every value handed out is in
lowest terms with a positive denominator.  (Series store integer
numerators over one shared denominator instead, see the series module;
their coefficients come out as values of this type.)  The numerator and
denominator of a Rational are Python ints.

No floating point value is ever accepted or produced here: parsing takes
integer or "p/q" strings, formatting emits them back.
"""

from __future__ import annotations

from fractions import Fraction as Rational


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
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Rational(int(num), d)
    return Rational(int(body))


def format_rational(q) -> str:
    """Render a rational as "p" or "p/q" in lowest terms, q > 0: str() of
    a Rational, which is kept canonical.  A value of another type (an int,
    say) is coerced first."""
    return str(q if type(q) is Rational else Rational(q))
