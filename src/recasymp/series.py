"""Truncated Puiseux series with exact coefficients.

The working variable is x = n^(-1/2), so a series in x with integer
exponents is a Puiseux series in 1/n whose lattice is fixed at
ramification 2.

A series is a triple (valuation v, coefficient tuple, truncation T) and
represents

    sum_{k=v}^{T-1} c_{k-v} x^k  +  O(x^T),

with the c stored densely (interior zeros explicit, len(coeffs) == T - v).
Nonzero series keep a nonzero leading coefficient: leading zeros are
normalised away by raising the valuation.  The zero series is the empty
tuple with v == T.  Instances are immutable.

Truncation orders obey the usual interval arithmetic of O-terms:

    add:        T = min(T1, T2)
    mul:        T = min(T1 + v2, T2 + v1)
    exp, log1p: T preserved (arguments must have positive valuation)
    shift substitution x -> x*(1 - j*x^2)^(-1/2): v and T preserved

Coefficients are exact rationals in the normal case, but every algorithm
here only uses ring operations plus division by integers, so series over
other exact commutative rings work too; the frame finder exploits that
with polynomial coefficients.
All floating point input is rejected.
"""

from __future__ import annotations

from math import gcd

from .errors import NegativeValuation, NonPositiveValuation
from .rationals import ONE, Rational


def _coerce(c):
    """Admit exact coefficients only; ints are promoted to rationals."""
    if isinstance(c, float):
        raise TypeError("float coefficients are not allowed in exact series")
    if isinstance(c, int):
        return Rational(c)
    return c


def _is_zero(c) -> bool:
    return bool(c == 0)


class PuiseuxSeries:
    """One truncated series.  Use the classmethods and module functions to
    build and combine instances; direct construction validates the dense
    coefficient contract."""

    __slots__ = ("valuation", "coeffs", "truncation")

    def __init__(self, valuation: int, coeffs, truncation: int):
        if truncation < valuation:
            raise ValueError("truncation below valuation")
        coeffs = [_coerce(c) for c in coeffs]
        if len(coeffs) != truncation - valuation:
            raise ValueError(
                f"need exactly truncation - valuation = "
                f"{truncation - valuation} coefficients, got {len(coeffs)}"
            )
        # Normalise: the leading stored coefficient must be nonzero, else
        # the valuation moves up; an all-zero series collapses to (T, (), T).
        lead = 0
        while lead < len(coeffs) and _is_zero(coeffs[lead]):
            lead += 1
        object.__setattr__(self, "valuation", valuation + lead)
        object.__setattr__(self, "coeffs", tuple(coeffs[lead:]))
        object.__setattr__(self, "truncation", truncation)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "PuiseuxSeries":
        """The zero series known through O(x^truncation)."""
        return cls(truncation, (), truncation)

    @classmethod
    def constant(cls, c, truncation: int) -> "PuiseuxSeries":
        """The constant c as a series with the given truncation (>= 1)."""
        if truncation < 1:
            raise ValueError("a constant needs truncation >= 1 to be visible")
        return cls.monomial(c, 0, truncation)

    @classmethod
    def one(cls, truncation: int) -> "PuiseuxSeries":
        return cls.constant(1, truncation)

    @classmethod
    def monomial(cls, c, exponent: int, truncation: int) -> "PuiseuxSeries":
        """c * x^exponent + O(x^truncation)."""
        if truncation <= exponent:
            raise ValueError("monomial exponent at or beyond truncation")
        coeffs = [c] + [0] * (truncation - exponent - 1)
        return cls(exponent, coeffs, truncation)

    @classmethod
    def from_terms(cls, terms: dict, truncation: int) -> "PuiseuxSeries":
        """Build from {exponent: coefficient}; exponents beyond the
        truncation are rejected rather than dropped."""
        if terms:
            lo = min(terms)
            hi = max(terms)
            if hi >= truncation:
                raise ValueError(f"term at x^{hi} is at or beyond O(x^{truncation})")
        else:
            lo = truncation
        coeffs = [0] * (truncation - lo)
        for k, c in terms.items():
            coeffs[k - lo] = c
        return cls(lo, coeffs, truncation)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, exponent: int):
        """The coefficient of x^exponent.  Exponents below the valuation
        are exactly zero; at or beyond the truncation they are unknown and
        asking for one is an error, not a zero."""
        if exponent >= self.truncation:
            raise ValueError(
                f"coefficient of x^{exponent} is beyond O(x^{self.truncation})"
            )
        if exponent < self.valuation:
            return Rational(0)
        return self.coeffs[exponent - self.valuation]

    def terms(self):
        """Iterate (exponent, coefficient) over stored nonzero terms."""
        for i, c in enumerate(self.coeffs):
            if not _is_zero(c):
                yield self.valuation + i, c

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return (
            self.valuation == other.valuation
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.valuation, self.truncation, self.coeffs))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*x^{k}" for k, c in self.terms()) or "0"
        return f"PuiseuxSeries({body} + O(x^{self.truncation}))"

    def truncate(self, truncation: int) -> "PuiseuxSeries":
        """Forget terms at and beyond the given (smaller) truncation."""
        if truncation > self.truncation:
            raise ValueError("cannot extend knowledge by truncating upward")
        if truncation >= self.truncation:
            return self
        v = min(self.valuation, truncation)
        return PuiseuxSeries(v, self.coeffs[: truncation - v], truncation)

    def x_shift(self, m: int) -> "PuiseuxSeries":
        """Multiply by the exact monomial x^m (m may be negative)."""
        return PuiseuxSeries(self.valuation + m, self.coeffs, self.truncation + m)

    def scale(self, c) -> "PuiseuxSeries":
        """Multiply every coefficient by the exact scalar c."""
        c = _coerce(c)
        if _is_zero(c):
            return PuiseuxSeries.zero(self.truncation)
        return PuiseuxSeries(
            self.valuation, [c * a for a in self.coeffs], self.truncation
        )


def add(s1: PuiseuxSeries, s2: PuiseuxSeries) -> PuiseuxSeries:
    """Sum, known through O(x^min(T1, T2)).

    The first operand's coefficients are copied into place and only the
    second's are added, so no output slot costs more than one addition."""
    t = min(s1.truncation, s2.truncation)
    v = min(s1.valuation, s2.valuation, t)
    out = [Rational(0)] * (t - v)
    lo = s1.valuation - v
    first = s1.coeffs[: max(0, t - s1.valuation)]
    out[lo : lo + len(first)] = first
    hi = lo + len(first)
    for k, c in enumerate(s2.coeffs[: max(0, t - s2.valuation)], s2.valuation - v):
        out[k] = out[k] + c if lo <= k < hi else c
    return PuiseuxSeries(v, out, t)


def mul(s1: PuiseuxSeries, s2: PuiseuxSeries) -> PuiseuxSeries:
    """Product, known through O(x^min(T1 + v2, T2 + v1)): each factor's
    O-term is multiplied by the other factor's leading monomial."""
    t = min(s1.truncation + s2.valuation, s2.truncation + s1.valuation)
    v = s1.valuation + s2.valuation
    if s1.is_zero or s2.is_zero:
        return PuiseuxSeries(t, (), t)
    n = t - v
    out = [Rational(0)] * n
    for i, a in enumerate(s1.coeffs):
        if i >= n:
            break
        if _is_zero(a):
            continue
        jmax = min(len(s2.coeffs), n - i)
        for j in range(jmax):
            b = s2.coeffs[j]
            if not _is_zero(b):
                out[i + j] = out[i + j] + a * b
    return PuiseuxSeries(v, out, t)


def _require_positive_valuation(s: PuiseuxSeries, what: str) -> None:
    if s.truncation < 1:
        raise NonPositiveValuation(
            f"{what} needs the argument known at least through O(x^1)"
        )
    if not s.is_zero and s.valuation <= 0:
        raise NonPositiveValuation(
            f"{what} is only defined for series with positive valuation, "
            f"got valuation {s.valuation}"
        )


def exp_series(s: PuiseuxSeries) -> PuiseuxSeries:
    """exp(s) for a series s with positive valuation; truncation preserved.

    Computed through the defining differential equation f' = s' f, whose
    coefficient recurrence m*f_m = sum_{i=1}^{m} i*s_i*f_{m-i} costs O(T^2)
    ring operations and divides only by integers.  The nonzero products
    i*s_i are formed once, before the recurrence runs.  When s lives on the
    exponents divisible by some step (an even series, say), so does exp(s),
    and the recurrence visits only those orders."""
    _require_positive_valuation(s, "exp_series")
    t = s.truncation
    ds = [
        (i, i * c)
        for i, c in enumerate(s.coeffs, s.valuation)
        if not _is_zero(c)
    ]
    step = gcd(*(i for i, _ in ds)) if ds else t
    f = [ONE] + [Rational(0)] * (t - 1)
    for m in range(step, t, step):
        acc = Rational(0)
        for i, d in ds:
            if i > m:
                break
            acc = acc + d * f[m - i]
        f[m] = acc / m
    return PuiseuxSeries(0, f, t)


def log1p_series(s: PuiseuxSeries) -> PuiseuxSeries:
    """log(1 + s) for a series s with positive valuation; truncation
    preserved.  Uses the recurrence from (1+s) g' = s', the exact inverse
    of the one behind exp_series."""
    _require_positive_valuation(s, "log1p_series")
    t = s.truncation
    sd = [Rational(0)] * t
    for i, c in enumerate(s.coeffs):
        sd[s.valuation + i] = c
    g = [Rational(0)] * t
    for m in range(1, t):
        acc = m * sd[m]
        for i in range(1, m):
            if not _is_zero(sd[m - i]):
                acc = acc - (i * g[i]) * sd[m - i]
        g[m] = acc / m
    return PuiseuxSeries(0, g, t)


def compose_shift(s: PuiseuxSeries, j: int) -> PuiseuxSeries:
    """Substitute x -> x * (1 - j*x^2)^(-1/2) into a power series s.

    This is exactly how a series in n^(-1/2) transforms under n -> n - j,
    so it realises the index shift on the slowly varying factor of an
    expansion.  Valuation and truncation are preserved.  Laurent input is
    rejected: negative powers would leave the power series ring."""
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"shift must be a positive integer, got {j!r}")
    if s.valuation < 0:
        raise NegativeValuation(
            f"shift substitution needs a power series, got valuation {s.valuation}"
        )
    t = s.truncation
    if s.is_zero:
        return s
    out = [Rational(0)] * (t - s.valuation)
    for k, c in zip(range(s.valuation, t), s.coeffs):
        # x^k picks up (1 - j*x^2)^(-k/2) = sum_i w_i x^(2i) with
        # w_0 = 1 and w_{i+1} = w_i * j*(k + 2i) / (2*(i + 1)).
        if _is_zero(c):
            continue
        w = ONE
        e = k
        i = 0
        while e < t:
            out[e - s.valuation] = out[e - s.valuation] + c * w
            w = w * Rational(j * (k + 2 * i), 2 * (i + 1))
            i += 1
            e += 2
    return PuiseuxSeries(s.valuation, out, t)
