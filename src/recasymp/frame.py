"""Stretched-exponential growth frames and their shift ratios.

A frame packages the four parameters of the leading growth factor

    F(n) = exp( beta*(n log n - n) + c*sqrt(n) + alpha*log n + kappa ),

so beta controls the n^(beta*n) superexponential part, c the stretched
exponential e^(c sqrt n), alpha the polynomial part n^alpha, and kappa a
constant normalization.  An asymptotic solution of a recurrence is
F(n) times a correction series in n^(-1/2).

The computational workhorse is the exact shift ratio

    F(n - j) / F(n) = x^(2*beta*j) * exp(g_j(x)),      x = n^(-1/2),

where g_j = beta*A + c*B + alpha*C is a power series with positive
valuation built from three universal series that depend on the shift j
alone (kappa cancels in the ratio).  With l = log(1 - j*x^2) they are

    A = (x^-2 - j) * l + j      = sum_{m>=1} j^(m+1) x^(2m) / (m (m+1)),
    B = x^-1 * (e^(l/2) - 1)    = sum_{m>=1} binom(1/2, m) (-j)^m x^(2m-1),
    C = l                       = -sum_{m>=1} j^m x^(2m) / m,

the logarithmic and binomial series (Flajolet & Sedgewick, Analytic
Combinatorics, App. A), so each is written down in O(T) exact operations.

The monomial prefactor x^(2*beta*j) only stays inside the ramification-2
lattice when 2*beta*j is an integer; anything else raises.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import RamificationError
from .rationals import Rational, format_rational, rat
from .series import PuiseuxSeries, add, exp_series


@dataclass(frozen=True)
class Frame:
    """Immutable growth frame (beta, c, alpha, kappa), all exact rationals."""

    beta: Rational
    c: Rational
    alpha: Rational
    kappa: Rational = 0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, rat(getattr(self, f.name)))

    def __repr__(self):
        return "Frame(" + ", ".join(f"{k}={v}" for k, v in self.to_json_dict().items()) + ")"

    def to_json_dict(self) -> dict:
        return {f.name: format_rational(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Frame":
        return cls(data["beta"], data["c"], data["alpha"], data.get("kappa", 0))


def shift_exponent(beta, j: int) -> int:
    """2*beta*j as an exact integer, the power of x carried by the shift
    ratio; raises RamificationError when it is not an integer."""
    s = rat(beta) * (2 * j)
    if s.denominator != 1:
        raise RamificationError(
            f"shift ratio exponent 2*beta*j = {format_rational(s)} for j = {j} "
            "is not an integer; the series lattice has ramification 2"
        )
    return int(s)


def frame_ratio_parts(j: int, T: int):
    """The three universal series (A, B, C) with F(n-j)/F(n) equal to
    x^(2*beta*j) * exp(beta*A + c*B + alpha*C), each known through O(x^T).

    Each is written down from its closed form in O(T) exact operations:

        A = sum_{m>=1} j^(m+1) x^(2m) / (m (m+1))      = (x^-2 - j) l + j,
        B = sum_{m>=1} w_m x^(2m-1)                    = ((1 - j x^2)^(1/2) - 1) / x,
        C = -sum_{m>=1} j^m x^(2m) / m                 = l,

    where l = log(1 - j x^2) and w_m are the binomial weights of
    (1 - j x^2)^(1/2), stepped as w_0 = 1, w_m = w_(m-1) * (2m - 3) * j / (2m).
    Each part is built from its exact coefficients by
    PuiseuxSeries.from_terms.  They depend only on the shift j, so the
    frame finder expands exp(c*B + alpha*C) from them in powers of c and
    alpha.  For the same reason they are memoized per (j, T), in a memo of
    fixed size (_ratio_parts), once the arguments are checked: recurrences
    that share a shift and a window share the three series.
    """
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"shift must be a positive integer, got {j!r}")
    if T < 1:
        raise ValueError("need truncation >= 1")
    return _ratio_parts(j, T)


@lru_cache(maxsize=32)
def _ratio_parts(j: int, T: int) -> tuple:
    """frame_ratio_parts(j, T) for a checked shift and truncation."""
    a, b, c = {}, {}, {}
    for m in range(1, (T + 1) // 2):
        a[2 * m] = Rational(j ** (m + 1), m * (m + 1))
        c[2 * m] = Rational(-(j**m), m)
    w = Rational(1)
    for m in range(1, T // 2 + 1):
        w *= Rational((2 * m - 3) * j, 2 * m)
        b[2 * m - 1] = w
    return tuple(PuiseuxSeries.from_terms(part, T) for part in (a, b, c))


def frame_ratio(fr: Frame, j: int, T: int) -> PuiseuxSeries:
    """The exact shift ratio F(n-j)/F(n) as a Puiseux series in x.

    The result has valuation 2*beta*j and is known through
    O(x^(T + 2*beta*j)): T orders of the unit factor exp(g_j).  kappa drops
    out of the ratio, so two frames differing only in kappa give identical
    results.
    """
    s = shift_exponent(fr.beta, j)
    a_part, b_part, c_part = frame_ratio_parts(j, T)
    g = add(
        add(a_part.scale(fr.beta), b_part.scale(fr.c)),
        c_part.scale(fr.alpha),
    )
    return exp_series(g).x_shift(s)
