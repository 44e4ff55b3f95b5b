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

A and C are series in x^2 = 1/n, and B is odd.  So when c = 0 and beta*j
is an integer the ratio is y^(beta*j) * exp(beta*A + alpha*C) in
y = x^2 = 1/n, the lattice of ramification r = 1 (Birkhoff & Trjitzinsky,
Acta Math. 60, 1933), and frame_ratio writes it there on request, with A
and C read off the same closed forms at y^m instead of x^(2m).

When c != 0, B makes g_j dense, so its exp_series visits every order of x.
That unit is exp(beta*A + c*B) * exp(alpha*C): the first factor depends on
(beta, c, j, T) alone and is memoized, so the recurrences that share a
frame's beta and c build it once; the second is even, as C is, so its
exp_series visits half the orders, and it is skipped when alpha = 0.  Both
sides of the product are in lowest terms, so it stores what one exp_series
of g_j stores.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

from .errors import RamificationError
from .rationals import Rational, format_rational, rat
from .series import PuiseuxSeries, add, exp_series, mul


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


def shift_exponent(beta, j: int, r: int = 2) -> int:
    """r*beta*j as an exact integer, the power of z = n^(-1/r) carried by
    the shift ratio; raises RamificationError when it is not an integer."""
    s = rat(beta) * (r * j)
    if s.denominator != 1:
        raise RamificationError(
            f"shift ratio exponent {r}*beta*j = {format_rational(s)} for j = {j} "
            f"is not an integer; the series lattice has ramification {r}"
        )
    return int(s)


def frame_ratio_parts(j: int, T: int, r: int = 2):
    """The three universal series (A, B, C) with F(n-j)/F(n) equal to
    z^(r*beta*j) * exp(beta*A + c*B + alpha*C), each known through O(z^T),
    in z = n^(-1/r): x for r = 2, y = x^2 = 1/n for r = 1.

    Each is written down from its closed form in O(T) exact operations:

        A = sum_{m>=1} j^(m+1) x^(2m) / (m (m+1))      = (x^-2 - j) l + j,
        B = sum_{m>=1} w_m x^(2m-1)                    = ((1 - j x^2)^(1/2) - 1) / x,
        C = -sum_{m>=1} j^m x^(2m) / m                 = l,

    where l = log(1 - j x^2) and w_m are the binomial weights of
    (1 - j x^2)^(1/2), stepped as w_0 = 1, w_m = w_(m-1) * (2m - 3) * j / (2m).
    In y, A and C carry the same coefficients at y^m, and B, which has only
    the odd orders of x, is None: only a frame with c = 0 has a ratio there.
    Each part is built from its exact coefficients by
    PuiseuxSeries.from_terms.  They depend only on the shift j, so the
    frame finder expands exp(c*B + alpha*C) from them in powers of c and
    alpha.  For the same reason they are memoized per (j, T, r), in a memo
    of fixed size (_ratio_parts), once the arguments are checked:
    recurrences that share a shift and a window share the three series.
    """
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"shift must be a positive integer, got {j!r}")
    if T < 1:
        raise ValueError("need truncation >= 1")
    if r not in (1, 2):
        raise ValueError(f"ramification must be 1 or 2, got {r!r}")
    return _ratio_parts(j, T, r)


@lru_cache(maxsize=32)
def _ratio_parts(j: int, T: int, r: int) -> tuple:
    """frame_ratio_parts(j, T, r) for a checked shift, truncation and
    ramification."""
    a, b, c = {}, {}, {}
    for m in range(1, (T + r - 1) // r):
        a[r * m] = Rational(j ** (m + 1), m * (m + 1))
        c[r * m] = Rational(-(j**m), m)
    if r == 1:
        return PuiseuxSeries.from_terms(a, T), None, PuiseuxSeries.from_terms(c, T)
    w = Rational(1)
    for m in range(1, T // 2 + 1):
        w *= Rational((2 * m - 3) * j, 2 * m)
        b[2 * m - 1] = w
    return tuple(PuiseuxSeries.from_terms(part, T) for part in (a, b, c))


def frame_ratio(fr: Frame, j: int, T: int, r: int = 2) -> PuiseuxSeries:
    """The exact shift ratio F(n-j)/F(n) as a Puiseux series in
    z = n^(-1/r): in x for r = 2, in y = x^2 = 1/n for r = 1, which needs
    c = 0 (frame_ratio_parts).

    The result has valuation r*beta*j and is known through
    O(z^(T + r*beta*j)): T orders of the unit factor exp(g_j).  kappa drops
    out of the ratio, so two frames differing only in kappa give identical
    results.  With c != 0 the unit is exp(beta*A + c*B) (_stretched_unit)
    times exp(alpha*C), the second factor formed only when alpha != 0.
    """
    s = shift_exponent(fr.beta, j, r)
    a_part, b_part, c_part = frame_ratio_parts(j, T, r)
    if not fr.c:
        return exp_series(add(a_part.scale(fr.beta), c_part.scale(fr.alpha))).x_shift(s)
    if b_part is None:
        raise ValueError("a frame with c != 0 has no shift ratio in y = 1/n")
    unit = _stretched_unit(fr.beta, fr.c, j, T)
    if fr.alpha:
        unit = mul(unit, exp_series(c_part.scale(fr.alpha)))
    return unit.x_shift(s)


@lru_cache(maxsize=32)
def _stretched_unit(beta, c, j: int, T: int) -> PuiseuxSeries:
    """exp(beta*A + c*B) in x through O(x^T), the factor of a c != 0 ratio's
    unit that every alpha shares: memoized per (beta, c, j, T), so the
    recurrences with that frame's beta and c and with shift j pay its dense
    exp_series once."""
    a_part, b_part, _ = _ratio_parts(j, T, 2)
    return exp_series(add(a_part.scale(beta), b_part.scale(c)))
