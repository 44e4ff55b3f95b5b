"""Stretched-exponential growth frames and their shift ratios.

A frame packages the four parameters of the leading growth factor

    F(n) = exp( beta*(n log n - n) + c*sqrt(n) + alpha*log n + kappa ),

so beta controls the n^(beta*n) superexponential part, c the stretched
exponential e^(c sqrt n), alpha the polynomial part n^alpha, and kappa a
constant normalization.  An asymptotic solution of a recurrence is
F(n) times a correction series in n^(-1/2).

The computational workhorse is the exact shift ratio

    F(n - j) / F(n) = x^(2*beta*j) * exp(g_j(x)),      x = n^(-1/2),

where g_j is a power series with positive valuation assembled from three
universal building blocks (one each for beta, c and alpha; kappa cancels
in the ratio).  With l = log(1 - j*x^2):

    g_j = beta * ((x^"-2" - j) * l + j)  +  c * x^"-1" * (e^(l/2) - 1)  +  alpha * l.

The monomial prefactor x^(2*beta*j) only stays inside the ramification-2
lattice when 2*beta*j is an integer; anything else raises.
"""

from __future__ import annotations

from .errors import RamificationError
from .rationals import Rational, format_rational, rat
from .series import PuiseuxSeries, add, exp_series, log1p_series, mul


class Frame:
    """Immutable growth frame (beta, c, alpha, kappa), all exact rationals."""

    __slots__ = ("beta", "c", "alpha", "kappa")

    def __init__(self, beta, c, alpha, kappa=0):
        object.__setattr__(self, "beta", rat(beta))
        object.__setattr__(self, "c", rat(c))
        object.__setattr__(self, "alpha", rat(alpha))
        object.__setattr__(self, "kappa", rat(kappa))

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    def __eq__(self, other):
        if not isinstance(other, Frame):
            return NotImplemented
        return (self.beta, self.c, self.alpha, self.kappa) == (
            other.beta,
            other.c,
            other.alpha,
            other.kappa,
        )

    def __hash__(self):
        return hash((self.beta, self.c, self.alpha, self.kappa))

    def __repr__(self):
        return (
            f"Frame(beta={format_rational(self.beta)}, c={format_rational(self.c)}, "
            f"alpha={format_rational(self.alpha)}, kappa={format_rational(self.kappa)})"
        )

    def to_json_dict(self) -> dict:
        return {
            "beta": format_rational(self.beta),
            "c": format_rational(self.c),
            "alpha": format_rational(self.alpha),
            "kappa": format_rational(self.kappa),
        }

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

    They depend only on the shift j, so a caller solving for unknown frame
    parameters can combine them with symbolic coefficients.
    """
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"shift must be a positive integer, got {j!r}")
    if T < 1:
        raise ValueError("need truncation >= 1")
    # l = log(1 - j*x^2), known through O(x^(T+2)) so that the division by
    # x^2 below still leaves O(x^T).
    l = log1p_series(PuiseuxSeries.monomial(-j, 2, T + 2))
    # A = (x^-2 - j) * l + j: the x^0 terms cancel exactly, valuation 2.
    xm2_minus_j = PuiseuxSeries.from_terms({-2: Rational(1), 0: Rational(-j)}, T)
    a_part = add(mul(xm2_minus_j, l), PuiseuxSeries.constant(j, T))
    # B = x^-1 * (e^(l/2) - 1), valuation 1.
    half = exp_series(l.scale(Rational(1, 2)))
    b_part = add(half, PuiseuxSeries.constant(-1, T + 2)).x_shift(-1).truncate(T)
    # C = l.
    c_part = l.truncate(T)
    return a_part, b_part, c_part


def frame_ratio(fr: Frame, j: int, T: int) -> PuiseuxSeries:
    """The exact shift ratio F(n-j)/F(n) as a Puiseux series in x.

    The result has valuation 2*beta*j and is known through
    O(x^(T + 2*beta*j)): T orders of the unit factor exp(g_j).  kappa drops
    out of the ratio, so two frames differing only in kappa give identical
    results.  Only fr.beta, fr.c and fr.alpha are read, and c and alpha may
    lie in any exact commutative ring: the frame finder passes polynomial
    unknowns for them.
    """
    s = shift_exponent(fr.beta, j)
    a_part, b_part, c_part = frame_ratio_parts(j, T)
    g = add(
        add(a_part.scale(fr.beta), b_part.scale(fr.c)),
        c_part.scale(fr.alpha),
    )
    return exp_series(g).x_shift(s)
