"""Linear recurrences with integer polynomial coefficients.

A recurrence of order d is

    p_0(n) t_n + p_1(n) t_{n-1} + ... + p_d(n) t_{n-d} = 0,

stored as d + 1 integer coefficient lists in ascending powers of n.  The
leading and trailing polynomials must be nonzero so the order is genuine;
interior polynomials may vanish.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from .rationals import Rational
from .series import PuiseuxSeries


def _normalize_poly(coeffs) -> tuple[int, ...]:
    out = []
    for c in coeffs:
        if isinstance(c, bool) or not isinstance(c, int):
            raise TypeError(f"polynomial coefficients must be ints, got {c!r}")
        out.append(c)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_degree(p: tuple[int, ...]) -> int:
    """Degree of a normalized polynomial; -1 for the zero polynomial."""
    return len(p) - 1


def poly_eval(p: tuple[int, ...], n: int) -> int:
    value = 0
    for c in reversed(p):
        value = value * n + c
    return value


@dataclass(frozen=True)
class Recurrence:
    """Immutable recurrence p_0(n) t_n + ... + p_d(n) t_{n-d} = 0."""

    coeffs: tuple

    def __post_init__(self):
        polys = tuple(_normalize_poly(p) for p in self.coeffs)
        if len(polys) < 2:
            raise ValueError("a recurrence needs order >= 1 (at least two polynomials)")
        if not polys[0]:
            raise ValueError("leading polynomial p_0 must not be identically zero")
        if not polys[-1]:
            raise ValueError("trailing polynomial p_d must not be identically zero")
        object.__setattr__(self, "coeffs", polys)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def active_shifts(self):
        """Iterate (j, p_j) over the nonzero coefficient polynomials."""
        for j, p in enumerate(self.coeffs):
            if p:
                yield j, p

    def sequence_residual(self, values, n: int) -> int:
        """sum_j p_j(n) * values[n - j]; zero iff the recurrence holds
        at index n for the given sequence prefix."""
        if n < self.order:
            raise ValueError(f"need n >= order = {self.order}")
        return sum(poly_eval(p, n) * values[n - j] for j, p in self.active_shifts())

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict) -> "Recurrence":
        coeffs = data["coeffs"]
        rec = cls(coeffs)
        order = data.get("order", rec.order)
        if type(order) is not int or order != rec.order:  # not a bool, float, str
            raise ValueError(f"declared order {order!r} is not the int {rec.order}")
        return rec


LocalAnalysis = namedtuple("LocalAnalysis", "beta reach")


def local_analysis(rec: Recurrence) -> LocalAnalysis:
    """beta and the budget reach = 2(t - 1) of rec at n = infinity, for t
    active shifts.  beta = max over j >= 1 of (deg p_j - deg p_0) / j is the
    slope of the first edge of the Newton polygon of the points
    (j, deg p_j) (Birkhoff & Trjitzinsky, Acta Math. 60, 1933).

    In any frame the leading balance sits at order -sigma, sigma = max_j
    (2 deg p_j - 2 beta j).  Its polynomial chi(z) = sum lc(p_j) z^j has at
    most t terms, so by Descartes' rule of signs its root z = 1 has
    multiplicity m <= t - 1: the frame's c-equation sits at most m orders
    above the balance, its alpha-equation at most 2m.  Once the residual
    vanishes there a shift j >= 1, and so one of the engine's moments
    M_1 .. M_(t-1), reaches it: the offset d of the a_k is at most 2(t - 1)
    too.  W_j is known through T orders past its valuation when its unit
    factor is, so sigma cancels: frame_solve takes T = reach + 1, and a
    solve for K coefficients T = K + reach + 1."""
    (_, p0), *shifts = rec.active_shifts()
    beta = max(Rational(poly_degree(p) - poly_degree(p0), j) for j, p in shifts)
    return LocalAnalysis(beta, 2 * len(shifts))


def poly_to_laurent(p, truncation: int, r: int = 2) -> PuiseuxSeries:
    """The polynomial p(n) as a Laurent series in z = n^(-1/r), x for r = 2
    and y = 1/n for r = 1: each n^i becomes z^(-r*i).  Exact, so only the
    requested truncation bounds it."""
    return PuiseuxSeries.from_terms({-r * i: c for i, c in enumerate(p) if c}, truncation)
