"""Determining a growth frame directly from a recurrence.

The superexponential exponent comes first:

    beta = max over j >= 1 of (deg p_j - deg p_0) / j,

the slope of the dominant balance between coefficient growth and shift
depth (a Newton polygon in disguise).  It must keep every shift ratio on
the ramification-2 lattice, i.e. 2*beta*j integral for every active j.

With beta fixed, the residual E(x) of the bare frame (correction series
S = 1) is expanded with the remaining parameters c and alpha kept as formal
polynomial unknowns; the series algebra goes through unchanged because it
only ever multiplies, adds and divides by integers.  The lowest
non-vanishing coefficient of E must then vanish identically, which yields
one univariate polynomial equation over Q, and the next non-vanishing one
pins the other parameter.  Rational root finding keeps everything exact: a
missing rational root or a root that is not unique is reported as such,
never approximated.

The search window is fixed in advance: for t active shifts both equations
sit at most 2(t - 1) orders above the leading balance (see the engine
module), so E is built once, by the solver's own assembly, with the unit
factor of every shift ratio known through O(x^(2(t - 1) + 1)), and nothing
is retried.

kappa is normalised to 0: it multiplies every term by the same constant,
so it is indistinguishable from the connection constant the exact algebra
cannot see anyway.
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from types import SimpleNamespace

from .engine import _assemble, _reach
from .errors import AmbiguousRoot, NoRationalRoot
from .frame import Frame
from .rationals import Rational, format_rational
from .recurrence import Recurrence, poly_degree
# exp_series stays bound here for tools that rebind by-name imports.
from .series import PuiseuxSeries, add, exp_series  # noqa: F401


class _Poly2:
    """Polynomials over Q in the two frame unknowns, dense enough for the
    handful of low orders the frame equations live at.  Terms map exponent
    pairs (i, j) for c^i * alpha^j to rational coefficients; zero
    coefficients are never stored."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for key, val in terms.items():
            if val != 0:
                clean[key] = val
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("_Poly2 is immutable")

    def __bool__(self) -> bool:
        return bool(self.terms)

    @classmethod
    def constant(cls, q) -> "_Poly2":
        return cls({(0, 0): Rational(q)})

    @classmethod
    def gen_c(cls) -> "_Poly2":
        return cls({(1, 0): Rational(1)})

    @classmethod
    def gen_alpha(cls) -> "_Poly2":
        return cls({(0, 1): Rational(1)})

    @staticmethod
    def _lift(other):
        if isinstance(other, _Poly2):
            return other
        if isinstance(other, float):
            raise TypeError("float is not exact")
        return _Poly2.constant(other)

    def __add__(self, other):
        other = self._lift(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            out[key] = out.get(key, Rational(0)) + val
        return _Poly2(out)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, _Poly2):
            if isinstance(other, float):
                raise TypeError("float is not exact")
            if other == 0:
                return _Poly2({})
            return _Poly2({k: v * other for k, v in self.terms.items()})
        out = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Rational(0)) + v1 * v2
        return _Poly2(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Poly2):
            raise TypeError("polynomial division is not needed here")
        return self * (Rational(1) / Rational(other))

    def __eq__(self, other):
        if isinstance(other, _Poly2):
            return self.terms == other.terms
        if isinstance(other, float):
            return NotImplemented
        return self.terms == ({} if other == 0 else {(0, 0): Rational(other)})

    def variables(self) -> set:
        out = set()
        for i, j in self.terms:
            if i:
                out.add("c")
            if j:
                out.add("alpha")
        return out

    def substitute(self, c=None, alpha=None) -> "_Poly2":
        out = _Poly2({})
        for (i, j), v in self.terms.items():
            term = _Poly2({(0 if c is not None else i, 0 if alpha is not None else j): v})
            if c is not None and i:
                term = term * (c**i)
            if alpha is not None and j:
                term = term * (alpha**j)
            out = out + term
        return out

    def univariate(self, var: str) -> list:
        """Coefficient list (ascending) in the single variable var; the
        other variable must be absent."""
        pos = 0 if var == "c" else 1
        deg = max((key[pos] for key in self.terms), default=0)
        out = [Rational(0)] * (deg + 1)
        for key, v in self.terms.items():
            if key[1 - pos] != 0:
                raise ValueError("polynomial is not univariate")
            out[key[pos]] = v
        return out


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the word sizes reachable here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _divisors(n: int) -> list:
    """All positive divisors of n > 0, by trial division with a primality
    backstop for one large leftover factor."""
    factors = {}
    m = n
    p = 2
    while p * p <= m and p < 10**6:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        if not _is_probable_prime(m):
            raise NoRationalRoot(
                f"cannot factor {n} exactly for the rational root search"
            )
        factors[m] = factors.get(m, 0) + 1
    divs = [1]
    for prime, mult in factors.items():
        divs = [d * prime**e for d in divs for e in range(mult + 1)]
    return divs


def rational_roots(coeffs) -> list:
    """All distinct rational roots of the polynomial with the given
    ascending rational coefficients, sorted increasingly."""
    coeffs = [Rational(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("the zero polynomial has every root")
    roots = set()
    while coeffs[0] == 0:
        roots.add(Rational(0))
        coeffs.pop(0)
    if len(coeffs) >= 2:
        scale = lcm(*(int(c.denominator) for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        if len(ints) == 2:
            roots.add(Rational(-ints[0], ints[1]))
        else:
            denominators = _divisors(abs(ints[-1]))
            for p in _divisors(abs(ints[0])):
                for q in denominators:
                    for cand in (Rational(p, q), Rational(-p, q)):
                        value = Rational(0)
                        for c in reversed(ints):
                            value = value * cand + c
                        if value == 0:
                            roots.add(cand)
    return sorted(roots)


def frame_solve(rec: Recurrence) -> Frame:
    """Determine the growth frame (beta, c, alpha, 0) of rec, or raise:
    RamificationError when beta leaves the half-integer-exponent world,
    NoRationalRoot / AmbiguousRoot when the frame equations do not have a
    unique rational solution."""
    deg0 = poly_degree(rec.coeffs[0])
    beta = None
    for j, p in rec.active_shifts():
        if j == 0:
            continue
        slope = Rational(poly_degree(p) - deg0, j)
        if beta is None or slope > beta:
            beta = slope
    symbolic = SimpleNamespace(beta=beta, c=_Poly2.gen_c(), alpha=_Poly2.gen_alpha())
    terms, _ = _assemble(rec, symbolic, _reach(rec) + 1)
    solved = _solve_low_orders(reduce(add, terms.values()))
    if len(solved) < 2:
        raise NoRationalRoot(
            "the low-order frame equations do not determine both c and alpha"
        )
    return Frame(beta, solved["c"], solved["alpha"], 0)


def _solve_low_orders(residual: PuiseuxSeries) -> dict:
    """Walk the residual orders, turning the first two non-identically-zero
    coefficients into equations for c and alpha."""
    solved = {}
    for o in range(residual.valuation, residual.truncation):
        coeff = residual.coefficient(o)
        poly = coeff if isinstance(coeff, _Poly2) else _Poly2.constant(coeff)
        poly = poly.substitute(
            c=solved.get("c"), alpha=solved.get("alpha")
        )
        if poly == 0:
            continue
        variables = poly.variables()
        if not variables:
            raise NoRationalRoot(
                f"the order-{o} balance equation has a forced nonzero constant "
                "term; this growth is outside the stretched-exponential template"
            )
        if len(variables) > 1:
            raise NoRationalRoot(
                f"the order-{o} balance equation couples c and alpha; the "
                "sequential frame equations do not apply"
            )
        var = variables.pop()
        roots = rational_roots(poly.univariate(var))
        if not roots:
            raise NoRationalRoot(
                f"the order-{o} equation for {var} has no rational root"
            )
        if len(roots) > 1:
            raise AmbiguousRoot(
                roots,
                f"the order-{o} equation for {var} has multiple rational "
                "roots: " + ", ".join(format_rational(r) for r in roots),
            )
        solved[var] = roots[0]
        if len(solved) == 2:
            break
    return solved
