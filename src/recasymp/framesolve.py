"""Determining a growth frame directly from a recurrence.

The exponent beta and the budget reach come first, from
recurrence.local_analysis: both frame equations sit at most reach orders
above the leading balance, so the window T = reach + 1 is fixed in advance.
beta must keep every 2*beta*j integral (the ramification-2 lattice).

With beta fixed, c and alpha enter the residual E(x) of the bare frame
(correction series S = 1) only through the factor exp(c*B_j + alpha*C_j)
of each shift ratio (see the frame module).  B_j has valuation 1 and C_j
valuation 2, so through the T unit orders the frame equations need, that
factor is a short Taylor expansion in c and alpha, and

    E = L_0 + sum_{j>=1} L_j x^(2 beta j) exp(beta A_j)
              * sum_{i + 2l < T} c^i alpha^l B_j^i C_j^l / (i! l!)

is a polynomial in c and alpha over plain rational series, kept per order
as a dict {(i, l): coefficient of c^i alpha^l}.  Each shift's table of
x^(2 beta j) exp(beta A_j) B_j^i C_j^l / (i! l!) depends on (beta, j, T)
alone and is memoized, so a recurrence only multiplies its entries by the
exact L_j and adds.  The lowest order that does not vanish identically
must vanish, which yields one univariate polynomial equation over Q, and
the next such order pins the other parameter.  Exact rational root finding
reports a missing or non-unique root as such.

kappa is normalised to 0: it multiplies every term by the same constant,
so it is indistinguishable from the connection constant the exact algebra
cannot see anyway.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .errors import AmbiguousRoot, NoRationalRoot
from .frame import Frame, frame_ratio_parts, shift_exponent
from .rationals import Rational, format_rational, rat
from .recurrence import Recurrence, local_analysis, poly_eval, poly_to_laurent
from .series import add, exp_series, mul


def rational_roots(coeffs) -> list:
    """All distinct rational roots of the polynomial with the given
    ascending coefficients, exact values taken by rationals.rat, sorted
    increasingly.

    Exact and without factoring.  Over integer coefficients a_0 .. a_n, the
    substitution y = a_n x gives the monic integer polynomial
    Q(y) = sum_k a_k a_n^(n-1-k) y^k, whose rational roots are integers
    (see _integer_roots); a linear polynomial is solved in closed form."""
    coeffs = [rat(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("the zero polynomial has every root")
    roots = set()
    while coeffs[0] == 0:
        roots.add(Rational(0))
        coeffs.pop(0)
    if len(coeffs) == 2:
        roots.add(-coeffs[0] / coeffs[1])
    elif len(coeffs) > 2:
        scale = lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        n, lead = len(ints) - 1, ints[-1]
        monic = [a * lead ** (n - 1 - k) for k, a in enumerate(ints[:-1])] + [1]
        roots.update(Rational(y, lead) for y in _integer_roots(monic))
    return sorted(roots)


def _integer_roots(q) -> list:
    """The integer roots of a monic integer polynomial q (ascending, degree
    >= 2), all inside the Cauchy bound |y| <= 1 + max |q_k|.  q has no
    root at a half-integer, so its Sturm counts there are exact: the range
    is bisected at half-integers down to single integers that hold a real
    root, and each of those is tested exactly."""
    chain = [q, [k * a for k, a in enumerate(q)][1:]]
    while len(chain[-1]) > 1:
        r, b = [Rational(a) for a in chain[-2]], chain[-1]
        while len(r) >= len(b):
            f = r[-1] / b[-1]
            for i, a in enumerate(b, len(r) - len(b)):
                r[i] -= f * a
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
        m = lcm(*(a.denominator for a in r))  # m > 0 keeps every sign
        chain.append([-int(a * m) for a in r])
    # 2^deg(p) p(y / 2) on integers: its sign at y = 2k + 1 is p's at k + 1/2.
    chain = [[a << (len(p) - 1 - i) for i, a in enumerate(p)] for p in chain]

    def changes(k):  # sign changes of the chain at k + 1/2, zeros skipped
        values = [v for v in (poly_eval(p, 2 * k + 1) for p in chain) if v]
        return sum(s * t < 0 for s, t in zip(values, values[1:]))

    bound = 1 + max(abs(a) for a in q[:-1])
    # (lo, hi) stands for the interval (lo + 1/2, hi + 1/2): it holds the
    # integers lo + 1 .. hi and changes(lo) - changes(hi) distinct real roots.
    found = []
    stack = [(-bound - 1, changes(-bound - 1), bound, changes(bound))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if poly_eval(q, hi) == 0:
                found.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = changes(mid)
        stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return found


def _frame_equations(rec: Recurrence, beta, T: int):
    """The bare-frame residual E at exponent beta with T unit orders of
    every shift ratio as {order: {(i, l): coefficient of c^i alpha^l}}, for
    the orders below its truncation and nonzero coefficients only."""
    parts = {(0, 0): poly_to_laurent(rec.coeffs[0], T)}
    for j, p in list(rec.active_shifts())[1:]:
        lj = poly_to_laurent(p, T)
        for key, entry in _shift_expansion(beta, j, T):
            term = mul(lj, entry)
            parts[key] = add(parts[key], term) if key in parts else term
    truncation = min(part.truncation for part in parts.values())
    orders = {}
    for key, part in parts.items():
        for o, v in part.terms():
            if o < truncation:
                orders.setdefault(o, {})[key] = v
    return orders


@lru_cache(maxsize=32)
def _shift_expansion(beta, j: int, T: int) -> tuple:
    """((i, l), x^(2 beta j) exp(beta A_j) B_j^i C_j^l / (i! l!)) for
    i + 2l < T, in the order _frame_equations first meets the keys: the
    part of shift j's term in E that does not depend on the recurrence,
    memoized per (beta, j, T).  Each entry is known through
    O(x^(T + 2 beta j)), so its product with the exact L_j is known as far
    as L_j times the whole chain (the product rule of series.mul)."""
    s = shift_exponent(beta, j)
    a, b, c = frame_ratio_parts(j, T)
    rows = [exp_series(a.scale(beta)).x_shift(s)]  # times B^i/i!
    for i in range(1, T):
        rows.append(mul(rows[-1], b).scale(Rational(1, i)))
    entries = []
    for i, term in enumerate(rows):
        for l in range((T + 1 - i) // 2):  # times C^l/l!
            if l:
                term = mul(term, c).scale(Rational(1, l))
            entries.append(((i, l), term))
    return tuple(entries)


def frame_solve(rec: Recurrence) -> Frame:
    """Determine the growth frame (beta, c, alpha, 0) of rec, or raise:
    RamificationError when beta leaves the half-integer-exponent world,
    NoRationalRoot / AmbiguousRoot when the frame equations do not have a
    unique rational solution."""
    beta, reach = local_analysis(rec)
    solved = _solve_low_orders(_frame_equations(rec, beta, reach + 1))
    if len(solved) < 2:
        raise NoRationalRoot(
            "the low-order frame equations do not determine both c and alpha"
        )
    return Frame(beta, solved["c"], solved["alpha"], 0)


def _solve_low_orders(orders: dict) -> dict:
    """Walk the residual orders upwards, turning the first two that do not
    vanish identically, once the solved values are substituted, into
    equations for c and alpha.  A unique alpha that is a repeated root is
    refused: it stands for log n terms (Birkhoff & Trjitzinsky)."""
    solved = {}
    for o in sorted(orders):
        poly = {}
        for (i, l), v in orders[o].items():
            if "c" in solved:
                v, i = v * solved["c"] ** i, 0
            if "alpha" in solved:
                v, l = v * solved["alpha"] ** l, 0
            poly[i, l] = poly.get((i, l), 0) + v
        poly = {key: v for key, v in poly.items() if v}
        if not poly:
            continue
        variables = {"c" for i, _ in poly if i} | {"alpha" for _, l in poly if l}
        if not variables:
            raise NoRationalRoot(
                f"the balance equation at order {o} has a forced nonzero constant "
                "term; this growth is outside the stretched-exponential template"
            )
        if len(variables) > 1:
            raise NoRationalRoot(
                f"the balance equation at order {o} couples c and alpha; the "
                "sequential frame equations do not apply"
            )
        var = variables.pop()
        powers = {i + l: v for (i, l), v in poly.items()}  # i or l is 0
        coeffs = [powers.get(d, 0) for d in range(max(powers) + 1)]
        roots = rational_roots(coeffs)
        if not roots:
            raise NoRationalRoot(
                f"the equation for {var} at order {o} has no rational root"
            )
        if len(roots) > 1:
            raise AmbiguousRoot(
                roots,
                f"the equation for {var} at order {o} has multiple rational "
                "roots: " + ", ".join(format_rational(r) for r in roots),
            )
        if var == "alpha" and poly_eval([d * a for d, a in enumerate(coeffs)][1:], roots[0]) == 0:
            # Only alpha: a repeated c = 0, as the m-th difference has, leaves
            # alpha's equation to decide.
            raise NoRationalRoot(
                f"the equation for alpha at order {o} has the repeated root "
                f"{format_rational(roots[0])}; that means log n terms, which "
                "are outside the stretched-exponential template"
            )
        solved[var] = roots[0]
        if len(solved) == 2:
            break
    return solved
