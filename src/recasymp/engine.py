"""Solving a recurrence for its asymptotic correction series.

Substituting the ansatz t_n = F(n) * S(n) with a growth frame F and a
correction series S(x) = 1 + sum_{k>=1} a_k x^k, x = n^(-1/2), into

    sum_j p_j(n) t_{n-j} = 0

and dividing by F(n) turns the recurrence into one exact series equation

    E(x) = sum_j L_j(x) * Phi_j(x) * S(u_j(x)) = 0,

where L_j is p_j rewritten in x, Phi_j = F(n-j)/F(n) is the frame shift
ratio and u_j(x) = x (1 - j x^2)^(-1/2) realises n -> n - j inside S.

E depends affinely on each coefficient a_k, so the solver marches k = 1,
2, ...: with a_1 ... a_{k-1} fixed, E = r + a_k * B_k + (higher a's), where
r is the residual so far and the linear response is

    B_k = x^k * ( W_0 + sum_{j>=1} W_j * u_j(x)^k ),      W_j = L_j * Phi_j,

because a_k enters S(u_j) as a_k * x^k * u_j^k.

Each a_k is read at one order, fixed by the indicial structure of the
formal solution (Wimp & Zeilberger, J. Math. Anal. Appl. 111, 1985).
Raising alpha by delta multiplies Phi_j by (1 - j x^2)^delta, so the bare
residual (S = 1) at alpha + delta is sum_l binom(delta, l) x^(2l) M_l with
M_l = sum_j (-j)^l W_j, and B_k is x^k times it at delta = -k/2.  Let
leading + d be the lowest order of x^(2l) M_l over 1 <= l <= t - 1, with
leading = -sigma the leading balance (M_1 .. M_(t-1) fix every W_j, a
Vandermonde system: no larger l reaches lower, and one reaches the lowest
valuation of the W_j, j >= 1).  Below leading + d the bare residual M_0
must vanish for the frame to fit; at leading + d its coefficient is the
alpha-equation P(alpha + delta).  So B_k vanishes below o = leading + k + d
and is P(alpha - k/2) there, and the equation at o determines a_k, or
proves the frame wrong (r is nonzero below o, or at o while
P(alpha - k/2) = 0), or exposes a resonance (both sides vanish at o, so
a_k is a free parameter).  The solver forms P once, before the march, as
the integer polynomial Q(k) = N * P(alpha - k/2), N > 0, from the moments
(_indicial_polynomial), and reads every a_k, on either lattice below, by
that one rule: a_k = -r_o / P(alpha - k/2), or the error that Q(k) = 0
names.

With g_j = u_j/x = (1 - j x^2)^(-1/2), W_j and W_j * g_j are the only
products, made with the weights: from then on g_j^(k+1) = g_j^(k-1) /
(1 - j x^2), an exact division with integer coefficients, steps each
shift's response (a product per step would make the march O(K*T^2)).  The
unit g_j is written down
from its closed form, binomial(2b, b) j^b / 4^b at x^(2b)
(series.shift_unit), and depends on the shift and the window alone, so it
is memoized per (j, T) and recurrences with the same shifts share it, as
they share the frame's universal series (frame.frame_ratio_parts).
series.ResponseMarch runs the march on integer numerators:

  - one denominator: W_0 and every pair (W_j, W_j * g_j) are brought over
    one common denominator D once, so a division is the in-place
    recurrence y_m += j * y_(m-2) and the sum inside B_k is a plain sum of
    integers, with no lcm and no rescaling per step;
  - a window: r is known only below its truncation, so step k reads the
    sum inside B_k = x^k * (...) through T - k orders, and every response
    is cut to them;
  - the residual: r is a numerator list over D * rho, rho its own part of
    the denominator, which grows to lcm(rho, q) when a_k = p/q is absorbed,
    rescaling r once; an index past its leading zeros walks forward and
    gives its valuation;
  - the read: r_o comes out as one integer pair R / (D * rho), so a_k =
    -N R / (Q(k) D rho) is one rational, built once and absorbed as its
    numerator and denominator; the sum inside B_k is never stored: absorb
    adds the shifts' chains as it goes and W_0's few terms apart.

The march so costs sum_k (T - k) integer steps per shift, plus one pass
over r's window per step to absorb a_k * B_k.

When c = 0 and every beta * j is an integer, every W_j is a series in
y = x^2 = 1/n: L_j is, Phi_j = y^(beta j) exp(beta A + alpha C) is by the
closed forms of A and C (frame.frame_ratio_parts), and B, the one odd
part, is scaled by c = 0.  So is g_j^2 = 1 / (1 - j y), and so r and every
response x^k B_k with k even.  The problem then lives on the lattice of
ramification r = 1 (_ramification): the weights are assembled in y
(frame_ratio and poly_to_laurent with r = 1), and the moments, the
indicial order and the march read them there, each order of y standing for
two of x.  The march keeps one chain per shift, W_j itself, with no seed
product, and divides it by 1 - j y, y_m += j * y_(m-1), once per even k, on
lists half as long.  An odd k takes no step, and the one rule reads its
a_k: o is odd, r is even, so r_o = 0 (the lattice order o // 2 lies below
r's valuation once the valuation check passes), and a_k = 0 unless
P(alpha - k/2) = 0, where the rule raises as in x.  So the even march
costs about a quarter of the steps and products of the
march in x, and the assembly about a quarter of its products.

The certificate runs in y too, by its own argument that the odd orders of
x vanish.  Each W_j is even, as above.  S is even exactly when every odd
a_k is zero, which residual_check checks on the expansion it is given; an
expansion with a nonzero odd a_k is certified in x, against weights
assembled in x.  And u_j^2 = x^2 / (1 - j x^2) = y / (1 - j y), so every
S(u_j) is even, and so is every product and the residual: its valuation
in x is twice its valuation in y, capped at the truncation the residual
has in x, which the y residual passes by one order when the window is odd.

All series arithmetic is exact.  The certificate's truncation is sized
once, before any arithmetic, from the budget reach of
recurrence.local_analysis: it takes K + reach + 2 unit orders, one past the
order at which a_(K+1) would be read.  The weights are assembled once,
through that window, and memoized, with the moments and the indicial
order, which read no order more than reach past the lowest valuation, and
the march's seeds; the solve and residual_check on its expansion both read
them.  The solve marches through that same window, which covers its last
read: a_K is read at indicial + K <= leading + K + reach, and r = sum_j W_j
is known through leading + K + reach + 2, leading the lowest valuation of
the W_j.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import lcm
from types import MappingProxyType

from .errors import FrameMismatch, ResonantOrder, quoted
from .frame import Frame, frame_ratio
from .rationals import Rational, format_rational, parse_rational, rat
from .recurrence import Recurrence, local_analysis, poly_eval, poly_to_laurent
from .series import PuiseuxSeries, ResponseMarch, add, compose_shift, mul, mul_sum, shift_unit


@dataclass(frozen=True)
class Expansion:
    """A solved expansion: frame plus the correction coefficients a, so
    t_n ~ C * F(n) * (1 + a_1 x + ... + a_K x^K), x = n^(-1/2), K = len(a),
    with C a connection constant the exact algebra cannot see.  The a_k are
    exact values taken by rationals.rat, as the frame's parameters are."""

    frame: Frame
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(map(rat, self.a)))

    @property
    def K(self) -> int:
        return len(self.a)

    def __repr__(self):
        return f"Expansion(frame={self.frame!r}, K={self.K})"

    def coefficient(self, k: int):
        """a_k for 1 <= k <= K (the x^0 coefficient is always 1)."""
        if k == 0:
            return Rational(1)
        if not 1 <= k <= self.K:
            raise ValueError(f"have coefficients 1..{self.K}, asked for {k}")
        return self.a[k - 1]

    def to_json_dict(self) -> dict:
        return {
            "frame": self.frame.to_json_dict(),
            "K": self.K,
            "a": [format_rational(v) for v in self.a],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Expansion":
        exp = cls(Frame.from_json_dict(data["frame"]), [parse_rational(v) for v in data["a"]])
        K = data["K"]
        if type(K) is not int or K != exp.K:  # not a bool, float, str
            raise ValueError(f"declared K {quoted(K)} is not the int {exp.K}")
        return exp


def _ramification(rec: Recurrence, frame: Frame) -> int:
    """The r of the lattice z = n^(-1/r) that the weights live on: 1 when
    c = 0 and every active beta * j is an integer, so that every W_j is a
    series in y = x^2 = 1/n; 2 otherwise."""
    q = frame.beta.denominator  # beta * j is an integer when q divides j
    return 2 if frame.c or any(j % q for j, _ in rec.active_shifts()) else 1


def _orders(x_orders: int, r: int) -> int:
    """The orders of z = n^(-1/r) below x^x_orders: ceil(r * x_orders / 2)."""
    return -(-r * x_orders // 2)


#: One assembly of the weights, each mapping read-only: terms, {j: W_j};
#: seeds, {j: the march's seeds}, W_j alone in y and with W_j * g_j in x;
#: leading, the lowest valuation of the W_j in orders of x; and the moments
#: M_1 .. M_(t-1) (_moments) and the indicial order (_indicial_order).
_Assembly = namedtuple("_Assembly", "terms seeds leading moments indicial")


@lru_cache(maxsize=1)
def _assemble(rec: Recurrence, frame: Frame, unit_orders: int, r: int) -> _Assembly:
    """Build the weights W_j = L_j * Phi_j as series in z = n^(-1/r), with
    the unit factor of every Phi_j known through O(x^unit_orders), that is
    through O(z^_orders(unit_orders, r)).

    By the product rule T = min(T1 + v2, T2 + v1), W_j is then known through
    that many orders past its valuation -(2 deg p_j - 2 beta j) (halved in
    y), as long as the exact L_j is carried as far (its valuation is
    -2 deg p_j <= 0), and so is the seed W_j * g_j in x, g_j being a unit.

    Returns {j: W_j}, including j = 0 with W_0 = L_0, with the march's
    seeds and what both callers read off the weights: the last assembly is
    memoized, so a solve and the certificate of its expansion share one
    object, and a repeat solve makes no series product.  The moments read
    each W_j only reach orders past the lowest valuation.
    """
    orders = _orders(unit_orders, r)
    terms = {}
    for j, p in rec.active_shifts():
        lj = poly_to_laurent(p, orders, r)
        terms[j] = mul(lj, frame_ratio(frame, j, orders, r)) if j else lj
    seeds = {j: (w,) for j, w in terms.items() if j}
    if r == 2:
        seeds = {j: (w, mul(w, shift_unit(j, orders))) for j, (w,) in seeds.items()}
    leading = min(w.valuation for w in terms.values()) * (2 // r)
    moments = tuple(_moments(terms, _orders(local_analysis(rec).reach, r)))
    indicial = _indicial_order(moments, r)
    return _Assembly(MappingProxyType(terms), MappingProxyType(seeds), leading, moments, indicial)


def _moments(terms: dict, reach: int) -> list:
    """M_1 .. M_(t-1), M_l = sum_j (-j)^l W_j, each cut reach orders past
    the lowest valuation of the W_j, j >= 1."""
    cut = min(w.valuation for j, w in terms.items() if j) + reach
    weights = [(-j, w.truncate(cut)) for j, w in terms.items() if j]
    return [reduce(add, (w.scale(s**l) for s, w in weights)) for l in range(1, len(terms))]


def _indicial_order(moments: list, r: int) -> int:
    """leading + d, the lowest order of x^(2l) M_l over l = 1 .. t - 1, as an
    order of x, for moments in z = n^(-1/r): a_k is read at this order plus
    k."""
    return min(2 * l + 2 // r * m.valuation for l, m in enumerate(moments, 1))


def _indicial_polynomial(moments: list, order: int, r: int) -> tuple:
    """(Q, N): the integer polynomial Q in k, ascending, and the integer
    N > 0 with Q(k) = N * P(alpha - k/2), the response B_k at the order
    where a_k is read.

    P(alpha + delta) = sum_l binom(delta, l) m_l, with m_l the coefficient
    of x^(order - 2l) in M_l, the moments in z = n^(-1/r), and m_0 = 0:
    the coefficient of x^order in M_0 = sum_j W_j, the bare residual, which
    is the residual r at k = 1, so the valuation check of k = 1 proves it
    zero before any a_k is read.  No l >= t contributes, as x^(2l) M_l
    starts 2l orders above the lowest valuation of the W_j, j >= 1, and
    order at most 2(t - 1) above it.  binom(-k/2, l + 1) = binom(-k/2, l) *
    -(k + 2l) / (2(l + 1)), so with the m_l over one denominator den,
    Horner's rule from l = t - 1 down, U_l = m_l * prod_(i = l + 1 .. t - 1)
    2i - (k + 2l) U_(l+1), stays on integer polynomials in k, and Q = U_0 =
    -k U_1, with N = den * prod_(i = 1 .. t - 1) 2i."""
    m = [v.coefficient((order - 2 * l) * r // 2) for l, v in enumerate(moments, 1)]
    q, scale = [], lcm(*(v.denominator for v in m))
    for l in range(len(m), 0, -1):
        q = [-a - 2 * l * b for a, b in zip([0] + q, q + [0])]  # -(k + 2l) U_(l+1)
        q[0] += m[l - 1].numerator * (scale // m[l - 1].denominator)
        scale *= 2 * l
    return (0, *(-a for a in q)), scale


def solve_expansion(rec: Recurrence, frame: Frame, K: int) -> Expansion:
    """Solve for the first K correction coefficients of rec in the given
    frame.  Exact; raises FrameMismatch or ResonantOrder when the order-by-
    order equations say so."""
    if K < 0:
        raise ValueError("K must be >= 0")
    reach = local_analysis(rec).reach
    r = _ramification(rec, frame)
    stride = 2 // r  # orders of x per order of the lattice
    weights, seeds, _, moments, indicial = _assemble(rec, frame, K + reach + 2, r)
    march = ResponseMarch(reduce(add, weights.values()), weights[0], seeds)
    pk, scale = _indicial_polynomial(moments, indicial, r)
    coefficients = []
    for k in range(1, K + 1):
        o = indicial + k
        if not k % stride:
            march.advance()
        if march.valuation * stride < o:
            raise FrameMismatch(k, march.valuation * stride)
        # B_k is P(alpha - k/2) at o.  At an odd o in y, o // stride is
        # below r's valuation, so R = 0: r is even.
        num, den = march.residual_pair(o // stride)
        q = poly_eval(pk, k)
        if not q:
            raise FrameMismatch(k, o) if num else ResonantOrder(k, o)
        a = Rational(-scale * num, q * den)
        coefficients.append(a)
        if a:
            march.absorb(a.numerator, a.denominator)
    return Expansion(frame, coefficients)


def residual_check(rec: Recurrence, exp: Expansion) -> int:
    """Substitute the solved expansion back into the recurrence and report
    how many orders beyond the leading one the residual vanishes.

    A return of m means E(S) = O(x^(v0 + m)), where v0 is the order at
    which a_1 is read (or the residual's valuation, if lower); m >= exp.K
    certifies that every solved coefficient does its job.  The residual is
    known through order K + 1 + reach - sigma, at or past the order
    indicial + K + 1 at which a_(K+1) would be read, so it sees that order.
    When it vanishes through all of that, as for an exact solution, the
    value is the window's limit: a lower bound, still >= exp.K.

    The residual is formed in y = x^2 = 1/n when the weights live there and
    every odd a_k is zero (see the module docstring), in x otherwise, as one
    sum of products sum_j W_j * S(u_j) (series.mul_sum), which divides its
    content out once."""
    reach = local_analysis(rec).reach
    unit_orders = exp.K + reach + 2
    r = 2 if any(exp.a[::2]) else _ramification(rec, exp.frame)
    stride = 2 // r
    # The certificate treats the solved correction as an exact polynomial:
    # residual orders beyond K measure its quality, so S carries zeros,
    # not its own O(x^(K+1)) term, through O(x^unit_orders); in y, its
    # coefficients are the even a_k.
    a = exp.a[stride - 1 :: stride]
    orders = _orders(unit_orders, r)
    s = PuiseuxSeries(0, (Rational(1),) + a + (Rational(0),) * (orders - len(a) - 1), orders)
    assembly = _assemble(rec, exp.frame, unit_orders, r)
    residual = mul_sum((w, compose_shift(s, j, r) if j else s) for j, w in assembly.terms.items())
    # In x the residual is known through O(x^(unit_orders + leading)); in
    # y, one order further when unit_orders is odd, which x cannot see.
    valuation = min(residual.valuation * stride, unit_orders + assembly.leading)
    v0 = min(valuation, assembly.indicial + 1)
    return valuation - v0
