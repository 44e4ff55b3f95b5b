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

because a_k enters S(u_j) as a_k * x^k * u_j^k.  At the lowest order o
where either side has a known nonzero coefficient, r[o] + a_k * B_k[o] = 0
either determines a_k exactly, or proves the frame wrong (forced nonzero
residual), or exposes a resonance (both sides vanish identically and a_k
is a free parameter).

With g_j = u_j/x = (1 - j x^2)^(-1/2), the responses W_j * g_j^k are
marched two steps at a time: W_j and W_j * g_j are the only products, and
from then on g_j^(k+1) = g_j^(k-1) / (1 - j x^2) is an exact O(T)
division, so the whole march costs O(K*T) ring operations (a product per
step would make it O(K*T^2)).  The division keeps the truncation of W_j,
which a product by g_j would not have cut either.

All series arithmetic is exact; truncations are tracked, and when the
marching would need an order beyond what was computed, the whole solve is
retried once or twice with a larger budget instead of guessing.
"""

from __future__ import annotations

from .errors import FrameMismatch, ResonantOrder
from .frame import Frame, frame_ratio, shift_exponent
from .rationals import Rational, format_rational, parse_rational
from .recurrence import Recurrence, poly_degree, poly_to_laurent
from .series import PuiseuxSeries, add, compose_shift, mul

#: Extra orders beyond K carried by every solve as a safety margin.
TRUNCATION_GUARD = 4


class Expansion:
    """A solved expansion: frame plus the first K correction coefficients,
    so t_n ~ C * F(n) * (1 + a_1 x + ... + a_K x^K), x = n^(-1/2), with C
    a connection constant the exact algebra cannot see."""

    __slots__ = ("frame", "K", "a")

    def __init__(self, frame: Frame, K: int, a):
        a = tuple(Rational(v) if isinstance(v, int) else v for v in a)
        if K < 0:
            raise ValueError("K must be >= 0")
        if len(a) != K:
            raise ValueError(f"need exactly K = {K} coefficients, got {len(a)}")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("Expansion is immutable")

    def __eq__(self, other):
        if not isinstance(other, Expansion):
            return NotImplemented
        return self.frame == other.frame and self.K == other.K and self.a == other.a

    def __hash__(self):
        return hash((self.frame, self.K, self.a))

    def __repr__(self):
        return f"Expansion(frame={self.frame!r}, K={self.K})"

    def coefficient(self, k: int):
        """a_k for 1 <= k <= K (the x^0 coefficient is always 1)."""
        if k == 0:
            return Rational(1)
        if not 1 <= k <= self.K:
            raise ValueError(f"have coefficients 1..{self.K}, asked for {k}")
        return self.a[k - 1]

    def correction_series(self) -> PuiseuxSeries:
        """S(x) = 1 + a_1 x + ... + a_K x^K + O(x^(K+1))."""
        return PuiseuxSeries(0, (Rational(1),) + self.a, self.K + 1)

    def truncated(self, k: int) -> "Expansion":
        """The same expansion keeping only the first k coefficients."""
        if not 0 <= k <= self.K:
            raise ValueError(f"have coefficients 1..{self.K}, asked for {k}")
        return Expansion(self.frame, k, self.a[:k])

    def to_json_dict(self) -> dict:
        return {
            "frame": self.frame.to_json_dict(),
            "K": self.K,
            "a": [format_rational(v) for v in self.a],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Expansion":
        return cls(
            Frame.from_json_dict(data["frame"]),
            int(data["K"]),
            [parse_rational(v) for v in data["a"]],
        )


class _Shortfall(Exception):
    """Internal: the marching needed an order beyond the truncation."""

    def __init__(self, k: int, order: int, both_zero: bool):
        self.k = k
        self.order = order
        self.both_zero = both_zero
        super().__init__(f"order {order} unavailable while solving a_{k}")


def _assemble(rec: Recurrence, frame: Frame, unit_orders: int):
    """Build the weights W_j = L_j * Phi_j and shift units u_j, with the
    unit factor of every Phi_j known through O(x^unit_orders).

    Returns (terms, units) where terms maps j -> W_j (including j = 0 with
    W_0 = L_0) and units maps j -> u_j/x as a valuation-0 series.
    """
    # Generous padding for the exact polynomial factors and shift units so
    # that products below are only ever limited by the frame ratios.
    pad = unit_orders + 8
    for j, p in rec.active_shifts():
        pad += 2 * poly_degree(p) + abs(shift_exponent(frame.beta, j) if j else 0)
    terms = {}
    units = {}
    for j, p in rec.active_shifts():
        lj = poly_to_laurent(p, pad)
        if j == 0:
            terms[0] = lj
            continue
        terms[j] = mul(lj, frame_ratio(frame, j, unit_orders))
        units[j] = compose_shift(PuiseuxSeries.monomial(1, 1, pad), j).x_shift(-1)
    return terms, units


def _divide_one_minus_jx2(s: PuiseuxSeries, j: int) -> PuiseuxSeries:
    """s / (1 - j x^2) by the O(T) recurrence y_m = s_m + j * y_(m-2).

    The divisor is an exact polynomial with constant term 1, so the
    valuation and the truncation of s carry over unchanged."""
    y = list(s.coeffs)
    for m in range(2, len(y)):
        y[m] = y[m] + j * y[m - 2]
    return PuiseuxSeries(s.valuation, y, s.truncation)


def _march(rec: Recurrence, frame: Frame, K: int, unit_orders: int):
    """One solve attempt at a fixed truncation budget."""
    terms, units = _assemble(rec, frame, unit_orders)
    r = None
    for w in terms.values():
        r = w if r is None else add(r, w)
    # (W_j g_j^(k-1), W_j g_j^k) per shift, seeded for k = 1; after that
    # g_j^k = g_j^(k-2) / (1 - j x^2) advances each pair by one division.
    responses = {j: (w, mul(w, units[j])) for j, w in terms.items() if j != 0}
    coefficients = []
    for k in range(1, K + 1):
        if k > 1:
            responses = {
                j: (cur, _divide_one_minus_jx2(prev, j))
                for j, (prev, cur) in responses.items()
            }
        b = terms[0]
        for _, v in responses.values():
            b = add(b, v)
        b = b.x_shift(k)
        o = min(r.valuation, b.valuation)
        readable = min(r.truncation, b.truncation)
        if o >= readable:
            raise _Shortfall(k, o, r.is_zero and b.is_zero)
        p = r.coefficient(o)
        q = b.coefficient(o)
        if q == 0:
            if p == 0:
                raise ResonantOrder(k, o)
            raise FrameMismatch(k, o)
        a_k = -p / q
        coefficients.append(a_k)
        if a_k != 0:
            r = add(r, b.scale(a_k))
    return coefficients


def solve_expansion(rec: Recurrence, frame: Frame, K: int) -> Expansion:
    """Solve for the first K correction coefficients of rec in the given
    frame.  Exact; raises FrameMismatch or ResonantOrder when the order-by-
    order equations say so."""
    if K < 0:
        raise ValueError("K must be >= 0")
    for j, _ in rec.active_shifts():
        if j:
            shift_exponent(frame.beta, j)
    budget = K + TRUNCATION_GUARD + _degree_spread(rec, frame)
    both_zero_at = None
    for attempt in range(4):
        try:
            return Expansion(frame, K, _march(rec, frame, K, budget))
        except _Shortfall as sh:
            if sh.both_zero:
                if both_zero_at == sh.k:
                    # A larger budget still shows no response and no forcing:
                    # the coefficient is genuinely free, not under-resolved.
                    raise ResonantOrder(sh.k, sh.order) from None
                both_zero_at = sh.k
            budget = max(budget + 8, sh.order + TRUNCATION_GUARD + 1)
    raise RuntimeError("truncation retries exhausted; recurrence is degenerate")


def _degree_spread(rec: Recurrence, frame: Frame) -> int:
    """How many orders the polynomial degrees can push the residual below
    the unit scale: max over j of 2*deg(p_j) - 2*beta*j, at least 0."""
    spread = 0
    for j, p in rec.active_shifts():
        s = shift_exponent(frame.beta, j) if j else 0
        spread = max(spread, 2 * poly_degree(p) - s)
    return spread


def residual_check(rec: Recurrence, exp: Expansion) -> int:
    """Substitute the solved expansion back into the recurrence and report
    how many orders beyond the leading one the residual vanishes.

    A return of m means E(S) = O(x^(v0 + m)) where v0 is the first order at
    which anything could have been nonzero; m >= exp.K certifies that every
    solved coefficient does its job."""
    budget = exp.K + TRUNCATION_GUARD + _degree_spread(rec, exp.frame)
    terms, units = _assemble(rec, exp.frame, budget)
    # The certificate treats the solved correction as an exact polynomial:
    # residual orders beyond K measure its quality, so S must not carry its
    # own O(x^(K+1)) term into the bookkeeping.
    pad = budget + TRUNCATION_GUARD + 4
    s = PuiseuxSeries(
        0,
        (Rational(1),) + exp.a + (Rational(0),) * (pad - exp.K - 1),
        pad,
    )
    residual = None
    response1 = None
    for j, w in terms.items():
        shifted = s if j == 0 else compose_shift(s, j)
        contribution = mul(w, shifted)
        residual = contribution if residual is None else add(residual, contribution)
        linear = w if j == 0 else mul(w, units[j])
        response1 = linear if response1 is None else add(response1, linear)
    v0 = min(
        residual.valuation if not residual.is_zero else residual.truncation,
        response1.valuation + 1,
    )
    return min(residual.valuation, residual.truncation) - v0
