"""The order-by-order expansion solver and its residual certificate."""

import random
from fractions import Fraction
from functools import reduce
from math import comb, gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recasymp import (
    Expansion,
    Frame,
    FrameMismatch,
    PuiseuxSeries,
    RamificationError,
    Rational,
    Recurrence,
    ResonantOrder,
    a85_frame,
    a85_recurrence,
    add,
    compose_shift,
    frame_ratio,
    frame_solve,
    mul,
    residual_check,
    solve_expansion,
)
from recasymp import engine
from recasymp.frame import _ratio_parts, _stretched_unit
from recasymp.recurrence import local_analysis, poly_eval, poly_to_laurent
from recasymp.series import ResponseMarch, shift_unit

# First ten correction coefficients of the involution-number expansion;
# a_1..a_5 are classical, the rest are pinned from the exact solver and
# certified by residual_check (exact re-substitution) below.
A85_COEFFS = [
    "7/24",
    "-119/1152",
    "-7933/414720",
    "1967381/39813120",
    "-57200419/1337720832",
    "6340449533/687970713600",
    "3840755481827/115579079884800",
    "-1165106617342939/22191183337881600",
    "10362392814297883973/263631258054033408000",
    "1683008269760589544489/88580102706155225088000",
]


def as_rational(text):
    num, _, den = text.partition("/")
    return Rational(int(num), int(den or 1))


def _clear_memos():
    engine._assemble.cache_clear()
    _ratio_parts.cache_clear()
    _stretched_unit.cache_clear()
    shift_unit.cache_clear()


@pytest.fixture(autouse=True)
def cold_weights():
    # The weights, the frame parts, the stretched units and the seeds are
    # memoized across calls, and the memos outlive a test.
    _clear_memos()


def test_solve_matches_frozen_coefficients(a85_k10):
    assert list(a85_k10.a) == [as_rational(t) for t in A85_COEFFS]


def test_solve_is_deterministic(a85, a85_fr, a85_k10):
    again = solve_expansion(a85, a85_fr, 10)
    assert again == a85_k10
    assert again.a == a85_k10.a


def test_solve_k_zero(a85, a85_fr):
    exp = solve_expansion(a85, a85_fr, 0)
    assert exp.K == 0
    assert exp.a == ()
    with pytest.raises(ValueError):
        solve_expansion(a85, a85_fr, -1)


def test_kappa_never_changes_coefficients(a85, a85_fr, a85_k10):
    for kappa in ("0", "3", "-22/7"):
        fr = Frame(a85_fr.beta, a85_fr.c, a85_fr.alpha, kappa)
        assert solve_expansion(a85, fr, 10).a == a85_k10.a


def test_scale_invariance_constant(a85, a85_fr, a85_k10):
    scaled = Recurrence([[7 * c for c in p] for p in a85.coeffs])
    assert solve_expansion(scaled, a85_fr, 10).a == a85_k10.a


def _times_n_plus(p, h):
    """The coefficients of p(n) * (n + h), constant term first."""
    out = [0] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i] += h * c
        out[i + 1] += c
    return out


def test_wrong_c_is_frame_mismatch(a85):
    with pytest.raises(FrameMismatch) as info:
        solve_expansion(a85, Frame("1/2", "0", "0"), 1)
    assert info.value.k == 1


def test_wrong_beta_off_lattice(a85):
    with pytest.raises(RamificationError):
        solve_expansion(a85, Frame("1/3", "1", "0"), 1)


def test_resonance_is_reported():
    # p_0 = n^2 - n, p_1 = -2n^2 + 4n - 2, p_2 = n^2 - 3n + 2 annihilates
    # both 1 and 1/n: with the zero frame, a_2 multiplies an identically
    # vanishing response (the 1/n solution), so it is a free parameter.
    rec = Recurrence([[0, -1, 1], [-2, 4, -2], [2, -3, 1]])
    fr = Frame(0, 0, 0)
    assert solve_expansion(rec, fr, 1).a == (Rational(0),)
    with pytest.raises(ResonantOrder) as info:
        solve_expansion(rec, fr, 2)
    assert info.value.k == 2
    # a_k is read only at k - sigma + d = k - 4 + 4, where its coefficient
    # is P(alpha - k/2) with P(a) proportional to a (a + 1): a_2 is reported
    # free at order 2.
    assert info.value.order == 2


@pytest.mark.parametrize(
    "coeffs, k",
    [([[-1, 1], [2, -1], [3, -1], [-4, 1]], 2), ([[1, 1], [3, -1], [-2, -1], [-2, 1]], 5)],
    ids=["k2", "k5"],
)
def test_resonance_is_reported_at_the_read_order(coeffs, k):
    # P(a) = 2a(a + 1) and a(2a + 5): B_k vanishes at the order where a_k is
    # read, and a_k must not be taken from a higher order where a_(k+2)
    # enters as well.
    with pytest.raises(ResonantOrder) as info:
        solve_expansion(Recurrence(coeffs), Frame(0, 0, 0), 8)
    assert info.value.k == k


def _resonant_family(r):
    """The order-3 recurrence M N annihilating 1, (-1)^n and
    Gamma(n + 1 - r/2) / Gamma(n + 1) ~ n^(-r/2): N = 2n - (2n - r) S^-1
    annihilates the last and maps the others to a constant and to
    (-1)^n (4n - r), which M = (4n - 6 - r) + 4 S^-1 - (4n - 2 - r) S^-2
    annihilates."""
    s, t = (r + 2) * (r + 4), 6 * r + 20
    return [[0, -2 * (r + 6), 8], [-s, t, -8], [0, 2 * (r + 6), -8], [s, -t, 8]]


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_resonance_at_a_chosen_second_indicial_root(r):
    # The n^(-r/2) solution is x^r times the dominant one, so a_r is free.
    rec = Recurrence(_resonant_family(r))
    gamma = [Rational(1)]
    for n in range(1, 8):
        gamma.append(gamma[-1] * Rational(2 * n - r, 2 * n))
    for values in ([1] * 8, [(-1) ** n for n in range(8)], gamma):
        assert all(rec.sequence_residual(values, n) == 0 for n in range(3, 8))
    with pytest.raises(ResonantOrder) as info:
        solve_expansion(rec, Frame(0, 0, 0), 12)
    assert info.value.k == r


def _indicial_polynomial(rec, frame, K, r=None):
    """The engine's (Q, N), Q(k) = N * P(alpha - k/2) an integer polynomial
    in k, from the weights of a K-coefficient solve on the lattice
    z = n^(-1/r) (by default the solve's own).  The engine takes M_0's
    coefficient m_0 at the indicial order to be 0, as it is once the frame
    fits: read here, it is."""
    r = r or engine._ramification(rec, frame)
    reach = local_analysis(rec).reach
    terms = engine._assemble(rec, frame, K + reach + 1, r).terms
    moments = engine._moments(terms, reach * r // 2)
    order = engine._indicial_order(moments, r)
    assert sum(w.coefficient(order * r // 2) for w in terms.values()) == 0
    return engine._indicial_polynomial(moments, order, r)


@pytest.mark.parametrize("name", ["monic", "sparse", "two-term"])
def test_indicial_polynomial_vanishes_at_the_solved_alpha_alone(name):
    # P(alpha) = 0 at the frame_solve alpha, and no k <= K resonates; the
    # weights in y = 1/n give the polynomial that those in x give.
    for seed in range(1, 7):
        rec = _family(name, seed)
        frame = frame_solve(rec)
        pk, scale = _indicial_polynomial(rec, frame, 12)
        assert poly_eval(pk, 0) == 0 and scale > 0
        assert all(poly_eval(pk, k) for k in range(1, 13))
        assert (pk, scale) == _indicial_polynomial(rec, frame, 12, 2)
        assert engine._ramification(rec, frame) == (2 if name == "two-term" else 1)


def _reads(rec, K, monkeypatch):
    """Solve rec in its frame through K, recording for each k the order at
    which the solve reads r, the pair (R, D) it reads there and the march's
    response at that order (None before the march's first step, at k = 1 in
    y); absorbing a_k must cancel r at that order."""
    pair, absorb, reads = ResponseMarch.residual_pair, ResponseMarch.absorb, []

    def recording_pair(march, order):
        reads.append((order, pair(march, order), march.response(order) if march.k else None))
        return reads[-1][1]

    def checked_absorb(march, p, q):
        absorb(march, p, q)
        assert pair(march, reads[-1][0])[0] == 0

    monkeypatch.setattr(ResponseMarch, "residual_pair", recording_pair)
    monkeypatch.setattr(ResponseMarch, "absorb", checked_absorb)
    exp = solve_expansion(rec, frame_solve(rec), K)
    assert len(reads) == K
    return exp, reads


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_march_in_x_reads_the_indicial_polynomial(seed, monkeypatch):
    # B_k at the order of a_k is exactly Q(k) / N.
    rec = a85_recurrence() if seed == 0 else _family("two-term", seed)
    pk, scale = _indicial_polynomial(rec, frame_solve(rec), 12)
    _, reads = _reads(rec, 12, monkeypatch)
    assert [b for _, _, b in reads] == [Rational(poly_eval(pk, k), scale) for k in range(1, 13)]


@pytest.mark.parametrize("name, seed", [("monic", 1), ("monic", 2), ("sparse", 1), ("sparse", 2)])
def test_march_in_y_reads_the_indicial_polynomial(name, seed, monkeypatch):
    # On y = 1/n, B_k at the order of an even a_k is exactly Q(k) / N; an
    # odd k reads r below its valuation, R = 0, so a_k = 0.
    rec = _family(name, seed)
    frame = frame_solve(rec)
    assert engine._ramification(rec, frame) == 1
    pk, scale = _indicial_polynomial(rec, frame, 12)
    exp, reads = _reads(rec, 12, monkeypatch)
    for k, (a, (_, (num, _), b)) in enumerate(zip(exp.a, reads), 1):
        if k % 2:
            assert num == 0 and a == 0
        else:
            assert b == Rational(poly_eval(pk, k), scale)


@pytest.mark.parametrize("r", range(1, 13))
def test_resonant_family_has_its_indicial_root_at_r(r):
    pk, _ = _indicial_polynomial(Recurrence(_resonant_family(r)), Frame(0, 0, 0), 12)
    assert [k for k in range(13) if not poly_eval(pk, k)] == [0, r]


def test_solve_assembles_once(a85, a85_fr, monkeypatch):
    # The truncation is sized before any arithmetic, so no input makes the
    # solver ask for its weights twice, a resonant one included; it asks for
    # the certificate's window, which residual_check then finds memoized.
    calls = []
    assemble = engine._assemble

    def counting_assemble(*args):
        calls.append(1)
        return assemble(*args)

    monkeypatch.setattr(engine, "_assemble", counting_assemble)
    solve_expansion(a85, a85_fr, 10)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(ResonantOrder):
        solve_expansion(Recurrence([[0, -1, 1], [-2, 4, -2], [2, -3, 1]]), Frame(0, 0, 0), 2)
    assert len(calls) == 1


def test_solve_and_certificate_build_the_moments_once(a85, a85_fr, monkeypatch):
    # The moments and the indicial order sit in the memoized assembly, so
    # the certificate of a solved expansion finds them built.
    calls = []
    moments = engine._moments

    def counting_moments(*args):
        calls.append(1)
        return moments(*args)

    monkeypatch.setattr(engine, "_moments", counting_moments)
    for rec, frame in ((a85, a85_fr), (_FACTORIAL, Frame(1, 0, "1/2"))):
        calls.clear()
        exp = solve_expansion(rec, frame, 10)
        assert residual_check(rec, exp) >= 10
        assert len(calls) == 1


def test_factorial_recurrence_gives_stirling_series():
    # t_n = n t_{n-1} (factorials): the correction series must be the
    # classical Stirling series 1 + 1/(12n) + 1/(288n^2) - 139/(51840n^3).
    fact = Recurrence([[1], [0, -1]])
    exp = solve_expansion(fact, Frame(1, 0, "1/2"), 6)
    assert list(exp.a) == [
        0,
        Rational(1, 12),
        0,
        Rational(1, 288),
        0,
        Rational(-139, 51840),
    ]
    assert residual_check(fact, exp) >= 6


def test_catalan_recurrence_gives_the_classical_series():
    # Catalan numbers gauged by hand to t = 4^n u: C_n = 4^n Gamma(n + 1/2)
    # / (sqrt(pi) Gamma(n + 2)) ~ 4^n n^(-3/2) / sqrt(pi) (1 - 9/(8n)
    # + 145/(128n^2) - 1155/(1024n^3) + ...), odd a_k zero.
    exp = solve_expansion(Recurrence([[4, 4], [2, -4]]), Frame(0, 0, "-3/2"), 6)
    assert list(exp.a) == [
        0,
        Rational(-9, 8),
        0,
        Rational(145, 128),
        0,
        Rational(-1155, 1024),
    ]


def test_reciprocal_factorial_is_reciprocal_series():
    # 1/n! satisfies n t_n - t_{n-1} = 0; its frame is the negation of the
    # factorial frame and its correction series the exact reciprocal.
    fact = solve_expansion(Recurrence([[1], [0, -1]]), Frame(1, 0, "1/2"), 6)
    recip = solve_expansion(Recurrence([[0, 1], [-1]]), Frame(-1, 0, "-1/2"), 6)
    assert recip.coefficient(2) == Rational(-1, 12)
    product = mul(
        PuiseuxSeries(0, (1,) + fact.a, 7), PuiseuxSeries(0, (1,) + recip.a, 7)
    )
    assert product == PuiseuxSeries.one(7)


def test_factorial_expansion_against_bigfloat_factorial():
    # Independent end-to-end oracle: sqrt(2 pi) F(n) S(n) ~ n! with the
    # known connection constant, checked in plain mpmath arithmetic.
    exp = solve_expansion(Recurrence([[1], [0, -1]]), Frame(1, 0, "1/2"), 6)
    mpmath.mp.dps = 30
    try:
        for n in (25, 100):
            f = mpmath.exp(n * mpmath.log(n) - n + mpmath.log(n) / 2)
            s = mpmath.mpf(1)
            for k in range(1, 7):
                c = exp.coefficient(k)
                s += mpmath.mpf(int(c.numerator)) / int(c.denominator) * mpmath.mpf(n) ** (
                    -mpmath.mpf(k) / 2
                )
            ratio = mpmath.sqrt(2 * mpmath.pi) * f * s / mpmath.factorial(n)
            assert abs(ratio - 1) < mpmath.mpf(n) ** (-3.5)
    finally:
        mpmath.mp.dps = 15


# -- linear-response march ----------------------------------------------------


small_rationals = st.builds(
    Rational, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)


@st.composite
def exact_series(draw):
    v = draw(st.integers(min_value=-4, max_value=4))
    coeffs = draw(st.lists(small_rationals, max_size=12))
    return PuiseuxSeries(v, coeffs, v + len(coeffs))


@settings(max_examples=40)
@given(st.lists(small_rationals, min_size=1, max_size=4))
def test_indicial_polynomial_is_n_times_p(ms):
    # Q(k) = N * P(alpha - k/2), P(alpha + delta) = sum_l binom(delta, l) m_l
    # with m_0 = 0, on moments whose m_l carry denominators (those of the
    # families above are integers).
    order = 2 * len(ms)
    moments = [PuiseuxSeries.from_terms({order - 2 * l: m}, order + 1) for l, m in enumerate(ms, 1)]
    pk, scale = engine._indicial_polynomial(moments, order, 2)
    assert scale > 0 and all(isinstance(c, int) for c in pk)
    for k in range(13):
        binom, p = Rational(1), Rational(0)
        for l, m in enumerate(ms, 1):
            binom *= (Rational(-k, 2) - l + 1) / l
            p += binom * m
        assert poly_eval(pk, k) == scale * p


def _single_shift_march(s, j):
    """The march for one shift j with W_j = s, W_0 = 0 and a zero residual
    known through one order past s, the most its window allows; and the
    unit u = x (1 - j x^2)^(-1/2) through an order ample for s."""
    ample = s.truncation - s.valuation + 2
    u = compose_shift(PuiseuxSeries.monomial(1, 1, ample), j)
    t = s.truncation + 1
    march = ResponseMarch(
        PuiseuxSeries.zero(t), PuiseuxSeries.zero(t), {j: (s, mul(s, u.x_shift(-1)))}
    )
    return march, u, t


def _response(march, s, t):
    """x^k * b_k of the march's current step k, read from the valuation of
    x^k * s up to x^t."""
    lo = min(s.valuation + march.k, t)
    return PuiseuxSeries(lo, [march.response(o) for o in range(lo, t)], t)


@settings(max_examples=80)
@given(exact_series(), st.integers(min_value=1, max_value=4))
def test_march_response_is_weight_times_unit_powers(s, j):
    # Step k of the march gives W_j * u^k, u^k built here by repeated mul.
    march, u, t = _single_shift_march(s, j)
    want = s
    for _ in range(5):
        march.advance()
        want = mul(want, u)
        assert _response(march, s, t) == want.truncate(t)


@settings(max_examples=80)
@given(exact_series(), st.integers(min_value=1, max_value=4))
def test_march_steps_invert_their_divisor(s, j):
    # Two steps divide by 1 - j x^2: x^(k+2) b_(k+2) (1 - j x^2) = x^2 x^k b_k.
    march, _, t = _single_shift_march(s, j)
    divisor = PuiseuxSeries.from_terms({0: 1, 2: -j}, t - s.valuation + 2)
    responses = []
    for _ in range(5):
        march.advance()
        responses.append(_response(march, s, t))
    for low, high in zip(responses, responses[2:]):
        assert mul(high, divisor) == low.x_shift(2).truncate(t)


@settings(max_examples=20)
@given(exact_series(), st.integers(min_value=1, max_value=4))
def test_one_chain_march_divides_by_one_minus_jz(s, j):
    # One seed per shift, as on x^2 = 1/n: step k gives z^k W_j / (1 - j z)^k.
    t = s.truncation + 1
    ample = t - s.valuation + 1
    unit = PuiseuxSeries.from_terms({i + 1: j**i for i in range(ample - 1)}, ample)
    march = ResponseMarch(PuiseuxSeries.zero(t), PuiseuxSeries.zero(t), {j: (s,)})
    want = s
    for _ in range(5):
        march.advance()
        want = mul(want, unit)
        assert _response(march, s, t) == want.truncate(t)


@settings(max_examples=30)
@given(exact_series(), st.integers(min_value=1, max_value=4), st.data())
def test_march_residual_pairs_track_what_absorb_adds(s, j, data):
    # At every order of a step, residual_pair gives r_o as R / D with D > 0;
    # absorbing -r_o / b_o, at an order where both are nonzero, cancels r
    # there and adds that multiple of x^k b_k at every order.
    _, u, t = _single_shift_march(s, j)
    v = data.draw(st.integers(min_value=s.valuation - 2, max_value=t))
    coeffs = data.draw(st.lists(small_rationals, min_size=t - v, max_size=t - v))
    want = PuiseuxSeries(v, coeffs, t)
    march = ResponseMarch(want, PuiseuxSeries.zero(t), {j: (s, mul(s, u.x_shift(-1)))})
    orders = range(min(s.valuation, v) - 1, t)
    for _ in range(4):
        march.advance()
        pairs = {o: march.residual_pair(o) for o in orders}
        assert all(d > 0 and Rational(r, d) == want.coefficient(o) for o, (r, d) in pairs.items())
        o = next((o for o in orders if pairs[o][0] and march.response(o)), None)
        if o is not None:
            a = -Rational(*pairs[o]) / march.response(o)
            march.absorb(a.numerator, a.denominator)
            want = add(want, _response(march, s, t).scale(a))
            assert march.residual_pair(o)[0] == 0
    assert all(Rational(*march.residual_pair(o)) == want.coefficient(o) for o in orders)


def test_a85_march_reads_minus_residual_over_response(a85, monkeypatch):
    # Each a_k is -r_o / b_o, r_o the pair the solve reads and b_o the
    # march's own response at that order.
    exp, reads = _reads(a85, 40, monkeypatch)
    assert exp.a == tuple(-Rational(*pair) / b for _, pair, b in reads)


def _draws(name, count):
    """The first count seeded draws of a family; two-term draws with u > 0
    alone, whose frame is the sequence's growth."""
    draws = (_family(name, seed) for seed in range(1, 100))
    return [rec for rec in draws if name != "two-term" or rec.coeffs[1][0] < 0][:count]


@pytest.mark.parametrize("name", ["monic", "two-term", "sparse", "order-3"])
def test_coefficients_do_not_depend_on_K(name):
    # The march's window is the assembly's, sized from K, so each a_k of a
    # solve at K is the a_k of a solve six or more orders longer.
    for rec in _draws(name, 2):
        frame = frame_solve(rec)
        longer = solve_expansion(rec, frame, 19).a
        for K in range(14):
            assert solve_expansion(rec, frame, K).a == longer[:K]


@pytest.mark.parametrize("name", ["a85", "order-3", "monic", "sparse"])
def test_march_window_covers_the_last_read(name, monkeypatch):
    # The march starts from the sum of the assembly's weights, uncut, so its
    # window is the certificate's, and that window is known past a_K's read
    # order, indicial + K: in x for a85 and order-3, in y = 1/n for monic
    # and sparse, at even and odd K.
    rec = a85_recurrence() if name == "a85" else _family(name, 1)
    frame = frame_solve(rec)
    r = engine._ramification(rec, frame)
    assert r == (2 if name in ("a85", "order-3") else 1)
    windows = []

    class RecordingMarch(ResponseMarch):
        __slots__ = ()

        def __init__(self, residual, base, seeds):
            windows.append(residual.truncation)
            super().__init__(residual, base, seeds)

    monkeypatch.setattr(engine, "ResponseMarch", RecordingMarch)
    reach = local_analysis(rec).reach
    for K in (0, 1, 12, 13):
        windows.clear()
        solve_expansion(rec, frame, K)
        assembly = engine._assemble(rec, frame, K + reach + 2, r)
        read = (assembly.indicial + K) // (2 // r)
        assert windows == [reduce(add, assembly.terms.values()).truncation]
        assert read < windows[0]


@pytest.mark.parametrize(
    "coeffs, r", [([[1, 1], [-1, -1], [1, 0, -1]], 2), ([[4, 4], [2, -4]], 1)],
    ids=["a85-times-n-plus-1", "catalan"],
)
def test_march_adds_a_w0_of_several_terms(coeffs, r):
    # W_0 = L_0, p_0 in z, has two terms here: a85 times n + 1 in x, and the
    # hand-gauged Catalan recurrence in y = 1/n.  Step by step, response
    # sums x^k * b_k = x^k * W_0 + sum_j W_j u_j^k at every order, and
    # absorbing a * x^k * b_k adds W_0's terms to r with the shifts' sum;
    # the a chosen make rho grow at some steps and not at others.
    rec = Recurrence(coeffs)
    frame = frame_solve(rec)
    assert engine._ramification(rec, frame) == r
    terms = engine._assemble(rec, frame, 16, r).terms
    assert len(list(terms[0].terms())) == 2
    want = reduce(add, terms.values())
    t, low = want.truncation, min(w.valuation for w in terms.values())
    z = PuiseuxSeries.monomial(1, 1, t - low + 2)
    units = {j: compose_shift(z, j, r) for j in terms if j}
    chains = {
        j: (w, mul(w, units[j].x_shift(-1))) if r == 2 else (w,) for j, w in terms.items() if j
    }
    march = ResponseMarch(want, terms[0], chains)
    powers = {j: w for j, w in terms.items() if j}
    orders = range(low, t)
    for k in range(1, 6):
        march.advance()
        powers = {j: mul(w, units[j]) for j, w in powers.items()}
        b = reduce(add, powers.values(), terms[0].x_shift(k))
        assert [march.response(o) for o in orders] == [b.coefficient(o) for o in orders]
        a = Rational((-1) ** k * k, k + 2)
        march.absorb(a.numerator, a.denominator)
        want = add(want, b.truncate(t).scale(a))
        assert all(Rational(*march.residual_pair(o)) == want.coefficient(o) for o in orders)


@pytest.mark.parametrize(
    "coeffs, error",
    [
        # Solutions 1/n and 1 + H_n/n: in the frame alpha = 0, a_2 meets the
        # other root alpha - 1 and its residual needs log(n)/n.
        ([[0, 0, 0, 1], [-1, 1, 2, -2], [2, -1, -2, 1]], FrameMismatch),
        # The resonance of the march cases below: a_2 is free.
        ([[0, -1, 1], [-2, 4, -2], [2, -3, 1]], ResonantOrder),
    ],
    ids=["log", "resonant"],
)
def test_vanishing_response_raises_by_the_residual(coeffs, error):
    # b_o = 0 at the order of a_2, so the residual there decides the error.
    rec, frame = Recurrence(coeffs), Frame(0, 0, 0)
    read = _x_indicial_order(_x_weights(rec, frame, 8), local_analysis(rec).reach) + 2
    with pytest.raises(error) as err:
        solve_expansion(rec, frame, 4)
    assert (err.value.k, err.value.order) == (2, read)


def test_march_products_do_not_grow_with_K(a85, a85_fr, monkeypatch):
    # Only the seeds W_j and W_j * g_j are products; every later step is an
    # O(T) division, so K = 20 and K = 60 make the same number of calls.
    calls = []

    def counting_mul(s1, s2):
        calls.append(1)
        return mul(s1, s2)

    monkeypatch.setattr(engine, "mul", counting_mul)
    counts = []
    for K in (20, 60):
        calls.clear()
        solve_expansion(a85, a85_fr, K)
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "coeffs, frame, r",
    [([[1], [0, -1]], Frame(1, 0, "1/2"), 1), ([[1], [-1], [1, -1]], Frame("1/2", 0, 0), 2)],
    ids=["factorial", "mismatch"],
)
def test_only_a_cold_assembly_makes_seed_products(coeffs, frame, r, monkeypatch):
    # The assembly owns the march's seeds: a cold one makes one seed
    # W_j * g_j per shift j >= 1 in x and none in y = 1/n, where c = 0 and
    # every beta * j is an integer (the a85 recurrence with c = 0 has
    # 2 beta j = 1 at j = 1), and a warm repeat solve makes no product.
    rec = Recurrence(coeffs)
    assert engine._ramification(rec, frame) == r
    shifts = [j for j, _ in rec.active_shifts() if j]
    units, calls = [], []

    def counting_shift_unit(j, T):
        units.append(shift_unit(j, T))
        return units[-1]

    def counting_mul(s1, s2):
        calls.append(s2)
        return mul(s1, s2)

    monkeypatch.setattr(engine, "shift_unit", counting_shift_unit)
    monkeypatch.setattr(engine, "mul", counting_mul)
    _outcome(solve_expansion, rec, frame, 6)
    seeds = [s for s in calls if any(s is u for u in units)]
    assert len(seeds) == (len(shifts) if r == 2 else 0)
    assert len(calls) == len(shifts) + len(seeds)  # and one weight per shift
    calls.clear()
    _outcome(solve_expansion, rec, frame, 6)
    assert calls == []


def _x_weights(rec, frame, unit_orders):
    """The weights W_j = L_j * Phi_j in x, from the public x kernels."""
    return {
        j: mul(poly_to_laurent(p, unit_orders), frame_ratio(frame, j, unit_orders))
        if j
        else poly_to_laurent(p, unit_orders)
        for j, p in rec.active_shifts()
    }


def _x_indicial_order(terms, reach):
    """The lowest order of x^(2l) M_l, M_l = sum_j (-j)^l W_j cut reach
    orders past the lowest valuation of the W_j, j >= 1."""
    cut = min(w.valuation for j, w in terms.items() if j) + reach
    moments = [
        reduce(add, (w.truncate(cut).scale((-j) ** l) for j, w in terms.items() if j))
        for l in range(1, len(terms))
    ]
    return min(2 * l + m.valuation for l, m in enumerate(moments, 1))


def _reference_certificate(rec, exp):
    """residual_check as it ran in x alone: S and every W_j over all orders
    of x, the residual read at its valuation in x."""
    reach = local_analysis(rec).reach
    unit_orders = exp.K + reach + 2
    terms = _x_weights(rec, exp.frame, unit_orders)
    s = PuiseuxSeries(0, (1,) + exp.a + (0,) * (unit_orders - exp.K - 1), unit_orders)
    residual = reduce(add, (mul(w, compose_shift(s, j) if j else s) for j, w in terms.items()))
    v0 = min(residual.valuation, _x_indicial_order(terms, reach) + 1)
    return residual.valuation - v0


def _reference_march(rec, frame, K):
    """The march as it ran on PuiseuxSeries before the integer kernel: every
    response through all T orders, every sum over a fresh lcm, in x."""
    reach = local_analysis(rec).reach
    unit_orders = K + reach + 1
    terms = _x_weights(rec, frame, unit_orders)
    indicial = _x_indicial_order(terms, reach)
    r = reduce(add, terms.values())
    x = PuiseuxSeries.monomial(1, 1, unit_orders + 1)
    responses = {
        j: (w, mul(w, compose_shift(x, j).x_shift(-1))) for j, w in terms.items() if j
    }
    a = []
    for k in range(1, K + 1):
        if k > 1:
            responses = {j: (cur, _divide(prev, j)) for j, (prev, cur) in responses.items()}
        b = reduce(add, (v for _, v in responses.values()), terms[0]).x_shift(k)
        o = indicial + k
        if r.valuation < o:
            raise FrameMismatch(k, r.valuation)
        q = b.coefficient(o)
        if q == 0:
            raise FrameMismatch(k, o) if r.coefficient(o) else ResonantOrder(k, o)
        a.append(-r.coefficient(o) / q)
        if a[-1] != 0:
            r = add(r, b.truncate(r.truncation).scale(a[-1]))
    return tuple(a)


def _divide(s, j):
    """s / (1 - j x^2) on coefficient values."""
    y = list(s.coeffs)
    for m in range(2, len(y)):
        y[m] += j * y[m - 2]
    return PuiseuxSeries(s.valuation, y, s.truncation)


def _outcome(solve, rec, frame, K):
    """The coefficients, or the typed error with its (k, order)."""
    try:
        return solve(rec, frame, K)
    except (FrameMismatch, ResonantOrder) as err:
        return type(err), err.k, err.order


_FACTORIAL = Recurrence([[1], [0, -1]])


def _family(name, seed):
    """A recurrence of the benchmark's frame-discovery families: t(n) =
    r(n) t(n-1) and r(n) t(n-j) with r monic, and t(n) = u t(n-1) + (n+v)
    t(n-2); or of order 3, t(n) = u t(n-1) + (n+v) t(n-2) + (n+w) t(n-3)
    with u > 0, whose frame has c = u + 1, in x, and reach 6."""
    rng = random.Random(seed)
    if name == "order-3":
        u, v, w = rng.randint(1, 3), rng.randint(-3, 3), rng.randint(-3, 3)
        return Recurrence([[1], [-u], [-v, -1], [-w, -1]])
    d = 1 + seed % 3 if name == "monic" else 1 + seed % 2
    r = [-rng.randint(-3, 3) for _ in range(d)] + [-1]
    if name == "monic":
        return Recurrence([[1], r])
    if name == "two-term":
        return Recurrence([[1], [-rng.choice([-3, -2, -1, 1, 2, 3])], [-rng.randint(-3, 3), -1]])
    return Recurrence([[1]] + [[]] * (1 + seed // 2 % 2) + [r])


def _twist(rec, h):
    """The recurrence of t'_n = (n + h) t_n: multiplying sum_j p_j(n)
    t'_(n-j) / (n - j + h) = 0 by prod_i (n - i + h) gives
    p'_j = p_j * prod_(i != j) (n - i + h)."""
    out = []
    for j, p in enumerate(rec.coeffs):
        for i in range(rec.order + 1):
            if i != j:
                p = _times_n_plus(p, h - i)
        out.append(p)
    return Recurrence(out)


def _twist_cases():
    cases = {"a85": a85_recurrence(), "motzkin": Recurrence([[18, 9], [-3, -6], [3, -3]])}
    for name, seeds in (("monic", (1, 2)), ("sparse", (1, 2)), ("order-3", (1, 2)),
                        ("two-term", (3, 5))):
        cases |= {f"{name}-{seed}": _family(name, seed) for seed in seeds}
    # t(n) = u t(n-1) + (n + v) t(n-2) with u > 0: p_1 = -u.
    assert cases["two-term-3"].coeffs[1] == (-2,) and cases["two-term-5"].coeffs[1] == (-3,)
    return cases


_TWIST_CASES = _twist_cases()


#: q(n) as the h of its factors n + h.
_SCALES = {"n+3": (3,), "(n+5)(n-2)": (5, -2)}


@pytest.mark.parametrize("q", _SCALES.values(), ids=_SCALES.keys())
@pytest.mark.parametrize("rec", _TWIST_CASES.values(), ids=_TWIST_CASES.keys())
def test_scale_invariance_polynomial(rec, q):
    # Multiply every p_j by q(n): same solution space, higher degrees, so
    # the same frame and the same a_k.
    scaled = Recurrence([reduce(_times_n_plus, q, p) for p in rec.coeffs])
    frame = frame_solve(rec)
    assert frame_solve(scaled) == frame
    assert solve_expansion(scaled, frame, 24).a == solve_expansion(rec, frame, 24).a


@pytest.mark.parametrize("rec", _TWIST_CASES.values(), ids=_TWIST_CASES.keys())
def test_n_plus_h_twist_shifts_alpha_and_mixes_the_coefficients(rec):
    # t'_n = (n + h) t_n = n (1 + h x^2) t_n in x = n^(-1/2), derived without
    # the program: the frame (beta, c, alpha + 1), and S' = S (1 + h x^2),
    # so a'_k = a_k + h a_(k-2) with a_0 = 1.
    frame = frame_solve(rec)
    a = (1,) + solve_expansion(rec, frame, 24).a
    for h in (0, 1, -2, 5):
        twisted = _twist(rec, h)
        got = frame_solve(twisted)
        assert (got.beta, got.c, got.alpha) == (frame.beta, frame.c, frame.alpha + 1), h
        want = tuple(a[k] + (h * a[k - 2] if k >= 2 else 0) for k in range(1, 25))
        assert solve_expansion(twisted, got, 24).a == want, h


def _bernoulli(n):
    """B_0 .. B_n with B_1 = -1/2, from sum_(j <= m) binom(m + 1, j) B_j = 0,
    as tests/test_oracles.py builds them."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def _stirling(K):
    """1, s_1 .. s_K of Stirling's series St = exp(sum_k B_2k / (2k (2k - 1))
    n^(1 - 2k)) in x = n^(-1/2), so n! = sqrt(2 pi) n^(n + 1/2) e^(-n) St."""
    b = _bernoulli(K // 2 + 2)
    log_st = [Fraction(0)] * (K + 1)
    for k in range(1, (K + 2) // 4 + 1):
        log_st[2 * (2 * k - 1)] = b[2 * k] / (2 * k * (2 * k - 1))
    return _exp(log_st)


def _exp(g):
    """exp(g) through the length of g, g[0] = 0: m e_m = sum_(i=1..m) i g_i
    e_(m-i)."""
    e = [Fraction(1)]
    for m in range(1, len(g)):
        e.append(sum(i * g[i] * e[m - i] for i in range(1, m + 1)) / m)
    return e


@pytest.mark.parametrize("rec", _TWIST_CASES.values(), ids=_TWIST_CASES.keys())
def test_factorial_twist_raises_beta_and_multiplies_by_stirlings_series(rec):
    # t'_n = n! t_n: multiplying sum_j p_j(n) t'_(n-j) / (n-j)! = 0 by n!
    # gives p'_j = p_j n (n - 1) ... (n - j + 1), derived without the
    # program.  n! brings n^(n + 1/2) e^(-n) St, so the frame is
    # (beta + 1, c, alpha + 1/2) and S' = S St.
    frame = frame_solve(rec)
    a = (1,) + solve_expansion(rec, frame, 24).a
    twisted = Recurrence(
        [reduce(_times_n_plus, range(0, -j, -1), p) for j, p in enumerate(rec.coeffs)]
    )
    got = frame_solve(twisted)
    assert (got.beta, got.c, got.alpha) == (frame.beta + 1, frame.c, frame.alpha + Fraction(1, 2))
    st = _stirling(24)
    want = tuple(sum(a[i] * st[k - i] for i in range(k + 1)) for k in range(1, 25))
    assert solve_expansion(twisted, got, 24).a == want


def _at_n_plus(p, s):
    """The coefficients of p(n + s), constant term first (Horner)."""
    out = []
    for c in reversed(p):
        out = _times_n_plus(out, s)
        out[0] += c
    return out


@pytest.mark.parametrize("rec", _TWIST_CASES.values(), ids=_TWIST_CASES.keys())
def test_index_shift_moves_alpha_by_beta_s(rec):
    # t'_n = t_(n+s) satisfies sum_j p_j(n + s) t'_(n-j) = 0, and
    # F(n + s) / F(n) ~ n^(beta s) up to a constant and a series in x, so the
    # frame is (beta, c, alpha + beta s).
    frame = frame_solve(rec)
    for s in (1, -1, 2):
        got = frame_solve(Recurrence([_at_n_plus(p, s) for p in rec.coeffs]))
        want = (frame.beta, frame.c, frame.alpha + frame.beta * s)
        assert (got.beta, got.c, got.alpha) == want, s


def _shift_ratio(frame, s, K):
    """1, r_1 .. r_K of R = F(n + s) / (F(n) n^(beta s)) in x = n^(-1/2):
    exp(beta A + c B + alpha C) at j = -s, from the closed forms of the
    frame module docstring, A = sum j^(m+1) x^(2m) / (m (m+1)), B = sum
    binom(1/2, m) (-j)^m x^(2m-1) and C = -sum j^m x^(2m) / m."""
    j, g, w = -s, [Fraction(0)] * (K + 1), Fraction(1)
    for m in range(1, K // 2 + 1):
        g[2 * m] = frame.beta * Fraction(j ** (m + 1), m * (m + 1)) - frame.alpha * Fraction(j**m, m)
    for m in range(1, (K + 1) // 2 + 1):
        w *= (Fraction(1, 2) - m + 1) * -j / m  # binom(1/2, m) (-j)^m
        g[2 * m - 1] = frame.c * w
    return _exp(g)


@pytest.mark.parametrize("rec", _TWIST_CASES.values(), ids=_TWIST_CASES.keys())
def test_index_shift_multiplies_by_the_shift_ratio(rec):
    # t'_n = t_(n+s) ~ F(n + s) S((n + s)^(-1/2)), and (n + s)^(-1/2) =
    # x (1 + s x^2)^(-1/2), so in the frame (beta, c, alpha + beta s)
    # S'(x) = R(x) S(x (1 + s x^2)^(-1/2)) with R the shift ratio above.
    K = 16
    frame = frame_solve(rec)
    a = (1,) + solve_expansion(rec, frame, K).a
    for s in (1, -1, 2):
        # S(x (1 + s x^2)^(-1/2)) = sum_k a_k x^k sum_m binom(-k/2, m) s^m x^(2m).
        composed = [Fraction(0)] * (K + 1)
        for k in range(K + 1):
            term = Fraction(a[k])
            for m in range((K - k) // 2 + 1):
                composed[k + 2 * m] += term
                term *= (Fraction(-k, 2) - m) * s / (m + 1)
        r = _shift_ratio(frame, s, K)
        want = tuple(sum(r[i] * composed[k - i] for i in range(k + 1)) for k in range(1, K + 1))
        shifted = Recurrence([_at_n_plus(p, s) for p in rec.coeffs])
        got = Frame(frame.beta, frame.c, frame.alpha + frame.beta * s)
        assert solve_expansion(shifted, got, K).a == want, s


_MARCH_CASES = [
    (f"{name}-{seed}", _family(name, seed), None, 12)
    for name in ("monic", "two-term", "sparse")
    for seed in (1, 2, 3)
] + [
    # a85 with c = 0: 2 beta j is odd for j = 1, so the march stays in x.
    ("mismatch", Recurrence([[1], [-1], [1, -1]]), Frame("1/2", "0", "0"), 4),
    ("resonant", Recurrence([[0, -1, 1], [-2, 4, -2], [2, -3, 1]]), Frame(0, 0, 0), 3),
    ("a85", a85_recurrence(), a85_frame(), 40),
    # On x^2 = 1/n: the Stirling series; the factorial in a wrong alpha,
    # refused at k = 1 by the valuation of r; a resonance at an odd k; and
    # a weight above the first window.
    ("factorial", _FACTORIAL, Frame(1, 0, "1/2"), 24),
    ("factorial-alpha", _FACTORIAL, Frame(1, 0, 0), 4),
    ("resonant-k5", Recurrence([[1, 1], [3, -1], [-2, -1], [-2, 1]]), Frame(0, 0, 0), 8),
    ("window-K0", Recurrence([[2], [0, 0, -2], [1]]), None, 0),
    ("window-K1", Recurrence([[2], [0, 0, -2], [1]]), None, 1),
    # Wrong frames on x^2 = 1/n, each refused at k = 1 by the valuation of
    # r: beta too large or too small, and alpha wrong on a sparse shift.
    ("factorial-beta", _FACTORIAL, Frame(2, 0, "1/2"), 4),
    ("factorial-zero", _FACTORIAL, Frame(0, 0, 0), 4),
    ("monic-beta", _family("monic", 1), Frame(1, 0, 1), 4),
    ("sparse2-alpha", _family("sparse", 1), Frame(1, 0, 0), 6),
    ("sparse3-alpha", Recurrence([[1], [], [], [0, -1]]), Frame("1/3", 0, 0), 4),
]


@pytest.mark.parametrize(
    "rec, frame, K", [case[1:] for case in _MARCH_CASES], ids=[case[0] for case in _MARCH_CASES]
)
def test_march_matches_the_series_march(rec, frame, K):
    frame = frame or frame_solve(rec)
    want = _outcome(_reference_march, rec, frame, K)
    got = _outcome(lambda *args: solve_expansion(*args).a, rec, frame, K)
    assert got == want


def test_weight_above_the_first_window():
    # 2 t(n) - 2 n^2 t(n-1) + t(n-2) = 0 has the frame beta = 2, where W_2
    # has valuation 8: at K = 0 the residual is known through O(x^6), so
    # W_2 lies wholly above the first step's window and must be cut to
    # nothing, not sliced with a negative bound (the path of
    # solve-frame --verify 0 on this recurrence).
    rec = Recurrence([[2], [0, 0, -2], [1]])
    frame = frame_solve(rec)
    assert frame == Frame(2, 0, 1)
    exp = solve_expansion(rec, frame, 0)
    assert exp.a == ()
    assert residual_check(rec, exp) == 1
    for K in (1, 2, 5):
        assert solve_expansion(rec, frame, K).a == _reference_march(rec, frame, K)


@pytest.mark.parametrize("K", [0, 1])
@pytest.mark.parametrize("name", ["a85", "sparse"])
def test_shortest_solves(a85, a85_fr, name, K):
    rec, frame = (a85, a85_fr) if name == "a85" else (Recurrence([[1], [], [-1, -1]]), None)
    frame = frame or frame_solve(rec)
    exp = solve_expansion(rec, frame, K)
    assert exp.a == _reference_march(rec, frame, K)
    assert residual_check(rec, exp) >= K
    if name == "a85" and K:
        assert exp.a == (Rational(7, 24),)


# -- weights shared by the solve and its certificate --------------------------


@pytest.mark.parametrize(
    "coeffs, K", [(a85_recurrence().coeffs, 20), ([[1], [], [-1, -1]], 12)], ids=["a85", "sparse"]
)
def test_solve_and_certificate_build_the_weights_once(coeffs, K, monkeypatch):
    # One frame ratio per active shift j >= 1, for the solve and the
    # certificate together.
    rec = Recurrence(coeffs)
    frame = frame_solve(rec)
    calls = []

    def counting_frame_ratio(fr, j, *args):
        calls.append(j)
        return frame_ratio(fr, j, *args)

    monkeypatch.setattr(engine, "frame_ratio", counting_frame_ratio)
    exp = solve_expansion(rec, frame, K)
    assert residual_check(rec, exp) >= K
    assert sorted(calls) == [j for j, _ in rec.active_shifts() if j]


def _solve_and_certify(rec, frame, K):
    exp = solve_expansion(rec, frame, K)
    return exp.a, residual_check(rec, exp)


@pytest.mark.parametrize(
    "rec, frame, K", [case[1:] for case in _MARCH_CASES], ids=[case[0] for case in _MARCH_CASES]
)
def test_memoized_weights_change_no_outcome(rec, frame, K):
    # Cold: the solve assembles and the certificate reuses; warm: both reuse.
    # The march reads the memoized seeds and leaves them as they were.
    frame = frame or frame_solve(rec)
    cold = _outcome(_solve_and_certify, rec, frame, K)
    key = rec, frame, K + local_analysis(rec).reach + 2, engine._ramification(rec, frame)
    assembly = engine._assemble(*key)
    seeds = {j: [_stored(s) for s in chain] for j, chain in assembly.seeds.items()}
    assert _outcome(_solve_and_certify, rec, frame, K) == cold
    assert engine._assemble(*key) is assembly
    assert {j: [_stored(s) for s in chain] for j, chain in assembly.seeds.items()} == seeds


def _stored(s):
    """What a series stores: valuation, numerators, denominator and
    truncation."""
    return s.valuation, s.nums, s.den, s.truncation


@pytest.mark.parametrize(
    "rec, frame, K", [case[1:] for case in _MARCH_CASES], ids=[case[0] for case in _MARCH_CASES]
)
def test_cut_weights_store_what_the_solve_window_stores(rec, frame, K):
    # Cutting the bare residual sum_j W_j from the certificate's window to
    # K + 1 + min(reach, d) orders of x, where a_K's read order ends, stores
    # what the weights of an assembly through that window sum to, over no
    # larger a denominator: a cut is in lowest terms.
    frame = frame or frame_solve(rec)
    reach = local_analysis(rec).reach
    r = engine._ramification(rec, frame)
    wide = engine._assemble(rec, frame, K + reach + 2, r)
    T = K + 1 + min(reach, wide.indicial - wide.leading)
    narrow = engine._assemble.__wrapped__(rec, frame, T, r).terms
    assert wide.terms.keys() == narrow.keys()
    bare = reduce(add, wide.terms.values())
    extra = engine._orders(K + reach + 2, r) - engine._orders(T, r)
    cut, want = bare.truncate(bare.truncation - extra), reduce(add, narrow.values())
    assert cut == want
    assert want.den % cut.den == 0 and gcd(cut.den, *cut.nums) == 1
    # An assembly one order shorter has the same moments, indicial order
    # and leading valuation.
    through = engine._assemble.__wrapped__(rec, frame, K + reach + 1, r)
    assert (through.moments, through.indicial, through.leading) == (
        wide.moments, wide.indicial, wide.leading
    )


def test_memos_shared_across_recurrences_change_no_outcome(a85, a85_fr):
    # a85, a two-term recurrence sharing its shifts 1 and 2, then a85 again:
    # the frame parts and the seeds, keyed on (j, T) alone, serve both, the
    # stretched units, keyed on (beta, c, j, T), serve a85's second solve,
    # and every outcome is that of a solve with every memo cleared.
    other = _family("two-term", 1)
    cases = [(a85, a85_fr), (other, frame_solve(other)), (a85, a85_fr)]
    cold = []
    for rec, frame in cases:
        _clear_memos()
        cold.append(_solve_and_certify(rec, frame, 12))
    _clear_memos()
    assert [_solve_and_certify(rec, frame, 12) for rec, frame in cases] == cold
    assert _ratio_parts.cache_info().hits and shift_unit.cache_info().hits
    assert _stretched_unit.cache_info().hits


def test_memoized_weights_are_read_only(a85, a85_fr):
    weights = engine._assemble(a85, a85_fr, 5, 2)
    with pytest.raises(TypeError):
        weights.terms[0] = PuiseuxSeries.zero(5)
    with pytest.raises(TypeError):
        weights.seeds[1] = ()
    assert all(isinstance(chain, tuple) for chain in weights.seeds.values())
    with pytest.raises(AttributeError):
        weights.indicial = 0
    assert isinstance(weights.moments, tuple)
    assert engine._assemble(a85, a85_fr, 5, 2) is weights


# -- residual certificate -----------------------------------------------------


_EVEN_CASES = {
    **{f"monic-{seed}": _family("monic", seed) for seed in (1, 2, 3)},
    # j = 2 and j = 3, each with d = 1 and d = 2.
    **{f"sparse-{seed}": _family("sparse", seed) for seed in (1, 2, 3, 4)},
    "factorial": _FACTORIAL,
    "n-t(n-3)": Recurrence([[1], [], [], [0, -1]]),
    # t(n) = n: S = 1 exactly, so the residual vanishes through its window.
    "exact": Recurrence([[-1, 1], [0, -1]]),
}


def _recording_compose_shift(monkeypatch):
    """Record the ramification of every compose_shift of the certificate."""
    lattices = []

    def recording(s, j, r=2):
        lattices.append(r)
        return compose_shift(s, j, r)

    monkeypatch.setattr(engine, "compose_shift", recording)
    return lattices


@pytest.mark.parametrize("rec", _EVEN_CASES.values(), ids=_EVEN_CASES.keys())
def test_certificate_in_y_matches_the_x_reference(rec, monkeypatch):
    # Every W_j, S and u_j^2 = y / (1 - j y) are even, so the certificate in
    # y = 1/n reads the order the certificate in x reads, at every K, odd K
    # included, where the y residual is known one order of x further.
    frame = frame_solve(rec)
    assert engine._ramification(rec, frame) == 1
    lattices = _recording_compose_shift(monkeypatch)
    for K in (0, 1, 2, 5, 13, 24):
        exp = solve_expansion(rec, frame, K)
        assert residual_check(rec, exp) == _reference_certificate(rec, exp)
    assert set(lattices) == {1}


@pytest.mark.parametrize(
    "a", [("1/5", "1/12"), ("0", "1/12", "1/7", "1/288"), ("0", "1/12", "0", "1/288", "1/9")],
    ids=["a1", "a3", "a5"],
)
def test_certificate_with_an_odd_coefficient_runs_in_x(a, monkeypatch):
    # A nonzero odd a_k makes S odd: the expansion is certified in x, as the
    # reference certifies it, though its frame lives on y = 1/n.
    exp = Expansion(Frame(1, 0, "1/2"), [as_rational(v) for v in a])
    lattices = _recording_compose_shift(monkeypatch)
    want = _reference_certificate(_FACTORIAL, exp)
    assert residual_check(_FACTORIAL, exp) == want < exp.K
    assert lattices == [2]


@pytest.mark.parametrize("rec", _EVEN_CASES.values(), ids=_EVEN_CASES.keys())
def test_weights_in_y_are_the_even_orders_of_the_weights_in_x(rec):
    # W_j in y stores the numerators of the even orders of W_j in x, over
    # the same denominator, from v/2 through ceil(T/2), and every odd order
    # of W_j in x is zero.
    frame = frame_solve(rec)
    for T in (3, 8):
        even, x = engine._assemble(rec, frame, T, 1).terms, _x_weights(rec, frame, T)
        assert even.keys() == x.keys()
        for j, w in x.items():
            assert w.valuation % 2 == 0 and not any(w.nums[1::2])
            assert (even[j].valuation, even[j].truncation) == (
                w.valuation // 2,
                -(-w.truncation // 2),
            )
            assert (even[j].nums, even[j].den) == (w.nums[::2], w.den)


def test_residual_check_certifies_solution(a85, a85_k10):
    assert residual_check(a85, a85_k10) >= 10


def test_residual_check_catches_corrupted_first_coefficient(a85, a85_k10):
    bad = Expansion(a85_k10.frame, [Rational(7, 25)])
    assert residual_check(a85, bad) == 0


def test_residual_check_localizes_corruption(a85, a85_k10):
    a = list(a85_k10.a[:5])
    a[2] = a[2] + 1
    assert residual_check(a85, Expansion(a85_k10.frame, a)) == 2


def test_residual_check_on_bare_frame(a85, a85_fr):
    assert residual_check(a85, Expansion(a85_fr, [])) >= 0


# -- the Expansion container ---------------------------------------------------


def test_expansion_coefficient_access(a85_k10):
    assert a85_k10.coefficient(0) == 1
    assert a85_k10.coefficient(1) == Rational(7, 24)
    with pytest.raises(ValueError):
        a85_k10.coefficient(11)
    with pytest.raises(ValueError):
        a85_k10.coefficient(-1)


def test_expansion_validation(a85_fr):
    # K is the length of a; a declared K is checked as Recurrence checks its
    # declared order: the int len(a), not a bool, float or str.
    exp = Expansion(a85_fr, [Rational(7, 24)])
    for K in (2, 0, -1, 1.0, True, "1"):
        with pytest.raises(ValueError, match="declared K"):
            Expansion.from_json_dict(dict(exp.to_json_dict(), K=K))
    with pytest.raises(AttributeError):
        exp.K = 5


@pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
def test_expansion_refuses_an_inexact_coefficient(a85_fr, value):
    # The a_k are taken by rationals.rat, as the frame's parameters are: a
    # float or a bool is refused here, not met later by eval_expansion.
    with pytest.raises(TypeError):
        Expansion(a85_fr, [Rational(7, 24), value])


def test_expansion_reads_a_rational_string_and_keeps_a_rational(a85_fr):
    exp = Expansion(a85_fr, ["7/24", -1])
    assert exp.a == (Rational(7, 24), Rational(-1))
    assert all(type(v) is Rational for v in exp.a)
    a = Rational(7, 24)
    assert Expansion(a85_fr, [a]).a[0] is a
    with pytest.raises(ValueError):
        Expansion(a85_fr, ["0.5"])


def test_expansion_json_round_trip(a85, a85_fr):
    exp = solve_expansion(a85, a85_fr, 2)
    data = exp.to_json_dict()
    assert data == {
        "frame": {"beta": "1/2", "c": "1", "alpha": "0", "kappa": "-1/4"},
        "K": 2,
        "a": ["7/24", "-119/1152"],
    }
    assert Expansion.from_json_dict(data) == exp
