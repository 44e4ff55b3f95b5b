"""Automatic determination of frame parameters from the recurrence alone."""

from functools import reduce
from math import comb, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recasymp import (
    AmbiguousRoot,
    Frame,
    NoRationalRoot,
    RamificationError,
    Rational,
    Recurrence,
    frame_solve,
    rational_roots,
    residual_check,
    solve_expansion,
)
from recasymp import add, engine, exp_series, frame_ratio_parts, framesolve, mul, shift_exponent
from recasymp.engine import _assemble
from recasymp.recurrence import local_analysis, poly_to_laurent


def test_involution_frame(a85, a85_fr):
    fr = frame_solve(a85)
    assert fr == Frame("1/2", "1", "0", "0")
    # kappa is not determined by the recurrence; everything else matches
    # the hand-supplied frame.
    assert (fr.beta, fr.c, fr.alpha) == (a85_fr.beta, a85_fr.c, a85_fr.alpha)


def test_solved_frame_reproduces_coefficients(a85, a85_fr, a85_k10):
    exp = solve_expansion(a85, frame_solve(a85), 10)
    assert exp.a == a85_k10.a


def test_factorial_frame():
    # n! ~ sqrt(2 pi) n^n e^(-n) sqrt(n): beta = 1, c = 0, alpha = 1/2.
    fr = frame_solve(Recurrence([[1], [0, -1]]))
    assert fr == Frame(1, 0, "1/2", 0)


def test_reciprocal_factorial_frame():
    fr = frame_solve(Recurrence([[0, 1], [-1]]))
    assert fr == Frame(-1, 0, "-1/2", 0)


def test_constant_sequence_frame():
    assert frame_solve(Recurrence([[1], [-1]])) == Frame(0, 0, 0, 0)


def test_sparse_recurrence_with_third_integer_beta():
    # t_n = n t_{n-3} has 2*beta*j integral for its only active shift
    # j = 3, so beta = 1/3 stays on the ramification-2 lattice.  For
    # n = 3m the solution is 3^m m!, whose Stirling series in m = n/3
    # scales the factorial one: 1/12 -> 3/12, 1/288 -> 9/288, ...
    rec = Recurrence([[1], [], [], [0, -1]])
    fr = frame_solve(rec)
    assert fr == Frame("1/3", 0, "1/2", 0)
    exp = solve_expansion(rec, fr, 6)
    assert list(exp.a) == [
        0,
        Rational(1, 4),
        0,
        Rational(1, 32),
        0,
        Rational(-139, 1920),
    ]
    assert residual_check(rec, exp) >= 6


def test_off_lattice_beta_rejected():
    # Here j = 1 is active, so beta = 1/3 needs x^(2/3): not representable.
    with pytest.raises(RamificationError):
        frame_solve(Recurrence([[1], [-1], [], [0, -1]]))


def test_geometric_growth_not_in_template():
    # t_n = 2 t_{n-1} needs a rho^n factor with rho != 1; the template has
    # none, and the constant residual equation is unsatisfiable.
    with pytest.raises(NoRationalRoot):
        frame_solve(Recurrence([[1], [-2]]))


def test_irrational_c_reported():
    # This recurrence forces c^2 = 8: no rational c exists.
    with pytest.raises(NoRationalRoot):
        frame_solve(Recurrence([[1], [-3, -2], [0, 0, 1]]))


def test_ambiguous_c_reports_all_candidates():
    # c^2 = 4 has two rational roots; neither may be chosen silently.
    with pytest.raises(AmbiguousRoot) as info:
        frame_solve(Recurrence([[1], [-2, -2], [0, 0, 1]]))
    assert info.value.candidates == [-2, 2]


@pytest.mark.parametrize(
    "coeffs, error",
    [
        ([[1, 1], [-2]], NoRationalRoot),
        ([[1, -2, -1], [3], [1, 1, 3], [-1, -2, -2]], NoRationalRoot),
        ([[-3, 0, -1], [3, 3, 2], [1, -2, -1]], AmbiguousRoot),
    ],
    ids=["forced-constant", "no-rational-c", "ambiguous-c"],
)
def test_equation_messages_print_negative_orders_plainly(coeffs, error):
    # Each of these equations sits at order -2.
    with pytest.raises(error) as info:
        frame_solve(Recurrence(coeffs))
    assert "at order -2 " in str(info.value)
    assert "--" not in str(info.value)


@pytest.mark.parametrize("m", range(2, 11))
def test_difference_operator_alpha_is_ambiguous(m):
    # The m-th difference annihilates 1, n, ..., n^(m-1): chi(z) = (1 - z)^m
    # has a root of multiplicity m at z = 1, c = 0 comes from order m and
    # alpha(alpha - 1)...(alpha - m + 1) = 0 from order 2m.
    rec = Recurrence([[(-1) ** j * comb(m, j)] for j in range(m + 1)])
    with pytest.raises(AmbiguousRoot) as info:
        frame_solve(rec)
    assert info.value.candidates == list(range(m))


def test_repeated_alpha_root_is_refused():
    # The harmonic numbers, n t(n) - (2n - 1) t(n-1) + (n - 1) t(n-2) = 0:
    # the frame equations are c^2/4 = 0 and alpha^2 = 0.  The repeated
    # alpha stands for the log n of H_n ~ log n + gamma + 1/(2n) + ...,
    # which the template cannot hold, so no frame is printed for it.
    with pytest.raises(NoRationalRoot, match="repeated root 0"):
        frame_solve(Recurrence([[0, 1], [1, -2], [-1, 1]]))


# -- round trip on recurrences with closed-form frames ---------------------------

small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(small, min_size=1, max_size=3),
)
def test_round_trip_product_recurrence(j, low):
    # t(n) = r(n) t(n - j) with r monic of degree d: beta = d/j, c = 0 and
    # alpha = d/2 + b/j, b the n^(d-1) coefficient of r.
    r = low + [1]
    d = len(low)
    rec = Recurrence([[1]] + [[]] * (j - 1) + [[-v for v in r]])
    frame = frame_solve(rec)
    assert frame == Frame(Rational(d, j), 0, Rational(d, 2) + Rational(low[-1], j), 0)
    assert residual_check(rec, solve_expansion(rec, frame, 12)) >= 12


@settings(max_examples=30, deadline=None)
@given(small, small)
def test_round_trip_involution_family(u, v):
    # t(n) = u t(n - 1) + (n + v) t(n - 2): beta = 1/2, c = u and
    # alpha = (v + 1)/2 (u = 1, v = -1 is the involution recurrence).
    rec = Recurrence([[1], [-u], [-v, -1]])
    frame = frame_solve(rec)
    assert frame == Frame("1/2", u, Rational(v + 1, 2), 0)
    assert residual_check(rec, solve_expansion(rec, frame, 12)) >= 12


# -- rational root extraction ---------------------------------------------------


def test_rational_roots_quadratic():
    assert rational_roots([1, -5, 6]) == [Rational(1, 3), Rational(1, 2)]


@pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
def test_rational_roots_refuses_an_inexact_coefficient(value):
    # The coefficients are taken by rationals.rat: no root is read from a
    # binary float, and a bool is not the number 1.
    with pytest.raises(TypeError):
        rational_roots([value, 1])


def test_rational_roots_reads_rational_strings():
    assert rational_roots(["1/2", 1]) == [Rational(-1, 2)]
    assert rational_roots(["-3/2", "-1/2", 1]) == [Rational(-1), Rational(3, 2)]
    with pytest.raises(ValueError):
        rational_roots(["0.5", 1])


def test_rational_roots_linear():
    assert rational_roots([3, 2]) == [Rational(-3, 2)]


def test_rational_roots_zero_root_deflation():
    assert rational_roots([0, 0, -1, 1]) == [0, 1]


def test_rational_roots_none():
    assert rational_roots([-2, 0, 1]) == []
    assert rational_roots([1, 0, 1]) == []
    assert rational_roots([5]) == []


def test_rational_roots_rational_coefficients():
    # x^2 - x/6 - 1/6 = 0 has roots 1/2 and -1/3.
    assert rational_roots([Rational(-1, 6), Rational(-1, 6), 1]) == [
        Rational(-1, 3),
        Rational(1, 2),
    ]


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots([])
    with pytest.raises(ValueError):
        rational_roots([0, 0])


def test_rational_roots_large_coefficients():
    # (x - 12!)(x + 1): the root search must survive large integer factors.
    big = 479001600
    assert rational_roots([-big, big - 1, 1]) == [-big, 1]


def test_rational_roots_need_no_factoring():
    # N is the product of two primes above 10^6, beyond trial division.
    N = 1000003 * 1000033
    assert rational_roots([N, -(N + 1), 1]) == [1, N]


small_rationals = st.builds(
    Rational, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=12)
)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rationals, min_size=1, max_size=4), small, small, st.sampled_from([1, -1]))
def test_rational_roots_are_exactly_the_linear_factors(roots, b, c, sign):
    # x^2 + b x + c is irreducible over Q unless its discriminant is a
    # square; the first linear factor is repeated, and the leading
    # coefficient takes either sign.
    disc = b * b - 4 * c
    assume(disc < 0 or isqrt(disc) ** 2 != disc)
    poly = [sign * c, sign * b, sign]
    for r in roots + roots[:1]:
        poly = [
            r.denominator * lo - r.numerator * hi
            for lo, hi in zip([0] + poly, poly + [0])
        ]
    assert rational_roots(poly) == sorted(set(roots))


# -- the frame equations against the solver's own assembly -----------------------


@st.composite
def recurrences(draw):
    end = st.lists(small, min_size=1, max_size=3).filter(any)
    inner = st.lists(small, max_size=3)
    order = draw(st.integers(min_value=1, max_value=3))
    inside = [draw(inner) for _ in range(order - 1)]
    return Recurrence([draw(end)] + inside + [draw(end)])


@settings(max_examples=40, deadline=None)
@given(recurrences(), small_rationals, small_rationals)
def test_frame_equations_match_the_assembled_residual(rec, c, alpha):
    # Each order's {(i, l): e} dict, evaluated at (c, alpha), is the
    # coefficient of the bare-frame residual the solver assembles.
    beta, reach = local_analysis(rec)
    T = reach + 1
    try:
        orders = framesolve._frame_equations(rec, beta, T)
    except RamificationError:
        assume(False)
    terms = _assemble(rec, Frame(beta, c, alpha), T, 2).terms
    residual = reduce(add, terms.values())
    assert all(o < residual.truncation for o in orders)
    low = min([residual.valuation, *orders])
    for o in range(low, residual.truncation):
        value = sum(
            e * c**i * alpha**l for (i, l), e in orders.get(o, {}).items()
        )
        assert value == residual.coefficient(o)


def _chained_frame_equations(rec, beta, T):
    """_frame_equations with nothing shared between recurrences, from the
    public kernels: per shift, L_j x^(2 beta j) exp(beta A_j) times B_j^i/i!,
    and each of those times C_j^l/l!, one product after another."""
    parts = {(0, 0): poly_to_laurent(rec.coeffs[0], T)}
    for j, p in list(rec.active_shifts())[1:]:
        a, b, c = frame_ratio_parts(j, T)
        unit = exp_series(a.scale(beta)).x_shift(shift_exponent(beta, j))
        row = mul(poly_to_laurent(p, T), unit)
        for i in range(T):
            term = row
            for l in range((T + 1 - i) // 2):
                parts[i, l] = add(parts[i, l], term) if (i, l) in parts else term
                term = mul(term, c).scale(Rational(1, l + 1))
            row = mul(row, b).scale(Rational(1, i + 1))
    truncation = min(part.truncation for part in parts.values())
    orders = {}
    for key, part in parts.items():
        for o, v in part.terms():
            if o < truncation:
                orders.setdefault(o, {})[key] = v
    return orders


@settings(max_examples=15, deadline=None)
@given(recurrences())
def test_frame_equations_match_the_chained_products(rec):
    # The memoized expansion of each shift, times the exact L_j, gives the
    # orders, keys and coefficients of the chain, in the same order.
    beta, reach = local_analysis(rec)
    try:
        want = _chained_frame_equations(rec, beta, reach + 1)
    except RamificationError:
        assume(False)
    got = framesolve._frame_equations(rec, beta, reach + 1)
    assert [(o, list(d.items())) for o, d in got.items()] == [
        (o, list(d.items())) for o, d in want.items()
    ]


def test_shift_expansions_are_shared_and_immutable():
    # a85 and t(n) = 2t(n-1) + n t(n-2) have beta = 1/2 and the same window:
    # the second finds both of its shifts' expansions memoized.
    framesolve._shift_expansion.cache_clear()
    frame_solve(Recurrence([[1], [-1], [1, -1]]))
    before = framesolve._shift_expansion.cache_info()
    assert frame_solve(Recurrence([[1], [-2], [0, -1]])) == Frame("1/2", 2, "1/2")
    after = framesolve._shift_expansion.cache_info()
    assert after.hits - before.hits == 2
    assert after.currsize == before.currsize == 2
    entries = framesolve._shift_expansion(Rational(1, 2), 1, 5)
    assert isinstance(entries, tuple) and all(isinstance(e, tuple) for e in entries)
    with pytest.raises(AttributeError):
        entries[0][1].truncation = 0


# -- the local analysis: beta and the short window of the indicial order ---------


def _full_window_indicial_order(terms):
    """leading + d as the engine found it before its short window: the
    moments M_l = sum_j (-j)^l W_j over each W_j's whole window."""
    weights = [(-j, w) for j, w in terms.items() if j]
    return min(
        2 * l + reduce(add, (w.scale(s**l) for s, w in weights)).valuation
        for l in range(1, len(terms))
    )


@settings(max_examples=25, deadline=None)
@given(recurrences(), st.integers(0, 8), st.integers(-1, 1), small_rationals, small_rationals)
def test_short_window_finds_the_full_window_indicial_order(rec, K, shift, c, alpha):
    # Under the solved frame and under a wrong one (beta moved by an
    # integer, which keeps 2*beta*j integral), the W_j cut reach orders past
    # their lowest valuation give the order the whole window gives, in x and
    # on the lattice the solve takes (y = 1/n for c = 0 and beta*j integral).
    beta, reach = local_analysis(rec)
    frames = [Frame(beta + shift, c, alpha)]
    try:
        solved = frame_solve(rec)
        assert solved.beta == beta
        frames.append(solved)
    except RamificationError:
        assume(False)
    except (NoRationalRoot, AmbiguousRoot):
        pass
    for frame in frames:
        want = _full_window_indicial_order(_assemble(rec, frame, K + reach + 1, 2).terms)
        for r in {2, engine._ramification(rec, frame)}:
            terms = _assemble(rec, frame, K + reach + 1, r).terms
            assert engine._indicial_order(engine._moments(terms, reach * r // 2), r) == want
