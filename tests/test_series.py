"""Truncated Puiseux series arithmetic: worked examples with frozen values.

The variable is x = n^(-1/2); exponents are integers in x, truncations are
tracked per operation.  Randomized coverage lives in
test_series_properties.py; this file pins concrete expansions.
"""

import random

import pytest

from recasymp import (
    NegativeValuation,
    NonPositiveValuation,
    PuiseuxSeries,
    Rational,
    add,
    compose_shift,
    exp_series,
    log1p_series,
    mul,
)


def S(valuation, coeffs, truncation):
    return PuiseuxSeries(valuation, coeffs, truncation)


# -- construction and normalization -----------------------------------------


def test_dense_storage_contract():
    s = S(1, [1, 0, 3], 4)
    assert s.valuation == 1
    assert s.coeffs == (1, 0, 3)
    assert s.truncation == 4


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        S(0, [1, 2], 3)


def test_leading_zeros_normalize_upward():
    s = S(0, [0, 0, 5, 7], 4)
    assert s.valuation == 2
    assert s.coeffs == (5, 7)


def test_zero_series_is_canonical():
    assert S(0, [0, 0, 0], 3) == PuiseuxSeries.zero(3)
    z = PuiseuxSeries.zero(3)
    assert z.is_zero
    assert z.valuation == 3
    assert z.coeffs == ()
    assert not bool(z)


def test_truncation_below_valuation_rejected():
    with pytest.raises(ValueError):
        S(2, [], 1)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        S(0, [0.5], 1)
    with pytest.raises(TypeError):
        PuiseuxSeries.one(3).scale(0.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: S(0, [True, False], 2),
        lambda: PuiseuxSeries.from_terms({0: True}, 1),
        lambda: PuiseuxSeries.one(3).scale(True),
    ],
    ids=["dense", "from_terms", "scale"],
)
def test_bool_coefficients_rejected(build):
    # A JSON true is not the number 1, as for rat and Recurrence.
    with pytest.raises(TypeError, match="bool"):
        build()


def test_from_terms():
    s = PuiseuxSeries.from_terms({-2: 1, 0: -1}, 3)
    assert s.valuation == -2
    assert s.coefficient(-2) == 1
    assert s.coefficient(-1) == 0
    assert s.coefficient(0) == -1
    with pytest.raises(ValueError):
        PuiseuxSeries.from_terms({5: 1}, 3)


@pytest.mark.parametrize("seed", range(8))
def test_from_terms_stores_what_the_dense_constructor_stores(seed):
    rng = random.Random(seed)
    truncation = rng.randint(-3, 12)
    exponents = rng.sample(range(truncation - 12, truncation), rng.randint(1, 6))
    terms = {
        k: rng.choice([0, rng.randint(-9, 9), Rational(rng.randint(-9, 9), rng.randint(1, 12))])
        for k in exponents
    }
    lo = min(terms)
    dense = S(lo, [terms.get(k, 0) for k in range(lo, truncation)], truncation)
    got = PuiseuxSeries.from_terms(terms, truncation)
    assert (got.valuation, got.nums, got.den, got.truncation) == (
        dense.valuation,
        dense.nums,
        dense.den,
        dense.truncation,
    )


def test_from_terms_refusals():
    assert PuiseuxSeries.from_terms({}, 4) == PuiseuxSeries.zero(4)
    with pytest.raises(ValueError):
        PuiseuxSeries.from_terms({0: 1, 3: Rational(1, 2)}, 3)
    with pytest.raises(TypeError):
        PuiseuxSeries.from_terms({0: 1, 1: 0.5}, 3)


def test_monomial_and_constant():
    m = PuiseuxSeries.monomial(3, 2, 5)
    assert m.valuation == 2 and m.coefficient(2) == 3
    with pytest.raises(ValueError):
        PuiseuxSeries.monomial(1, 3, 3)
    with pytest.raises(ValueError):
        PuiseuxSeries.constant(1, 0)


# -- coefficient access ------------------------------------------------------


def test_coefficient_below_valuation_is_zero():
    s = S(2, [5], 3)
    assert s.coefficient(-7) == 0
    assert s.coefficient(2) == 5


def test_coefficient_at_truncation_is_unknown():
    s = S(0, [1, 2], 2)
    with pytest.raises(ValueError):
        s.coefficient(2)
    with pytest.raises(ValueError):
        s.coefficient(100)


def test_terms_iterates_nonzero_only():
    s = S(-1, [2, 0, 7], 2)
    assert list(s.terms()) == [(-1, Rational(2)), (1, Rational(7))]


# -- add / mul / truncation rules ---------------------------------------------


def test_add_cancellation():
    a = S(0, [1, 1, 0, 0, 0], 5)
    b = S(0, [-1, 1, 0, 0, 0], 5)
    assert add(a, b) == PuiseuxSeries.monomial(2, 1, 5)


def test_add_identity():
    s = S(-1, [3, 1], 1)
    assert add(s, PuiseuxSeries.zero(1)) == s


def test_add_laurent_merge():
    s = add(PuiseuxSeries.monomial(1, -2, 3), PuiseuxSeries.one(3))
    assert s == PuiseuxSeries.from_terms({-2: 1, 0: 1}, 3)


def test_add_truncation_is_min():
    a = S(0, [1] * 7, 7)
    b = S(0, [1] * 4, 4)
    assert add(a, b).truncation == 4


@pytest.mark.parametrize(
    "a, b, expected",
    [
        # One operand starts at or past the other's truncation: the sum is
        # the other operand, cut to the common truncation.
        (S(5, [1, 2, 3], 8), S(0, [1, 1, 1], 3), S(0, [1, 1, 1], 3)),
        (S(0, [1, 1, 1], 3), S(5, [1, 2, 3], 8), S(0, [1, 1, 1], 3)),
        (S(3, [7, 1], 5), S(0, [2, 0, 4], 3), S(0, [2, 0, 4], 3)),
        (S(0, [2, 0, 4], 3), S(3, [7, 1], 5), S(0, [2, 0, 4], 3)),
        (S(3, [7, 1, 1], 6), S(-1, [5, 0, 1], 2), S(-1, [5, 0, 1], 2)),
        # Zero series, at, below and above the other operand's truncation.
        (PuiseuxSeries.zero(10), S(0, [1, 2, 3, 4], 4), S(0, [1, 2, 3, 4], 4)),
        (S(0, [1, 2, 3, 4], 4), PuiseuxSeries.zero(10), S(0, [1, 2, 3, 4], 4)),
        (S(3, [1, 2, 3], 6), PuiseuxSeries.zero(2), PuiseuxSeries.zero(2)),
        (PuiseuxSeries.zero(2), S(3, [1, 2, 3], 6), PuiseuxSeries.zero(2)),
        (PuiseuxSeries.zero(4), S(1, [1, 2, 3], 4), S(1, [1, 2, 3], 4)),
        (PuiseuxSeries.zero(3), PuiseuxSeries.zero(5), PuiseuxSeries.zero(3)),
        (PuiseuxSeries.zero(-2), S(-4, [1, 1, 1], -1), S(-4, [1, 1], -2)),
        # Disjoint, interleaved and cancelling supports below the truncation.
        (S(2, [1, 1], 4), S(0, [1, 0], 2), S(0, [1, 0], 2)),
        (S(2, [1, 1, 1], 5), S(0, [1, 1, 0, 0, 0], 5), S(0, [1] * 5, 5)),
        (S(1, [1, 0, 1, 0], 5), S(0, [1, 0, 1, 0, 1], 5), S(0, [1] * 5, 5)),
        (S(0, [1, 2, 3], 3), S(1, [-2, 0], 3), S(0, [1, 0, 3], 3)),
    ],
)
def test_add_operand_at_or_past_truncation(a, b, expected):
    assert add(a, b) == expected
    assert add(b, a) == expected


def test_mul_basic():
    one_plus = S(0, [1, 1, 0], 3)
    one_minus = S(0, [1, -1, 0], 3)
    assert mul(one_plus, one_minus) == S(0, [1, 0, -1], 3)


def test_mul_laurent_exponents_cancel():
    a = PuiseuxSeries.monomial(1, -2, 0)
    b = PuiseuxSeries.monomial(1, 2, 4)
    assert mul(a, b) == PuiseuxSeries.one(2)


def test_mul_identity_preserves():
    s = S(1, [2, 3], 3)
    assert mul(s, PuiseuxSeries.one(9)) == s


def test_mul_truncation_rule():
    # T = min(T1 + v2, T2 + v1): each O-term picks up the other's leading power.
    a = S(-1, [1, 1, 1], 2)
    b = S(1, [1, 1], 3)
    assert mul(a, b).truncation == min(2 + 1, 3 + (-1))
    assert mul(a, b).valuation == 0


def test_mul_by_zero():
    z = PuiseuxSeries.zero(5)
    s = S(0, [1, 2], 2)
    assert mul(s, z).is_zero


def test_truncate_and_x_shift():
    s = S(0, [1, 2, 3, 4], 4)
    assert s.truncate(2) == S(0, [1, 2], 2)
    # A cut at the series' own truncation is an equal series in lowest
    # terms, not the series itself.
    same = s.truncate(4)
    assert same == s and (same.nums, same.den) == (s.nums, s.den)
    with pytest.raises(ValueError):
        s.truncate(5)
    # The cut drops the content that only the forgotten terms needed.
    cut = S(0, [1, Rational(1, 2), Rational(1, 6)], 3).truncate(2)
    assert (cut.nums, cut.den) == ((2, 1), 2)
    shifted = s.x_shift(-3)
    assert shifted.valuation == -3
    assert shifted.truncation == 1
    assert shifted.coefficient(-3) == 1


def test_a_cut_at_the_own_truncation_stores_lowest_terms():
    # A sum may carry content; cutting it at its own truncation drops no
    # term but still divides the content out.
    half = S(0, [Rational(1, 2), Rational(1, 4)], 2)
    total = add(half, half)
    assert (total.nums, total.den) == ((4, 2), 4)
    cut = total.truncate(2)
    assert cut == total and (cut.nums, cut.den) == ((2, 1), 2)


# -- exp / log -------------------------------------------------------------------


def test_exp_of_zero():
    assert exp_series(PuiseuxSeries.zero(5)) == PuiseuxSeries.one(5)


def test_exp_of_x_is_exponential_series():
    got = exp_series(PuiseuxSeries.monomial(1, 1, 6))
    want = S(
        0,
        [1, 1, Rational(1, 2), Rational(1, 6), Rational(1, 24), Rational(1, 120)],
        6,
    )
    assert got == want


def test_exp_stays_on_the_lattice_of_its_argument():
    # exp(x^3) = 1 + x^3 + x^6/2 + x^9/6; exp(2x^2 - x^4) through O(x^7).
    got = exp_series(PuiseuxSeries.monomial(1, 3, 10))
    assert got == PuiseuxSeries.from_terms(
        {0: 1, 3: 1, 6: Rational(1, 2), 9: Rational(1, 6)}, 10
    )
    got = exp_series(PuiseuxSeries.from_terms({2: 2, 4: -1}, 7))
    assert got == PuiseuxSeries.from_terms({0: 1, 2: 2, 4: 1, 6: Rational(-2, 3)}, 7)
    # An odd term anywhere reaches every order.
    got = exp_series(PuiseuxSeries.from_terms({2: 2, 5: 1}, 7))
    assert got == PuiseuxSeries.from_terms(
        {0: 1, 2: 2, 4: 2, 5: 1, 6: Rational(4, 3)}, 7
    )


def test_exp_requires_positive_valuation():
    with pytest.raises(NonPositiveValuation):
        exp_series(PuiseuxSeries.monomial(1, -1, 3))
    with pytest.raises(NonPositiveValuation):
        exp_series(PuiseuxSeries.one(3))


def test_exp_is_homomorphism():
    a = S(1, [1, Rational(1, 2), 0, 2], 5)
    b = S(2, [-3, 0, Rational(5, 7)], 5)
    lhs = exp_series(add(a, b))
    rhs = mul(exp_series(a), exp_series(b))
    assert lhs == rhs


def test_log_of_zero():
    assert log1p_series(PuiseuxSeries.zero(4)).is_zero


def test_log_mercator():
    got = log1p_series(PuiseuxSeries.monomial(-1, 2, 8))
    want = S(2, [-1, 0, Rational(-1, 2), 0, Rational(-1, 3), 0], 8)
    assert got == want


def test_log_requires_positive_valuation():
    with pytest.raises(NonPositiveValuation):
        log1p_series(PuiseuxSeries.one(3))


def test_exp_log_inverse_pair():
    s = S(1, [Rational(1, 3), -2, 0, Rational(7, 5)], 5)
    assert log1p_series(add(exp_series(s), PuiseuxSeries.one(5).scale(-1))) == s
    u = S(1, [1, 1, -1, Rational(2, 9)], 5)
    assert exp_series(log1p_series(u)) == add(PuiseuxSeries.one(5), u)


# -- shift substitution x -> x (1 - j x^2)^(-1/2) -----------------------------------


def test_shift_fixes_constants():
    c = PuiseuxSeries.constant(5, 6)
    assert compose_shift(c, 3) == c


def test_shift_of_x_is_binomial_series():
    # x (1 - x^2)^(-1/2) = sum_k (2k choose k) / 4^k x^(2k+1).
    got = compose_shift(PuiseuxSeries.monomial(1, 1, 8), 1)
    want = PuiseuxSeries.from_terms(
        {1: 1, 3: Rational(1, 2), 5: Rational(3, 8), 7: Rational(5, 16)}, 8
    )
    assert got == want


def test_shift_preserves_valuation_and_truncation():
    s = S(2, [3, 0, 1, 4], 6)
    r = compose_shift(s, 5)
    assert r.valuation == 2
    assert r.truncation == 6
    assert r.coefficient(2) == 3


def test_shift_semigroup_example():
    s = S(0, [1, 2, 3, 4, 5, 6, 7], 7)
    assert compose_shift(compose_shift(s, 1), 1) == compose_shift(s, 2)


def test_shift_rejects_laurent_and_bad_j():
    with pytest.raises(NegativeValuation):
        compose_shift(PuiseuxSeries.monomial(1, -1, 3), 1)
    with pytest.raises(ValueError):
        compose_shift(PuiseuxSeries.one(3), 0)
    with pytest.raises(ValueError):
        compose_shift(PuiseuxSeries.one(3), 1, 3)


# -- shift substitution in y = x^2 = 1/n: y -> y / (1 - j y) -------------------


def test_shift_in_y_of_y_is_the_geometric_series():
    # y / (1 - 3y) = sum_m 3^(m-1) y^m; v, T and the denominator kept.
    got = compose_shift(PuiseuxSeries.monomial(Rational(1, 2), 1, 6), 3, 1)
    assert got == PuiseuxSeries.from_terms({m: Rational(3 ** (m - 1), 2) for m in range(1, 6)}, 6)
    assert (got.valuation, got.truncation, got.den) == (1, 6, 2)
    assert compose_shift(PuiseuxSeries.constant(5, 4), 2, 1) == PuiseuxSeries.constant(5, 4)


def test_shift_in_y_semigroup_example():
    s = S(1, [1, Rational(-2, 3), 3, 0, Rational(5, 7)], 6)
    assert compose_shift(compose_shift(s, 1, 1), 2, 1) == compose_shift(s, 3, 1)


def test_shift_in_y_is_the_shift_in_x_of_an_even_series():
    # s(y) read as s(x^2): the shift in x has no odd order, and its even
    # orders are the shift in y, from v/2 through ceil(T/2).
    rng = random.Random(28)
    for _ in range(30):
        v, n, j = rng.randint(0, 3), rng.randint(0, 7), rng.randint(1, 4)
        coeffs = [Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        y = S(v, coeffs, v + n)
        x_even = [c for value in coeffs for c in (value, 0)][: max(0, 2 * n - 1)]
        for t in (2 * (v + n) - 1, 2 * (v + n)):
            if t < 2 * v:
                continue
            x = compose_shift(S(2 * v, (x_even + [0])[: t - 2 * v], t), j)
            want = compose_shift(y.truncate(-(-t // 2)), j, 1)
            assert [x.coefficient(o) for o in range(1, t, 2)] == [0] * (t // 2)
            assert [x.coefficient(o) for o in range(0, t, 2)] == [
                want.coefficient(o) for o in range(want.truncation)
            ]


# -- equality ------------------------------------------------------------------------


def test_equality_includes_truncation():
    assert S(0, [1], 1) != S(0, [1, 0], 2)
    assert S(0, [1], 1) == S(0, [1], 1)
    assert hash(S(0, [1], 1)) == hash(S(0, [1], 1))
