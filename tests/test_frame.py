"""Growth frames and the shift ratio F(n-j)/F(n) as an exact series."""

from math import gcd

import mpmath
import pytest

from recasymp import (
    Frame,
    PuiseuxSeries,
    RamificationError,
    Rational,
    add,
    exp_series,
    frame_ratio,
    frame_ratio_parts,
    log1p_series,
    mul,
    shift_exponent,
)


def test_frame_construction_and_equality():
    fr = Frame("1/2", "1", "0", "-1/4")
    assert fr.beta == Rational(1, 2)
    assert fr.c == 1
    assert fr.alpha == 0
    assert fr.kappa == Rational(-1, 4)
    assert fr == Frame(Rational(1, 2), 1, 0, Rational(-1, 4))
    assert fr != Frame("1/2", "1", "0", "0")
    assert repr(fr) == "Frame(beta=1/2, c=1, alpha=0, kappa=-1/4)"
    with pytest.raises(AttributeError):
        fr.beta = 1


def test_frame_kappa_defaults_to_zero():
    assert Frame("1/2", "1", "0").kappa == 0


def test_frame_rejects_floats():
    with pytest.raises(TypeError):
        Frame(0.5, 1, 0, 0)


def test_frame_json_round_trip():
    fr = Frame("1/2", "1", "0", "-1/4")
    data = fr.to_json_dict()
    assert data == {"beta": "1/2", "c": "1", "alpha": "0", "kappa": "-1/4"}
    assert Frame.from_json_dict(data) == fr


def test_shift_exponent():
    assert shift_exponent(Rational(1, 2), 1) == 1
    assert shift_exponent(Rational(1, 2), 2) == 2
    assert shift_exponent(Rational(1), 3) == 6
    assert shift_exponent(Rational(0), 4) == 0
    # 2 * (1/3) * 3 is an integer even though beta itself has denominator 3.
    assert shift_exponent(Rational(1, 3), 3) == 2


def test_shift_exponent_off_lattice():
    with pytest.raises(RamificationError):
        shift_exponent(Rational(1, 3), 1)


def test_ratio_parts_frozen():
    # For the shift n -> n - j with l = log(1 - j x^2):
    #   A = (x^-2 - j) l + j,   B = (e^(l/2) - 1)/x,   C = l.
    A, B, C = frame_ratio_parts(1, 6)
    assert A == PuiseuxSeries.from_terms({2: Rational(1, 2), 4: Rational(1, 6)}, 6)
    assert B == PuiseuxSeries.from_terms(
        {1: Rational(-1, 2), 3: Rational(-1, 8), 5: Rational(-1, 16)}, 6
    )
    assert C == PuiseuxSeries.from_terms({2: -1, 4: Rational(-1, 2)}, 6)
    A3, B3, C3 = frame_ratio_parts(3, 5)
    assert A3 == PuiseuxSeries.from_terms({2: Rational(9, 2), 4: Rational(9, 2)}, 5)
    assert B3 == PuiseuxSeries.from_terms({1: Rational(-3, 2), 3: Rational(-9, 8)}, 5)
    assert C3 == PuiseuxSeries.from_terms({2: -3, 4: Rational(-9, 2)}, 5)


def _parts_by_series_algebra(j, T):
    # The defining construction: l = log(1 - j x^2) through O(x^(T+2)),
    # A = (x^-2 - j) l + j, B = (e^(l/2) - 1)/x, C = l.
    l = log1p_series(PuiseuxSeries.monomial(-j, 2, T + 2))
    xm2_minus_j = PuiseuxSeries.from_terms({-2: 1, 0: -j}, T)
    A = add(mul(xm2_minus_j, l), PuiseuxSeries.constant(j, T))
    half = exp_series(l.scale(Rational(1, 2)))
    B = add(half, PuiseuxSeries.constant(-1, T + 2)).x_shift(-1).truncate(T)
    return A, B, l.truncate(T)


@pytest.mark.parametrize("j", range(1, 7))
def test_ratio_parts_closed_forms_match_series_algebra(j):
    for T in range(1, 61):
        parts = frame_ratio_parts(j, T)
        assert parts == _parts_by_series_algebra(j, T), T
        assert all(p.truncation == T for p in parts)
        assert all(gcd(p.den, *p.nums) == 1 for p in parts)


def test_ratio_leading_coefficient_is_one(a85_fr):
    for j in (1, 2):
        phi = frame_ratio(a85_fr, j, 5)
        assert phi.valuation == j  # x^(2 beta j) with beta = 1/2
        assert phi.coefficient(j) == 1
        assert phi.truncation == 5 + j


def test_ratio_frozen_series(a85_fr):
    assert frame_ratio(a85_fr, 1, 5) == PuiseuxSeries.from_terms(
        {
            1: 1,
            2: Rational(-1, 2),
            3: Rational(3, 8),
            4: Rational(-13, 48),
            5: Rational(27, 128),
        },
        6,
    )
    assert frame_ratio(a85_fr, 2, 5) == PuiseuxSeries.from_terms(
        {
            2: 1,
            3: -1,
            4: Rational(3, 2),
            5: Rational(-5, 3),
            6: Rational(53, 24),
        },
        7,
    )


def test_ratio_is_kappa_independent(a85_fr):
    other = Frame(a85_fr.beta, a85_fr.c, a85_fr.alpha, "7/3")
    for j in (1, 2):
        assert frame_ratio(a85_fr, j, 8) == frame_ratio(other, j, 8)


def test_ratio_of_trivial_frame():
    fr = Frame(0, 0, 0, "5")
    assert frame_ratio(fr, 1, 4) == PuiseuxSeries.one(4)


def test_ratio_off_lattice_rejected():
    with pytest.raises(RamificationError):
        frame_ratio(Frame("1/3", 0, 0), 1, 5)


@pytest.mark.parametrize(
    "fr, j", [(Frame(1, 0, "1/2"), 1), (Frame("1/3", 0, "1/2"), 3), (Frame(-2, 0, 5), 2)]
)
def test_ratio_in_y_is_the_even_part_of_the_ratio_in_x(fr, j):
    # With c = 0 and beta*j an integer, the ratio in y = 1/n through T
    # orders has the coefficients of the even orders of the ratio in x
    # through 2T, whose odd orders vanish.
    for T in (1, 6):
        x, y = frame_ratio(fr, j, 2 * T), frame_ratio(fr, j, T, 1)
        assert (y.valuation, y.truncation) == (x.valuation // 2, -(-x.truncation // 2))
        assert x.coeffs[1::2] == (0,) * (len(x.coeffs) // 2)
        assert y.coeffs == x.coeffs[::2]


def test_stretched_ratio_stores_the_exp_of_its_whole_exponent():
    # With c != 0 the unit is exp(beta*A + c*B) (memoized) times exp(alpha*C),
    # and both sides are in lowest terms: the product stores the numerators,
    # denominator and truncation of one exp_series of the whole exponent.
    # T > 32 takes mul's runs; at T = 70, c of either sign and the outer
    # shifts keep the test short.
    cases = [
        (beta, c, j, T)
        for beta in (Rational(1, 2), Rational(1))
        for c in (1, -1, 3, Rational(5, 2))
        for j in (1, 2, 3)
        for T in (1, 2, 7, 33, 70)
        if T < 70 or (c in (-1, Rational(5, 2)) and j != 2)
    ]
    for beta, c, j, T in cases:
        a, b, cc = frame_ratio_parts(j, T)
        for alpha in (0, -1, Rational(3, 2)):
            g = add(add(a.scale(beta), b.scale(c)), cc.scale(alpha))
            want = exp_series(g).x_shift(shift_exponent(beta, j))
            got = frame_ratio(Frame(beta, c, alpha), j, T)
            assert (got.valuation, got.nums, got.den, got.truncation) == (
                want.valuation,
                want.nums,
                want.den,
                want.truncation,
            ), (beta, c, alpha, j, T)


def test_ratio_in_y_needs_c_zero_and_an_integer_beta_j():
    a, b, c = frame_ratio_parts(2, 5, 1)
    assert b is None
    orders = range(1, 5)
    assert a == PuiseuxSeries.from_terms({m: Rational(2 ** (m + 1), m * (m + 1)) for m in orders}, 5)
    assert c == PuiseuxSeries.from_terms({m: Rational(-(2**m), m) for m in orders}, 5)
    with pytest.raises(ValueError, match="no shift ratio in y"):
        frame_ratio(Frame(1, 1, 0), 1, 5, 1)
    with pytest.raises(RamificationError, match="1\\*beta\\*j = 1/2"):
        frame_ratio(Frame("1/2", 0, 0), 1, 5, 1)
    with pytest.raises(ValueError):
        frame_ratio_parts(1, 5, 3)


def test_ratio_matches_bigfloat_frame_quotient(a85_fr):
    # Independent numeric oracle: evaluate the series at x = 1/sqrt(1000)
    # and compare with F(n-j)/F(n) computed directly in mpmath.
    mpmath.mp.dps = 40
    try:
        n = 1000
        x = 1 / mpmath.sqrt(n)

        def F(m):
            m = mpmath.mpf(m)
            return mpmath.exp(
                (m * mpmath.log(m) - m) / 2
                + mpmath.sqrt(m)
                - mpmath.mpf(1) / 4
            )

        for j in (1, 2):
            s = frame_ratio(a85_fr, j, 24)
            val = mpmath.mpf(0)
            for k, c in s.terms():
                val += mpmath.mpf(int(c.numerator)) / int(c.denominator) * x**k
            truth = F(n - j) / F(n)
            assert abs(val - truth) / truth < mpmath.mpf(10) ** -30
    finally:
        mpmath.mp.dps = 15
