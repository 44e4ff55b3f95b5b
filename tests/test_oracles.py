"""Independent exact oracles: families of recurrences whose frame and
correction coefficients follow from classical asymptotics, computed here
with Fraction and this module's own loops, not with the library's series.

Hypergeometric sequences.  For t(n) = r(n) t(n-1) with r monic of degree d,
r(n) = prod_i (n + h_i), t_n = t_0 prod_i Gamma(n + 1 + h_i)/Gamma(1 + h_i),
and DLMF 5.11.8,

    ln Gamma(z + h) ~ (z + h - 1/2) ln z - z + ln(2 pi)/2
                      + sum_(k>=2) (-1)^k B_k(h) / (k (k - 1) z^(k - 1)),

gives the frame (d, 0, sum_i h_i + d/2) and, with x = n^(-1/2),

    log S = sum_(k>=2) (-1)^k [sum_i B_k(1 + h_i)] / (k (k - 1)) x^(2k - 2).

sum_i B_k(1 + h_i) needs only the power sums of the 1 + h_i, the roots of
the monic (-1)^d r(1 - y), which Newton's identities give from r's
coefficients: no root is found, and an irrational h_i costs nothing.

Sparse shifts.  For t(n) = r(n) t(n-j), r(n) = prod_i (n + h_i) =
j^d prod_i (n/j + h_i/j), so on every residue class rho of n modulo j,
t_n = C_rho j^(dn/j) prod_i Gamma(n/j + 1 + h_i/j): rho cancels from the
Gamma arguments.  DLMF 5.11.8 in w = n/j, with 1/w^(k-1) = j^(k-1)
x^(2k-2), gives the frame (d/j, 0, sum_i h_i/j + d/2) and

    log S = sum_(k>=2) (-1)^k j^(k-1) [sum_i B_k(1 + h_i/j)] / (k (k - 1))
            x^(2k - 2),

where the 1 + h_i/j are the roots of the monic r(j (1 - y)) / (-j)^d.
"""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recasymp import Frame, Recurrence, frame_solve, solve_expansion

K = 30


def _bernoulli(n):
    """B_0 .. B_n with B_1 = -1/2, from sum_(j <= m) binom(m + 1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


BERNOULLI = _bernoulli(K // 2 + 1)


def _power_sums(q, top):
    """p_0 .. p_top, the power sums of the roots of the monic polynomial
    with ascending coefficients q, by Newton's identities."""
    d = len(q) - 1
    p = [d]
    for m in range(1, top + 1):
        v = -m * q[d - m] if m <= d else 0
        p.append(v - sum(q[d - i] * p[m - i] for i in range(1, min(m - 1, d) + 1)))
    return p


def _hypergeometric_series(r, j=1):
    """1, a_1 .. a_K of t(n) = r(n) t(n-j), r monic with ascending integer
    coefficients, by the Stirling-Bernoulli series."""
    d = len(r) - 1
    # r(j (1 - y)) / (-j)^d, whose roots are the 1 + h_i/j.
    q = [
        Fraction((-1) ** (d + k) * sum(c * comb(i, k) * j**i for i, c in enumerate(r)), j**d)
        for k in range(d + 1)
    ]
    p = _power_sums(q, K // 2 + 1)
    log_s = [Fraction(0)] * (K + 1)
    for k in range(2, K // 2 + 2):
        bernoulli_sum = sum(comb(k, m) * BERNOULLI[k - m] * p[m] for m in range(k + 1))
        log_s[2 * k - 2] = (-1) ** k * j ** (k - 1) * bernoulli_sum / (k * (k - 1))
    # S = exp(log S) through x^K: n s_n = sum_(j=1..n) j l_j s_(n-j).
    s = [Fraction(1)]
    for n in range(1, K + 1):
        s.append(sum(j * log_s[j] * s[n - j] for j in range(1, n + 1)) / n)
    return s


def test_oracle_gives_stirling_series_for_the_factorial():
    # r(n) = n: n! ~ sqrt(2 pi n) (n/e)^n (1 + 1/(12 n) + 1/(288 n^2) - ...).
    s = _hypergeometric_series([0, 1])
    assert s[:7] == [1, 0, Fraction(1, 12), 0, Fraction(1, 288), 0, Fraction(-139, 51840)]


monic = st.integers(0, 3).flatmap(
    lambda d: st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(lambda low: low + [1])
)


@settings(max_examples=20, deadline=None)
@given(monic)
def test_hypergeometric_recurrences_match_the_stirling_bernoulli_series(r):
    d = len(r) - 1
    rec = Recurrence([[1], [-c for c in r]])
    frame = frame_solve(rec)
    assert frame == Frame(d, 0, (r[d - 1] if d else 0) + Fraction(d, 2))
    exp = solve_expansion(rec, frame, K)
    assert list(exp.a) == _hypergeometric_series(r)[1:]


def test_oracle_gives_the_gamma_series_of_a_sparse_shift():
    # r(n) = n, j = 2: t_n = C 2^(n/2) Gamma(n/2 + 1), and Stirling's series
    # in w = n/2 is 1 + 1/(12 w) + 1/(288 w^2) = 1 + x^2/6 + x^4/72.
    s = _hypergeometric_series([0, 1], 2)
    assert s[:5] == [1, 0, Fraction(1, 6), 0, Fraction(1, 72)]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("j", [2, 3])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_sparse_recurrences_match_the_stirling_bernoulli_series(j, d, data):
    r = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)) + [1]
    rec = Recurrence([[1]] + [[]] * (j - 1) + [[-c for c in r]])
    frame = frame_solve(rec)
    assert frame == Frame(Fraction(d, j), 0, Fraction(r[d - 1], j) + Fraction(d, 2))
    exp = solve_expansion(rec, frame, K)
    assert list(exp.a) == _hypergeometric_series(r, j)[1:]
