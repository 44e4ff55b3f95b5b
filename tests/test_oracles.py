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

Singularity analysis.  For f_n = [z^n] f(z), f algebraic with its one
dominant singularity at rho, f = (polynomial) + sum_(m>=0) g_m w^(m + e)
near w = 1 - z/rho = 0, e = 1/2 or -1/2, the transfer [z^n] w^a =
rho^(-n) Gamma(n - a) / (Gamma(-a) Gamma(n + 1)) and

    Gamma(n + a) / Gamma(n + 1) = n^(a - 1) exp(sum_(k>=1) (-1)^(k+1)
        (B_(k+1)(a) - B_(k+1)(1)) / (k (k + 1) n^k))

(DLMF 5.11.8 again) give the gauged u_n = rho^n f_n the frame
(0, 0, -e - 1) and, in y = x^2 = 1/n,

    S = sum_m (g_m / g_0) (Gamma(-e) / Gamma(-m - e)) y^m G_(-m-e)(y),

G_a the exp above; Gamma(-e) / Gamma(-m - e) = prod_(i=1..m) (-e - i) is
rational, so every a_k is (Flajolet & Odlyzko, SIAM J. Discrete Math. 3,
1990).  The gauge t_n = rho^(-n) u_n turns sum_j p_j(n) u_(n-j) = 0 into
sum_j p_j(n) rho^(-j) f_(n-j) = 0, which each case checks on the exact
f_n of its definition.
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
    return _exp(log_s)


def _exp(g):
    """exp(g) through the length of g, g[0] = 0: n s_n = sum_(i=1..n) i g_i
    s_(n-i)."""
    s = [Fraction(1)]
    for n in range(1, len(g)):
        s.append(sum(i * g[i] * s[n - i] for i in range(1, n + 1)) / n)
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


def _bernoulli_polynomial(k, a):
    return sum(comb(k, i) * BERNOULLI[k - i] * a**i for i in range(k + 1))


def _singular_series(g, e, top):
    """1, s_1 .. s_top in y = 1/n of the gauged u_n of sum_m g_m w^(m + e),
    by the transfer above."""
    s = [Fraction(0)] * (top + 1)
    ratio = Fraction(1)  # Gamma(-e) / Gamma(-m - e)
    for m in range(top + 1):
        a = -m - e
        log_g = [0] + [
            (-1) ** (k + 1) * (_bernoulli_polynomial(k + 1, a) - _bernoulli_polynomial(k + 1, 1))
            / (k * (k + 1))
            for k in range(1, top - m + 1)
        ]
        for i, v in enumerate(_exp(log_g)):
            s[m + i] += Fraction(g[m], g[0]) * ratio * v
        ratio *= a - 1
    return s


def _binomial_series(p, c, top):
    """(1 + c w)^p through w^top."""
    out = [Fraction(1)]
    for m in range(top):
        out.append(out[-1] * (p - m) * c / (m + 1))
    return out


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


_TOP = 12  # orders of y = 1/n, a_1 .. a_24 in x
_QUARTER_ROOT = _binomial_series(Fraction(1, 2), Fraction(-1, 4), _TOP)  # (1 - w/4)^(1/2)

#: name: (hand-gauged p_j, 1/rho, f_n, e, g_0 .. g_TOP).  Catalan: f =
#: 2 (1 - w^(1/2)) / (1 - w) at rho = 1/4.  Motzkin: 1 - 2z - 3z^2 = w (4 - w)/3
#: at rho = 1/3, so f = (1 - z - sqrt(...)) / (2 z^2) has singular part
#: -(9/sqrt(3)) w^(1/2) (1 - w/4)^(1/2) / (1 - w)^2.  Central binomials:
#: (1 - 4z)^(-1/2) = w^(-1/2).  Central trinomials: (1 - 2z - 3z^2)^(-1/2) =
#: (sqrt(3)/2) w^(-1/2) (1 - w/4)^(-1/2).
_SINGULAR = {
    "catalan": ([[4, 4], [2, -4]], 4, _catalan, Fraction(1, 2), [1] * (_TOP + 1)),
    "motzkin": (
        [[18, 9], [-3, -6], [3, -3]], 3,
        lambda n: sum(comb(n, 2 * k) * _catalan(k) for k in range(n // 2 + 1)),
        Fraction(1, 2),
        [sum(_QUARTER_ROOT[i] * (m - i + 1) for i in range(m + 1)) for m in range(_TOP + 1)],
    ),
    "central-binomial": (
        [[0, 2], [1, -2]], 4, lambda n: comb(2 * n, n), Fraction(-1, 2), [1] + [0] * _TOP
    ),
    "central-trinomial": (
        [[0, 3], [1, -2], [1, -1]], 3,
        lambda n: sum(comb(n, 2 * k) * comb(2 * k, k) for k in range(n // 2 + 1)),
        Fraction(-1, 2),
        _binomial_series(Fraction(-1, 2), Fraction(-1, 4), _TOP),
    ),
}


@pytest.mark.parametrize(
    "coeffs, mu, sequence, e, g", _SINGULAR.values(), ids=_SINGULAR.keys()
)
def test_singularity_analysis_gives_the_gauged_series(coeffs, mu, sequence, e, g):
    f = [sequence(n) for n in range(40)]
    for n in range(len(coeffs) - 1, len(f)):
        p_at_n = [sum(c * n**i for i, c in enumerate(p)) for p in coeffs]
        assert sum(p * mu**j * f[n - j] for j, p in enumerate(p_at_n)) == 0, n
    rec = Recurrence(coeffs)
    frame = frame_solve(rec)
    assert frame == Frame(0, 0, -e - 1)
    s = _singular_series(g, e, _TOP)
    want = tuple(0 if k % 2 else s[k // 2] for k in range(1, 2 * _TOP + 1))
    assert solve_expansion(rec, frame, 2 * _TOP).a == want
