"""End-to-end acceptance gate for the involution-number expansion engine.

Each test checks one shipping criterion and prints a single
"criterion N: PASS/FAIL" line; run with `pytest tests/test_acceptance.py -s`
to see every line.  Every criterion is expected to pass; a failure message
lists each value that disagrees with its reference.
"""

import math
import random
import time

import mpmath
import pytest

from recasymp import (
    Frame,
    PuiseuxSeries,
    Rational,
    add,
    compose_shift,
    connection_constant,
    exp_series,
    format_significant,
    frame_solve,
    involution_count_brute,
    involution_count_by_sum,
    involution_counts_by_egf,
    involution_numbers,
    log1p_series,
    mul,
    ratio_check,
    residual_check,
    solve_expansion,
)
from recasymp.presets import a85_frame, a85_recurrence

SEED = 20260814

# Reference coefficient list, a1 through a9.
#
# a6..a9 were once quoted as -562799/47775744, -526420847/40131624960,
# 1856209/573308928 and -267645803/2407897497600, which do not satisfy the
# recurrence.  The values below are confirmed by two checks that do not use
# recasymp:
# - a sympy series derivation: substituting
#   t(n) = n^(n/2) e^(-n/2+sqrt n) (1 + sum a_k n^(-k/2)) into
#   t(n) = t(n-1) + (n-1) t(n-2) and solving order by order in x = n^(-1/2)
#   gives exactly this list;
# - a numeric fit from the exact integers: (t(n) / (e^(-1/4)/sqrt 2 F(n))
#   - S_5(n)) * n^3 is 0.009729 at n = 4000 and 0.009476 at n = 16000,
#   closing on a6 = 0.009216 at the rate a7 n^(-1/2), not on the old
#   -0.01178.
STATED_A9 = [
    "7/24",
    "-119/1152",
    "-7933/414720",
    "1967381/39813120",
    "-57200419/1337720832",
    "6340449533/687970713600",
    "3840755481827/115579079884800",
    "-1165106617342939/22191183337881600",
    "10362392814297883973/263631258054033408000",
]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def rec():
    return a85_recurrence()


@pytest.fixture(scope="module")
def fr():
    return a85_frame()


@pytest.fixture(scope="module")
def exp9(rec, fr):
    return solve_expansion(rec, fr, 9)


@pytest.fixture(scope="module")
def exp30(rec, fr):
    return solve_expansion(rec, fr, 30)


def test_criterion_1_reference_coefficients(exp9):
    stated = [Rational(s) for s in STATED_A9]
    mismatches = [
        (i + 1, stated[i], exp9.a[i])
        for i in range(9)
        if exp9.a[i] != stated[i]
    ]
    ok = not mismatches
    where = ", ".join(f"a{i}" for i, _, _ in mismatches)
    report(
        1,
        ok,
        "a1..a9 match the reference values exactly"
        if ok
        else f"{where} differ from the reference values",
    )
    if not ok:
        lines = [f"  a{i}: reference {s}, computed {c}" for i, s, c in mismatches]
        pytest.fail("coefficients differ from the reference values:\n" + "\n".join(lines))


def test_criterion_2_deep_expansion(rec, fr):
    t0 = time.perf_counter()
    exp = solve_expansion(rec, fr, 169)
    solved = time.perf_counter() - t0
    order = residual_check(rec, exp)
    elapsed = time.perf_counter() - t0
    ok = order >= 169 and elapsed < 60.0
    report(
        2,
        ok,
        f"K=169 solved and residual vanishes through order {order} "
        f"in {elapsed:.1f}s (solve {solved:.1f}s)",
    )
    assert order >= 169
    assert elapsed < 60.0


def test_criterion_3_exact_t1000():
    values = involution_numbers(1000)
    t1000 = values[1000]
    digits = str(t1000)
    leading_ok = digits[:20] == "21439289538422655419"
    sum_ok = involution_count_by_sum(1000) == t1000
    egf_ok = involution_counts_by_egf(1000)[1000] == t1000
    # t(1000) = 2.1439...e1296 has 1297 digits, as Stirling agrees:
    # log10 t(1000) ~ 500 log10(1000/e) + (sqrt(1000) - 1/4)/ln 10
    # - log10 sqrt(2) ~ 1296.33.
    count_ok = 10**1296 <= t1000 < 10**1297
    ok = leading_ok and sum_ok and egf_ok and count_ok
    report(
        3,
        ok,
        f"t(1000): {len(digits)} digits (reference 1297), leading 20 "
        f"{'match' if leading_ok else 'differ'}, sum and EGF routes "
        f"{'agree' if (sum_ok and egf_ok) else 'disagree'}",
    )
    assert leading_ok, f"t(1000) starts {digits[:20]}, not 21439289538422655419"
    assert sum_ok and egf_ok, "the sum and EGF routes disagree with the recurrence"
    assert count_ok, f"t(1000) has {len(digits)} decimal digits, not 1297"


def test_criterion_4_ratio_at_k1():
    rep = ratio_check(1000, 1, 20).to_json_dict()
    asy_ok = rep["asy"] == "2.1441496003431008422e1296"
    ratio_ok = rep["ratio"] == "1.0001029168902448312"
    ok = asy_ok and ratio_ok
    report(
        4,
        ok,
        f"ratio_check(1000, 1, 20): asy {rep['asy']}, ratio {rep['ratio']}"
        + ("" if ok else " (expected 2.1441496003431008422e1296 / 1.0001029168902448312)"),
    )
    assert asy_ok and ratio_ok


def test_criterion_5_ratio_at_k30(exp30):
    rep = ratio_check(1000, 30, 28, expansion=exp30)
    err = abs(rep.ratio - 1)
    ok = err <= 5e-28
    report(5, ok, f"|ratio(1000, k=30) - 1| = {mpmath.nstr(err, 3)} <= 5e-28")
    assert ok


def test_criterion_6_four_way_oracle():
    by_rec = involution_numbers(300)
    by_egf = involution_counts_by_egf(300)
    rec_vs_egf = by_rec == by_egf
    rec_vs_sum = all(involution_count_by_sum(n) == by_rec[n] for n in range(301))
    rec_vs_brute = all(involution_count_brute(n) == by_rec[n] for n in range(11))
    ok = rec_vs_egf and rec_vs_sum and rec_vs_brute
    report(
        6,
        ok,
        "recurrence, binomial sum, and EGF agree for n <= 300; "
        "brute-force enumeration agrees for n <= 10",
    )
    assert ok


def test_criterion_7_frame_autosolve(rec, exp9):
    solved = frame_solve(rec)
    frame_ok = solved == Frame(Rational(1, 2), 1, 0, 0)
    redone = solve_expansion(rec, solved, 9)
    coeffs_ok = redone.a == exp9.a
    ok = frame_ok and coeffs_ok
    report(
        7,
        ok,
        f"frame_solve gives beta={solved.beta}, c={solved.c}, "
        f"alpha={solved.alpha} and reproduces a1..a9",
    )
    assert frame_ok and coeffs_ok


def test_criterion_8_connection_constant(rec, exp30):
    value = connection_constant(rec, exp30, 10**4, 30, 30)
    got = format_significant(value, 30)
    with mpmath.workdps(60):
        want = format_significant(mpmath.mpf(1) / mpmath.sqrt(2), 30)
    ok = got == want
    report(8, ok, f"connection constant at n=10^4: {got} (1/sqrt(2) to 30 digits)")
    assert got == want


# -- criterion 9: randomized invariants -------------------------------------------


def _rand_rational(rng):
    return Rational(rng.randint(-9, 9), rng.randint(1, 9))


def _rand_series(rng, min_valuation=-3, max_len=6):
    v = rng.randint(min_valuation, 4)
    coeffs = [_rand_rational(rng) for _ in range(rng.randint(0, max_len))]
    return PuiseuxSeries(v, coeffs, v + len(coeffs))


def _rand_positive_series(rng, max_len=6):
    v = rng.randint(1, 4)
    coeffs = [_rand_rational(rng) for _ in range(rng.randint(0, max_len))]
    return PuiseuxSeries(v, coeffs, v + len(coeffs))


def _agree(s1, s2):
    t = min(s1.truncation, s2.truncation)
    return s1.truncate(t) == s2.truncate(t)


def test_criterion_9_property_suites(rec, fr):
    rng = random.Random(SEED)
    cases = 0
    failures = []

    def check(label, ok):
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(label)

    # Ring axioms on random series triples.
    for i in range(150):
        a, b, c = (_rand_series(rng) for _ in range(3))
        check(f"add commutative #{i}", add(a, b) == add(b, a))
        check(f"add associative #{i}", add(add(a, b), c) == add(a, add(b, c)))
        check(f"mul commutative #{i}", mul(a, b) == mul(b, a))
        check(f"mul associative #{i}", _agree(mul(mul(a, b), c), mul(a, mul(b, c))))
        check(
            f"distributive #{i}",
            _agree(mul(a, add(b, c)), add(mul(a, b), mul(a, c))),
        )

    # exp and log are mutually inverse on positive-valuation series.
    for i in range(120):
        s = _rand_positive_series(rng)
        e = exp_series(s)
        check(f"log(exp) #{i}", _agree(log1p_series(add(e, PuiseuxSeries.constant(-1, e.truncation))), s))
        check(
            f"exp(log) #{i}",
            _agree(
                exp_series(log1p_series(s)),
                add(PuiseuxSeries.one(s.truncation), s),
            ),
        )

    # Shift substitutions compose like a semigroup in the shift count.
    for i in range(100):
        s = _rand_positive_series(rng)
        i1, i2 = rng.randint(1, 4), rng.randint(1, 4)
        check(
            f"shift semigroup #{i}",
            _agree(
                compose_shift(compose_shift(s, i1), i2),
                compose_shift(s, i1 + i2),
            ),
        )

    # compose_shift is a ring morphism.
    for i in range(50):
        s1 = _rand_positive_series(rng)
        s2 = _rand_positive_series(rng)
        j = rng.randint(1, 3)
        check(
            f"shift morphism #{i}",
            _agree(
                compose_shift(mul(s1, s2), j),
                mul(compose_shift(s1, j), compose_shift(s2, j)),
            ),
        )

    # Correction coefficients ignore the constant term kappa.
    base = solve_expansion(rec, fr, 5).a
    for i in range(20):
        kappa = _rand_rational(rng)
        shifted = Frame(fr.beta, fr.c, fr.alpha, kappa)
        check(f"kappa independence #{i}", solve_expansion(rec, shifted, 5).a == base)

    # Scaling every recurrence polynomial by the same constant changes nothing.
    for i in range(20):
        m = 0
        while m == 0:
            m = rng.randint(-9, 9)
        scaled = type(rec)([[m * c for c in poly] for poly in rec.coeffs])
        check(f"scale invariance #{i}", solve_expansion(scaled, fr, 5).a == base)

    # Convergence order: the k-term tail is controlled by the next coefficients.
    # The exact integers also carry the recessive second solution of the
    # recurrence, which no truncation of the dominant expansion can remove.
    # It comes from the second saddle point of the EGF e^(z+z^2/2), at
    # z ~ -sqrt(n), and relative to the dominant solution it has amplitude
    # e^(-2 sqrt n) S(-x)/S(x) = 3.35e-28 at n = 1000 to first order; the
    # bound therefore adds e^(-2 sqrt n) = 3.41e-28 to the truncation term.
    n = 1000
    recessive = math.exp(-2 * math.sqrt(n))
    exp25 = solve_expansion(rec, fr, 25)
    for k in range(21):
        rep = ratio_check(n, k, 28, expansion=exp25)
        err = float(abs(rep.ratio - 1))
        m_k = max(abs(exp25.a[i]) for i in range(k + 5))
        bound = 2.0 * float(m_k.numerator) / float(m_k.denominator) * float(n) ** (-(k + 1) / 2)
        check(
            f"convergence bound k={k}: err {err:.3e} vs bound {bound:.3e} + {recessive:.3e}",
            err <= bound + recessive,
        )

    ok = not failures and cases >= 1000
    detail = (
        f"{cases} randomized cases: ring axioms, exp/log inverses, shift "
        f"semigroup and morphism, kappa independence, scale invariance, "
        f"convergence-order bounds ({len(failures)} failures)"
    )
    report(9, ok, detail)
    assert cases >= 1000
    assert not failures, f"failing cases: {failures[:10]}"
