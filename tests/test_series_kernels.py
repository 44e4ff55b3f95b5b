"""The integer series kernels against per-coefficient reference kernels.

Each reference below is the straightforward algorithm on coefficient
values, one exact rational operation per coefficient, with no shared
denominator to track.  The properties require identical series on random
inputs: valuations -4..12, mixed truncations, sparse and dense coefficient
lists, large-height rationals, and coefficients of a number type the
kernels do not split into integers.  The storage is checked alongside:
every result is well formed and equal by value to the series rebuilt from
its coefficients, and the results whose denominator is a product are in
lowest terms.  mul cuts factors longer than series._BLOCK orders into
runs; the drawn series are shorter than that, so each property also runs
mul in runs of 1 and 3 orders and requires the storage of the one-run
result.  compose_shift, which works by Horner's rule in u^2, must store the
integers of the weight-loop kernel it replaced (weight_loop_compose_shift),
and equal it by value on coefficients kept as ring elements.  The division
by 1 - j z^e, a running sum per residue class for j = 1, must store the
integers of the plain loop; mul must store the same series whichever factor
is the outer one; and mul_sum must equal the sum of its products.
"""

import contextlib
import random
from fractions import Fraction
from functools import reduce
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recasymp import (
    PuiseuxSeries, Rational, add, compose_shift, engine, exp_series, mul, mul_sum,
)
from recasymp import series as series_module
from recasymp.presets import get_preset
from recasymp.recurrence import local_analysis
from recasymp.series import ResponseMarch

# -- reference kernels on coefficient values ------------------------------------


def ref_add(s1, s2):
    t = min(s1.truncation, s2.truncation)
    v = min(s1.valuation, s2.valuation, t)
    out = [Rational(0)] * (t - v)
    for s in (s1, s2):
        for k, c in enumerate(s.coeffs, s.valuation):
            if k < t:
                out[k - v] = out[k - v] + c
    return PuiseuxSeries(v, out, t)


def ref_mul(s1, s2):
    t = min(s1.truncation + s2.valuation, s2.truncation + s1.valuation)
    v = s1.valuation + s2.valuation
    if s1.is_zero or s2.is_zero:
        return PuiseuxSeries.zero(t)
    out = [Rational(0)] * (t - v)
    for i, a in enumerate(s1.coeffs):
        for j, b in enumerate(s2.coeffs):
            if i + j < t - v:
                out[i + j] = out[i + j] + a * b
    return PuiseuxSeries(v, out, t)


def ref_exp(s):
    t = s.truncation
    sd = [Rational(0)] * t
    for i, c in enumerate(s.coeffs, s.valuation):
        sd[i] = c
    f = [Rational(1)] + [Rational(0)] * (t - 1)
    for m in range(1, t):
        acc = Rational(0)
        for i in range(1, m + 1):
            acc = acc + (i * sd[i]) * f[m - i]
        f[m] = acc / m
    return PuiseuxSeries(0, f, t)


def ref_compose_shift(s, j):
    t = s.truncation
    out = [Rational(0)] * t
    for k, c in enumerate(s.coeffs, s.valuation):
        w = Rational(1)
        i = 0
        for e in range(k, t, 2):
            out[e] = out[e] + c * w
            w = w * Rational(j * (k + 2 * i), 2 * (i + 1))
            i += 1
    return PuiseuxSeries(0, out, t)


def weight_loop_compose_shift(s, j):
    """The weight-loop kernel that Horner's rule replaced: the term x^k
    picks up the weights w_i of (1 - j x^2)^(-k/2), integers over the one
    denominator 2^I * I!, each rebuilt from the last by an exact division."""
    if s.is_zero:
        return s
    t, v = s.truncation, s.valuation
    steps = (t - 1 - v) // 2
    base = 2**steps * factorial(steps)
    out = [0] * (t - v)
    for k, c in enumerate(s.nums, v):
        w = base
        for i, e in enumerate(range(k - v, t - v, 2)):
            out[e] += c * w
            w = w * (j * (k + 2 * i)) // (2 * (i + 1))
    return series_module._lowest_terms(v, out, s.den * base, t)


def ref_divide_one_minus_jx2(s, j):
    y = list(s.coeffs)
    for m in range(2, len(y)):
        y[m] = y[m] + j * y[m - 2]
    return PuiseuxSeries(s.valuation, y, s.truncation)


def march_divide(s, j):
    """s / (1 - j x^2) from the solver's march, read one order short of the
    truncation of s: with W_j = s, the second step's response is x^2 * s *
    (1 - j x^2)^(-1), and its window ends there."""
    t = s.truncation - 1
    unit = compose_shift(PuiseuxSeries.monomial(1, 1, t - s.valuation + 3), j).x_shift(-1)
    march = ResponseMarch(
        PuiseuxSeries.zero(t + 2), PuiseuxSeries.zero(t + 2), {j: (s, mul(s, unit))}
    )
    march.advance()
    march.advance()
    lo = min(s.valuation, t)
    return PuiseuxSeries(lo, [march.response(o + 2) for o in range(lo, t)], t)


def ref_scale(s, c):
    return PuiseuxSeries(s.valuation, [c * a for a in s.coeffs], s.truncation)


# -- strategies -------------------------------------------------------------------

small = st.builds(
    Rational, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=9)
)
tall = st.builds(
    Rational,
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
)
rationals = st.one_of(small, tall)
# Sparse lists draw mostly zeros; dense ones draw none.
sparse_entry = st.one_of(st.just(0), st.just(0), st.just(0), rationals)


class Ring(Fraction):
    """A rational of a type the kernels do not split into integers: each is
    kept as a numerator over 1 and combined with its own operators."""


rings = st.builds(Ring, rationals)


@st.composite
def series(draw, entries=None, min_valuation=-4, max_valuation=12, max_len=10):
    v = draw(st.integers(min_value=min_valuation, max_value=max_valuation))
    entry = entries if entries is not None else draw(st.sampled_from([rationals, sparse_entry]))
    coeffs = draw(st.lists(entry, max_size=max_len))
    return PuiseuxSeries(v, coeffs, v + len(coeffs))


shifts = st.integers(min_value=1, max_value=5)


def assert_well_formed(s):
    """The storage contract of every series with rational coefficients."""
    assert s.den > 0
    assert all(isinstance(n, int) for n in s.nums)
    assert len(s.nums) == s.truncation - s.valuation
    assert not s.nums or s.nums[0] != 0
    assert s.nums or s.den == 1
    # Equality and hashing go by value: the same series built from its
    # values equals it and hashes alike, whatever its denominator.
    again = PuiseuxSeries(s.valuation, s.coeffs, s.truncation)
    assert again == s and hash(again) == hash(s)


@contextlib.contextmanager
def runs_of(orders):
    """series._BLOCK set to the given run length, restored on exit."""
    saved = series_module._BLOCK
    series_module._BLOCK = orders
    try:
        yield
    finally:
        series_module._BLOCK = saved


def stored(s):
    return (s.valuation, s.nums, s.den, s.truncation)


def assert_runs_store_alike(kernel, *args):
    """kernel(*args) in runs of 1 and of 3 orders stores what it stores
    with the default run length."""
    want = stored(kernel(*args))
    for orders in (1, 3):
        with runs_of(orders):
            assert stored(kernel(*args)) == want


def assert_lowest_terms(s):
    """The storage of the constructor's series and of the kernel results
    whose denominator is a product: no content, so equal series share it."""
    assert_well_formed(s)
    assert gcd(s.den, *s.nums) == 1
    again = PuiseuxSeries(s.valuation, s.coeffs, s.truncation)
    assert (again.nums, again.den) == (s.nums, s.den)


# -- rational coefficients ------------------------------------------------------------


@settings(max_examples=60)
@given(series(), series(), rationals, shifts, st.integers(min_value=-6, max_value=6), st.data())
def test_ring_kernels_match_reference(a, b, c, j, m, data):
    assert_lowest_terms(a)
    assert_lowest_terms(b)
    product = mul(a, b)
    assert product == ref_mul(a, b)
    assert_lowest_terms(product)
    assert_runs_store_alike(mul, a, b)
    results = [
        (add(a, b), ref_add(a, b)),
        (a.scale(c), ref_scale(a, c)),
        (march_divide(a, j), ref_divide_one_minus_jx2(a, j).truncate(a.truncation - 1)),
    ]
    for got, want in results:
        assert got == want
        assert_well_formed(got)
    assert_well_formed(a.x_shift(m))
    t = data.draw(st.integers(min_value=a.valuation - 3, max_value=a.truncation))
    v = min(a.valuation, t)
    cut = a.truncate(t)
    assert cut == PuiseuxSeries(v, a.coeffs[: t - v], t)
    assert_well_formed(cut)
    # Equal series built two ways share their storage and their hash.
    ab, ba = mul(a, b), mul(b, a)
    assert (ab.nums, ab.den) == (ba.nums, ba.den) and hash(ab) == hash(ba)
    terms = PuiseuxSeries.from_terms(dict(a.terms()), a.truncation)
    assert terms == a and hash(terms) == hash(a)


@settings(max_examples=60)
@given(series(min_valuation=1))
def test_exp_matches_reference(s):
    if s.truncation < 1:
        return
    got = exp_series(s)
    assert got == ref_exp(s)
    assert_lowest_terms(got)


@settings(max_examples=60)
@given(series(min_valuation=0), shifts)
def test_compose_shift_matches_reference(s, j):
    got = compose_shift(s, j)
    assert got == ref_compose_shift(s, j)
    assert_lowest_terms(got)
    assert stored(got) == stored(weight_loop_compose_shift(s, j))


def a85_certificate(K):
    """The operands of the a85 certificate at K: the solved series S through
    the residual's window, and the weights of the shifts."""
    rec = get_preset("a85").recurrence
    exp = engine.solve_expansion(rec, get_preset("a85").frame, K)
    t = exp.K + local_analysis(rec).reach + 2
    s = PuiseuxSeries(0, (1,) + exp.a + (0,) * (t - exp.K - 1), t)
    return s, engine._assemble(rec, exp.frame, t, 2).terms


def test_runs_store_the_one_run_results_on_the_a85_certificate():
    # The certificate of an a85 solve at K = 40 multiplies series of 46
    # orders: cut into runs of 8, mul stores what one run stores.
    s, weights = a85_certificate(40)
    for j, w in weights.items():
        shifted = compose_shift(s, j) if j else s
        results = []
        for orders in (s.truncation, 8):
            with runs_of(orders):
                results.append(stored(mul(w, shifted)))
        assert results[0] == results[1]


def shift_operands():
    """Series at the edges of the Horner split: one and two orders (an empty
    or one-term odd part), valuations 0..3, trailing zeros, and series
    longer than series._BLOCK orders with large-height coefficients."""
    rng = random.Random(7)

    def tall():
        return Rational(rng.randint(-(10**30), 10**30), rng.randint(1, 10**30))

    yield PuiseuxSeries(0, [Rational(3, 7)], 1)
    yield PuiseuxSeries(0, [Rational(-2, 5), Rational(9, 4)], 2)
    yield PuiseuxSeries(0, [5, 0], 2)
    yield PuiseuxSeries(1, [Rational(1, 3)], 2)
    for v in range(4):
        yield PuiseuxSeries(v, [tall(), 0, tall()] + [0] * (v + 2), 2 * v + 5)
        yield PuiseuxSeries(v, [tall(), tall()] + [0] * 3, v + 5)
    for t in (series_module._BLOCK + 7, 3 * series_module._BLOCK):
        coeffs = [tall() if rng.random() < 0.7 else 0 for _ in range(t - 4)] + [0] * 3
        yield PuiseuxSeries(1, coeffs, t)


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_compose_shift_stores_the_weight_loop_integers(j):
    for s in shift_operands():
        assert stored(compose_shift(s, j)) == stored(weight_loop_compose_shift(s, j))


def test_compose_shift_stores_the_weight_loop_integers_on_the_a85_certificate():
    s, weights = a85_certificate(40)
    for j in weights:
        if j:
            assert stored(compose_shift(s, j)) == stored(weight_loop_compose_shift(s, j))


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_shift_unit_stores_the_compose_shift_seed(j):
    # The closed-form g_j = (1 - j x^2)^(-1/2) stores what the substitution
    # x -> x (1 - j x^2)^(-1/2) gives for x, divided by x.
    for T in range(1, 41):
        seed = compose_shift(PuiseuxSeries.monomial(1, 1, T + 1), j).x_shift(-1)
        unit = series_module.shift_unit.__wrapped__(j, T)
        assert stored(unit) == stored(seed)
        assert gcd(unit.den, *unit.nums) == 1


def test_shared_denominator_is_the_lcm():
    s = PuiseuxSeries(0, [Rational(1, 6), Rational(-1, 4), 3], 3)
    assert (s.nums, s.den) == ((2, -3, 36), 12)
    assert s.coeffs == (Rational(1, 6), Rational(-1, 4), 3)
    assert add(s, s.scale(-1)) == PuiseuxSeries.zero(3)
    assert add(s, s.scale(-1)).den == PuiseuxSeries.zero(3).den == 1


def test_sums_and_scalings_may_keep_content():
    # add and scale keep the denominator their arithmetic gives, so the
    # content can stay behind; the series still equals, and hashes like,
    # the one the constructor puts in lowest terms.
    s = PuiseuxSeries(0, [Rational(1, 2), Rational(1, 4)], 2)
    t = PuiseuxSeries(0, [Rational(1, 2), Rational(-1, 4)], 2)
    total = add(s, t)
    doubled = s.scale(2)
    for got, coeffs in ((total, [1, 0]), (doubled, [1, Rational(1, 2)])):
        assert gcd(got.den, *got.nums) > 1
        want = PuiseuxSeries(0, coeffs, 2)
        assert got == want and hash(got) == hash(want)
        assert got.coeffs == want.coeffs
        assert_well_formed(got)


def test_other_number_types_keep_their_operators():
    # Only int, bool and Rational are split into integers; a
    # subclass with arithmetic of its own stays a ring element, so the
    # kernels call its operators, and its series equals and hashes like
    # the canonical one.
    products = [0]

    class Counted(Fraction):
        def __mul__(self, other):
            products[0] += 1
            return Fraction(self) * other

    s = PuiseuxSeries(0, [Counted(1, 2), Counted(3)], 2)
    plain = PuiseuxSeries(0, [Fraction(1, 2), 3], 2)
    assert s == plain and hash(s) == hash(plain)
    products[0] = 0
    square = mul(s, s)
    assert products[0] == 3
    assert square == mul(plain, plain) and hash(square) == hash(mul(plain, plain))


# -- coefficients kept as ring elements --------------------------------------------------

ring_entries = st.one_of(rings, rationals, st.just(0))


@settings(max_examples=40)
@given(
    series(entries=ring_entries),
    series(entries=ring_entries, min_valuation=0),
    rings,
    shifts,
)
# A trailing ring zero makes the default run's product a ring element, so
# its content stays; runs of 1 order must not trim it away.
@example(
    a=PuiseuxSeries(0, [2, 0], 2),
    b=PuiseuxSeries(0, [Rational(1, 2), Ring(0)], 2),
    p=Ring(0),
    j=1,
)
def test_kernels_match_reference_over_ring_elements(a, b, p, j):
    assert add(a, b) == ref_add(a, b)
    assert mul(a, b) == ref_mul(a, b)
    assert a.scale(p) == ref_scale(a, p)
    assert march_divide(a, j) == ref_divide_one_minus_jx2(a, j).truncate(a.truncation - 1)
    assert compose_shift(b, j) == ref_compose_shift(b, j)
    assert compose_shift(b, j) == weight_loop_compose_shift(b, j)
    assert_runs_store_alike(mul, a, b)


@settings(max_examples=30)
@given(series(entries=ring_entries, min_valuation=1, max_len=6))
def test_exp_matches_reference_over_ring_elements(s):
    if s.truncation < 1:
        return
    assert exp_series(s) == ref_exp(s)


# -- division by 1 - j z^e, the outer factor, and sums of products ------------------


def loop_divide(y, j, e, start):
    """The plain loop: y_m += j * y_(m-e) for m >= start."""
    y = list(y)
    for m in range(start, len(y)):
        y[m] += j * y[m - e]
    return y


def loop_horner_u2(coeffs, j):
    """Horner's rule in u^2 = x^2 / (1 - j x^2) with the plain loop, from
    the last coefficient, cut to len(coeffs) orders of x^2."""
    y = []
    for m in range(len(coeffs) - 1, -1, -1):
        y = loop_divide([coeffs[m], *y], j, 1, 2)[: len(coeffs) - m]
    return y


def numerators(rng, n):
    return [rng.randint(-(10**40), 10**40) if rng.random() < 0.8 else 0 for _ in range(n)]


@pytest.mark.parametrize("j", [1, 2, 3])
def test_divide_unit_stores_the_loop_integers(j):
    # The march divides from index e (e = 2 in x, 1 in y), _horner_u2 the
    # part shifted in, from index 2 with e = 1.
    rng = random.Random(j)
    for e, start in ((1, 1), (2, 2), (1, 2)):
        for n in (0, 1, 2, 3, 40):
            y = numerators(rng, n)
            got = list(y)
            series_module._divide_unit(got, j, e, start)
            assert got == loop_divide(y, j, e, start)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_horner_u2_stores_the_loop_integers(j):
    rng = random.Random(10 + j)
    for n in (0, 1, 2, 3, 40):
        coeffs = numerators(rng, n) + [0] * (n % 3)
        got = series_module._horner_u2(coeffs, j)
        # Horner's rule starts at the last nonzero coefficient, so the
        # result may stop short of the zeros beyond it.
        assert got + [0] * (len(coeffs) - len(got)) == loop_horner_u2(coeffs, j)


def outer_stored(s1, s2):
    """What mul stores with s1 as the outer factor of the convolution."""
    t = min(s1.truncation + s2.valuation, s2.truncation + s1.valuation)
    v = min(s1.valuation + s2.valuation, t) if s1 and s2 else t
    out = [0] * (t - v)
    if s1 and s2:
        series_module._add_product(out, 0, s1, s2, 1)
    return stored(series_module._lowest_terms(v, out, s1.den * s2.den, t))


def outer_operands():
    """Pairs of a dense factor and an even one (g_j = (1 - j x^2)^(-1/2),
    every odd order zero), short and past series._BLOCK orders, with
    trailing zeros on either side."""
    rng = random.Random(3)

    def dense(v, n, zeros=0):
        coeffs = [Rational(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6)) for _ in range(n)]
        return PuiseuxSeries(v, coeffs + [0] * zeros, v + n + zeros)

    for t in (5, series_module._BLOCK + 9):
        even = series_module.shift_unit.__wrapped__(2, t)
        yield dense(-2, t), even
        yield dense(1, t - 4, 4), even
        yield even, dense(0, t // 2, t - t // 2)
        yield dense(0, t, 3), dense(2, t - 3, 6)


def test_mul_stores_the_same_whichever_factor_is_outside():
    for a, b in outer_operands():
        for orders in (series_module._BLOCK, 3):
            with runs_of(orders):
                want = stored(mul(a, b))
                assert outer_stored(a, b) == outer_stored(b, a) == want
                assert stored(mul(b, a)) == want


def test_ring_element_products_are_counted_as_before():
    # The product count that perfbench's tracer derives from the argument
    # lengths: every pair of coefficients whose orders land below the
    # truncation, whichever factor is outside.
    products = [0]

    class Counted(Fraction):
        def __mul__(self, other):
            products[0] += 1
            return Fraction(self) * other

    for v1, n1, v2, n2 in ((0, 5, 0, 5), (-2, 3, 1, 7), (2, 4, -1, 2)):
        s1 = PuiseuxSeries(v1, [Counted(i + 1) for i in range(n1)], v1 + n1)
        s2 = PuiseuxSeries(v2, [Counted(i + 2) for i in range(n2)], v2 + n2)
        n = min(s1.truncation + s2.valuation, s2.truncation + s1.valuation) - v1 - v2
        want = sum(min(n2, n - i) for i in range(min(n1, n)))
        for pair in ((s1, s2), (s2, s1)):
            products[0] = 0
            mul(*pair)
            assert products[0] == want


def assert_sum_of_products(pairs):
    got = mul_sum(pairs)
    want = reduce(add, (mul(a, b) for a, b in pairs))
    assert got == want
    assert_lowest_terms(got)
    assert got.truncation == min(mul(a, b).truncation for a, b in pairs)


@settings(max_examples=20)
@given(st.lists(st.tuples(series(max_len=8), series(max_len=8)), min_size=1, max_size=3))
def test_mul_sum_is_the_sum_of_its_products(pairs):
    assert_sum_of_products(pairs)


def test_mul_sum_with_a_zero_pair_and_runs():
    rng = random.Random(5)

    def dense(v, n):
        coeffs = [Rational(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)]
        return PuiseuxSeries(v, coeffs, v + n)

    a, b, c = dense(-2, 50), dense(1, 45), dense(0, 40)
    assert_sum_of_products([(a, b), (c, PuiseuxSeries.zero(30))])
    # A product that starts at or past the truncation of another adds
    # nothing, over its own denominator or a larger one.
    for v in (2, 3, 4, 9):
        high = PuiseuxSeries(v, [1, 2, 3], v + 3)
        assert_sum_of_products([(dense(0, 3), dense(0, 5)), (high, dense(1, 4))])
        ints = PuiseuxSeries(0, [4, 5, 6, 7], 4)
        assert_sum_of_products([(ints, ints.truncate(3)), (high, ints)])
    assert_sum_of_products([(a, b), (b, c), (PuiseuxSeries.zero(60), a)])
    with runs_of(3):
        assert stored(mul_sum([(a, b), (b, c)])) == stored(mul_sum([(b, a), (c, b)]))
    # A single pair is mul.
    assert stored(mul_sum([(a, c)])) == stored(mul(a, c))


def test_mul_sum_refuses_an_empty_input():
    for empty in ((), iter([])):
        with pytest.raises(ValueError, match="empty input"):
            mul_sum(empty)
