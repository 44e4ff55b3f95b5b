"""Randomized invariants of the series arithmetic.

Every assertion is exact rational equality; comparisons happen after
truncating both sides to the smaller truncation order, which is the most
either side is entitled to claim.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from recasymp import (
    PuiseuxSeries,
    Rational,
    add,
    compose_shift,
    exp_series,
    log1p_series,
    mul,
)

rationals = st.builds(
    Rational,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)


@st.composite
def series(draw, min_valuation=-3, max_len=8):
    v = draw(st.integers(min_value=min_valuation, max_value=5))
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_len))
    return PuiseuxSeries(v, coeffs, v + len(coeffs))


@st.composite
def positive_valuation_series(draw, max_len=8):
    v = draw(st.integers(min_value=1, max_value=4))
    coeffs = draw(st.lists(rationals, min_size=0, max_size=max_len))
    return PuiseuxSeries(v, coeffs, v + len(coeffs))


def agree(s1: PuiseuxSeries, s2: PuiseuxSeries) -> bool:
    """Equal after truncating both to the common justified order."""
    t = min(s1.truncation, s2.truncation)
    return s1.truncate(t) == s2.truncate(t)


@given(series(), series())
def test_add_commutative(a, b):
    assert add(a, b) == add(b, a)


@given(series(), series(), series())
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(series(), series())
def test_mul_commutative(a, b):
    assert mul(a, b) == mul(b, a)


@given(series(), series(), series())
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(series(), series(), series())
def test_distributive(a, b, c):
    # Cancellation in b + c can raise its valuation and with it the left
    # side's truncation, so compare on the common range only.
    assert agree(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))


@given(series())
def test_additive_inverse(a):
    assert add(a, a.scale(-1)).is_zero


@settings(max_examples=60)
@given(positive_valuation_series())
def test_exp_log_left_inverse(s):
    if s.truncation < 1:
        return
    one = PuiseuxSeries.one(s.truncation)
    assert log1p_series(add(exp_series(s), one.scale(-1))) == s


@settings(max_examples=60)
@given(positive_valuation_series())
def test_log_exp_right_inverse(s):
    if s.truncation < 1:
        return
    one = PuiseuxSeries.one(s.truncation)
    assert exp_series(log1p_series(s)) == add(one, s)


@settings(max_examples=60)
@given(positive_valuation_series(), positive_valuation_series())
def test_exp_turns_sums_into_products(a, b):
    if min(a.truncation, b.truncation) < 1:
        return
    assert agree(exp_series(add(a, b)), mul(exp_series(a), exp_series(b)))


@settings(max_examples=60)
@given(
    series(min_valuation=0, max_len=7),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_shift_semigroup(s, i, j):
    assert compose_shift(compose_shift(s, j), i) == compose_shift(s, i + j)


@settings(max_examples=60)
@given(series(min_valuation=0), series(min_valuation=0), st.integers(min_value=1, max_value=3))
def test_shift_is_ring_morphism(a, b, j):
    assert compose_shift(add(a, b), j) == add(compose_shift(a, j), compose_shift(b, j))
    assert agree(
        compose_shift(mul(a, b), j), mul(compose_shift(a, j), compose_shift(b, j))
    )


@given(series(), rationals, rationals)
def test_scale_is_linear(s, p, q):
    assert agree(s.scale(p * q), s.scale(p).scale(q))
    assert agree(add(s.scale(p), s.scale(q)), s.scale(p + q))


@given(series(), st.integers(min_value=-4, max_value=4))
def test_x_shift_composes(s, m):
    assert s.x_shift(m).x_shift(-m) == s
