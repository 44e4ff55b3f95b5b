"""Exact involution numbers by four independent routes.

OEIS A000085: 1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496, ...
"""

from itertools import combinations, permutations
from math import comb, factorial, prod

import pytest

from recasymp import (
    BRUTE_FORCE_LIMIT,
    InputTooLarge,
    a85_recurrence,
    involution_count_brute,
    involution_count_by_sum,
    involution_counts_by_egf,
    involution_numbers,
)
from recasymp import involutions
from recasymp.involutions import EXACT_INDEX_LIMIT, involution_number

A000085_PREFIX = [1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496]


def test_recurrence_prefix():
    assert involution_numbers(10) == A000085_PREFIX


def test_sum_route_prefix():
    assert [involution_count_by_sum(n) for n in range(11)] == A000085_PREFIX


def test_egf_route_prefix():
    assert involution_counts_by_egf(10) == A000085_PREFIX


def test_egf_route_matches_recurrence_to_1000():
    for n_max in (0, 1, 2, 1000):
        assert involution_counts_by_egf(n_max) == involution_numbers(n_max)


def test_brute_force_prefix():
    assert [involution_count_brute(n) for n in range(11)] == A000085_PREFIX


def test_brute_force_draws_all_n_factorial_permutations(monkeypatch):
    # Every permutation is drawn and tested: nothing is pruned or skipped.
    drawn = []

    def counting_permutations(iterable):
        for p in permutations(iterable):
            drawn.append(tuple(list(p)))
            yield drawn[-1]

    monkeypatch.setattr(involutions, "permutations", counting_permutations)
    for n in range(1, 8):
        drawn.clear()
        assert involution_count_brute(n) == A000085_PREFIX[n]
        assert len(drawn) == len(set(drawn)) == factorial(n)


def test_egf_route_uses_no_other_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the EGF route called another route")

    for name in ("involution_numbers", "involution_number", "involution_count_by_sum"):
        monkeypatch.setattr(involutions, name, refuse)
    # t_m = sum_i C(m, 2i) (2i - 1)!!, written out here without the library.
    expected = [
        sum(comb(m, 2 * i) * prod(range(1, 2 * i, 2)) for i in range(m // 2 + 1))
        for m in range(61)
    ]
    assert involution_counts_by_egf(60) == expected


def test_brute_force_checks_every_letter(monkeypatch):
    # Each 3-cycle fixes three letters, whichever three are tested first,
    # and must still be rejected by the test of every letter.
    involutions_of_6 = [p for p in permutations(range(6))
                        if all(p[p[i]] == i for i in range(6))]
    three_cycles = []
    for a, b, c in combinations(range(6), 3):
        for image in ((b, c, a), (c, a, b)):
            p = list(range(6))
            p[a], p[b], p[c] = image
            three_cycles.append(tuple(p))
    assert len(involutions_of_6) == 76 and len(set(three_cycles)) == 40

    def chosen_permutations(iterable):
        assert list(iterable) == list(range(6))
        yield from involutions_of_6 + three_cycles

    monkeypatch.setattr(involutions, "permutations", chosen_permutations)
    assert involution_count_brute(6) == 76


def test_sum_route_uses_no_other_route(monkeypatch):
    def refuse(*args):
        raise AssertionError("the sum route called another route")

    for name in ("involution_numbers", "involution_number", "involution_counts_by_egf"):
        monkeypatch.setattr(involutions, name, refuse)
    # t_n = sum_k C(n, 2k) (2k - 1)!!, written out here without the library.
    expected = [
        sum(comb(n, 2 * k) * prod(range(1, 2 * k, 2)) for k in range(n // 2 + 1))
        for n in range(81)
    ]
    assert [involution_count_by_sum(n) for n in range(81)] == expected


def test_single_value_matches_list():
    # n <= 700 crosses the 64-index leaves and the first few splits.
    values = involution_numbers(1000)
    assert [involution_number(n) for n in range(701)] == values[:701]
    assert involution_number(1000) == values[1000]
    assert len(str(involution_number(1000))) == 1297


def test_single_value_matches_the_sum_at_10_000():
    assert involution_number(10**4) == involution_count_by_sum(10**4)


def test_routes_agree_to_120(t_values):
    sums = [involution_count_by_sum(n) for n in range(121)]
    egf = involution_counts_by_egf(120)
    assert t_values[:121] == sums == egf


def test_brute_force_is_bounded():
    assert BRUTE_FORCE_LIMIT == 10
    with pytest.raises(InputTooLarge):
        involution_count_brute(BRUTE_FORCE_LIMIT + 1)


def test_single_value_is_bounded():
    # Every call past the cap is refused: a refusal is never cached.
    for _ in range(2):
        with pytest.raises(InputTooLarge, match=f"capped at n = {EXACT_INDEX_LIMIT}"):
            involution_number(EXACT_INDEX_LIMIT + 1)


def test_single_value_memo_is_bounded_and_exact():
    assert 0 < involution_number.cache_info().maxsize <= 8
    for n in (0, 700, 2500, 700):
        assert involution_number(n) == involution_number.__wrapped__(n)
    with pytest.raises(TypeError):  # typed: a cached int does not answer a float
        involution_number(700.0)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        involution_numbers(-1)
    with pytest.raises(ValueError):
        involution_count_by_sum(-1)
    with pytest.raises(ValueError):
        involution_counts_by_egf(-1)
    with pytest.raises(ValueError):
        involution_count_brute(-1)
    with pytest.raises(ValueError):
        involution_number(-1)


def test_strictly_increasing(t_values):
    for n in range(1, 300):
        assert t_values[n + 1] > t_values[n]


def test_satisfies_recurrence(t_values):
    rec = a85_recurrence()
    for n in range(2, 301):
        assert rec.sequence_residual(t_values, n) == 0


def test_t_1000_digit_facts():
    t = involution_numbers(1000)[1000]
    digits = str(t)
    # True size of t_1000: these two facts pin the exact integer's scale.
    assert len(digits) == 1297
    assert digits[:20] == "21439289538422655419"


def test_zero_index():
    assert involution_numbers(0) == [1]
    assert involution_count_by_sum(0) == 1
    assert involution_count_brute(0) == 1
