"""Exact big-integer counts of involutions (self-inverse permutations).

t_n counts permutations of n letters equal to their own inverse.  Four
independent routes are provided so they can cross-check each other:

  * the two-term recurrence t_n = t_{n-1} + (n-1) t_{n-2}, stepped for
    the list t_0 .. t_n, and split into a product tree of 2x2 integer
    matrices for t_n alone (the product's top-left entry), the fast route
    used everywhere else in the package (up to EXACT_INDEX_LIMIT);
  * the closed-form sum over the number of 2-cycles, run by Horner's rule
    on an integer numerator and denominator with one exact division;
  * the exponential generating function exp(z + z^2/2), a binomial
    convolution of its two separately expanded factors, summed by additions;
  * brute-force enumeration of all permutations, for tiny n, each tested
    at three letters before the rest.

Everything here is exact integer arithmetic; there is nothing to round.
The sequence grows like n^(n/2) e^(-n/2 + sqrt(n)), so lists for n in the
thousands hold integers with thousands of digits and are still cheap to
produce.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from operator import add

from .errors import InputTooLarge

#: Hard cap for the factorial-time brute-force counter (10! is 3628800).
BRUTE_FORCE_LIMIT = 10

#: Cap on the index of a single exact t_n (about one second at the cap).
EXACT_INDEX_LIMIT = 10**5

#: Longest run of indices the product tree steps directly.
_LEAF = 64


def involution_numbers(n_max: int) -> list[int]:
    """[t_0, t_1, ..., t_{n_max}] via the two-term recurrence."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = [1]
    if n_max >= 1:
        out.append(1)
    for n in range(2, n_max + 1):
        out.append(out[n - 1] + (n - 1) * out[n - 2])
    return out


def _product(lo: int, hi: int) -> tuple[int, int, int, int]:
    """The step matrices [[1, m - 1], [1, 0]] multiplied for m = hi - 1 down
    to lo, as the entries (a, b, c, d).  A leaf steps four scalars; a longer
    run is split in half, and the halves' products are big integers of
    about equal size."""
    if hi - lo <= _LEAF:
        a, b, c, d = 1, 0, 0, 1
        for m in range(lo, hi):
            a, b, c, d = a + (m - 1) * c, b + (m - 1) * d, a, b
        return a, b, c, d
    mid = (lo + hi) // 2
    a, b, c, d = _product(mid, hi)
    e, f, g, h = _product(lo, mid)
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


@lru_cache(maxsize=8, typed=True)
def involution_number(n: int) -> int:
    """t_n alone, by binary splitting of the two-term recurrence.

    Each step maps the pair (t_(m-1), t_(m-2)) to (t_m, t_(m-1)) through
    the integer matrix [[1, m - 1], [1, 0]].  The product of the steps
    m = n down to 1 is built as a tree: runs of up to _LEAF steps are
    stepped directly, longer runs are split in half, so the big
    multiplications pair integers of about equal size (Chudnovsky &
    Chudnovsky, 1988; Bostan, Gaudry & Schost, 2007).  The start pair is
    (t_0, t_(-1)) = (1, 0), so t_n is the product's top-left entry.  For
    n <= _LEAF there is one leaf, so no threshold picks between two
    routes.  Refuses n above EXACT_INDEX_LIMIT.

    The last eight values are memoized (at most about 100 KB each at the
    cap), since the numeric checks ask for the same few indices at many
    precisions.  Refusals are not cached, and the memo is typed, so a
    non-int index fails as it would without it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > EXACT_INDEX_LIMIT:
        raise InputTooLarge(
            f"exact involution numbers are capped at n = {EXACT_INDEX_LIMIT}, "
            f"got n = {n}"
        )
    return _product(1, n + 1)[0]


def involution_count_by_sum(n: int) -> int:
    """t_n as the sum over k of n! / (k! * 2^k * (n-2k)!), where k counts
    the 2-cycles; the k = 0 term contributes the identity permutation.

    Term k + 1 is term k times r_k = (n-2k)(n-2k-1) / (2(k+1)), so the sum
    is 1 + r_0(1 + r_1(1 + ...)), evaluated by Horner's rule from the
    innermost bracket on an integer pair (num, den) with one exact division
    at the end.  Raises ArithmeticError should that division leave a
    remainder, a check that holds under python -O too.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    num = den = 1
    for k in range(n // 2 - 1, -1, -1):
        m = n - 2 * k
        den *= 2 * (k + 1)
        num = den + num * (m * (m - 1))
    total, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"the sum over 2-cycles for n = {n} is not an integer")
    return total


def involution_counts_by_egf(n_max: int) -> list[int]:
    """[t_0, ..., t_{n_max}] from the EGF exp(z) * exp(z^2/2).

    The coefficients of a product of EGFs, times m!, are the binomial
    convolution of the factors' coefficients times their factorials:
    t_m = sum_i C(m, i) * b_i, with 1 for exp(z) and b_k = k! [z^k]
    exp(z^2/2), which is (k - 1)!! for even k and 0 for odd k.  The sum is
    row_m[0] of the difference table row_0 = b, row_(j+1)[i] = row_j[i] +
    row_j[i + 1]: Pascal's rule on b, additions only, from the two factors
    alone, so the route stays independent of both the recurrence and the
    sum over 2-cycles.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    b = [1] + [0] * n_max
    for k in range(2, n_max + 1, 2):
        b[k] = b[k - 2] * (k - 1)
    row, out = b, [1]
    for _ in range(n_max):
        row = list(map(add, row, row[1:]))
        out.append(row[0])
    return out


def involution_count_brute(n: int) -> int:
    """t_n by exhaustively checking every permutation of n letters for
    equality with its own inverse.  Factorial time; refuses n above
    BRUTE_FORCE_LIMIT instead of hanging.

    Each permutation is first tested at three letters, 0, n - 1 and n // 2
    (distinct for n >= 3; for n = 1, 2 a letter repeats); about one in a
    hundred passes and goes on to the test of every letter."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > BRUTE_FORCE_LIMIT:
        raise InputTooLarge(
            f"brute-force involution count is capped at n = {BRUTE_FORCE_LIMIT}, "
            f"got n = {n}"
        )
    if n == 0:
        return 1  # the empty permutation
    rest = range(1, n)
    last, mid = n - 1, n // 2
    count = 0
    for p in permutations(range(n)):
        # Three letters first: most permutations fail there, before any loop.
        if not p[p[0]] and p[p[last]] == last and p[p[mid]] == mid:
            for i in rest:
                if p[p[i]] != i:
                    break
            else:
                count += 1
        del p  # drop the last reference: permutations then refills one tuple in place
    return count
