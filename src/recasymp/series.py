"""Truncated Puiseux series with exact coefficients.

The working variable is x = n^(-1/2), so a series in x with integer
exponents is a Puiseux series in 1/n of ramification 2.  The kernels
are blind to the variable, so the same series serve y = x^2 = 1/n, the
lattice of ramification 1, where the solver puts frames with c = 0 and
every beta*j an integer; only the shift substitution differs there
(compose_shift with r = 1).

A series is (valuation v, numerators, denominator d, truncation T) and
represents

    sum_{k=v}^{T-1} (n_{k-v} / d) x^k  +  O(x^T),

with the numerators stored densely (interior zeros explicit, len(nums) ==
T - v) over one shared positive denominator.  Nonzero series keep a nonzero
leading numerator: leading zeros are normalised away by raising the
valuation.  The zero series is the empty tuple over d == 1 with v == T.
Instances are immutable; ``coeffs`` is the derived tuple of coefficient
values n/d.  Equality and hashing go by value, so the same series may be
stored over different denominators.

Every kernel works on the numerators with integer arithmetic and keeps the
denominator its arithmetic gives.  The content gcd(d, *nums) is divided
out only where a denominator is formed as a product, so that it cannot
build up: in mul_sum (the lcm of the d1 * d2 of its pairs, so in mul,
which is mul_sum of one pair) and in compose_shift in x (d * 4^I); and in
truncate, whose cut drops numerators that may have needed part of the
denominator.  Every cut is divided, also one at the series' own
truncation.  The lcm that the constructor and
from_terms bring exact values over (so the closed forms of shift_unit and
the frame module) and the running lcm of exp_series and log1p_series are
in lowest terms by construction; a sum or a scaling may carry content,
and so may the numerators of the solver's march (ResponseMarch), which
works on lists, not series.

Products are schoolbook convolutions whose outer loop skips zero
numerators, so each product puts the factor with more zeros outside: an
even factor, such as (1 - j x^2)^(-1/2) or exp(alpha C), costs half the
products, and the output is the same integers either way.  mul_sum
convolves several products into one numerator list over one denominator,
so a sum of products, such as the certificate's residual, divides its
content out once.  Because the numerators share one denominator, the low
orders of a long series are padded to the width its highest order needs.
mul_sum therefore also divides content out of the factors while it works:
a numerator list longer than _BLOCK orders is cut into runs, each divided
by gcd(d, *run), and each run's contribution is multiplied back by that
gcd as it is added into the output.  The output numerators are the same
integers either way; only the products are narrower.

Division by 1 - j z^e, which steps the solver's march (e = 2 in x, e = 1 in
y) and Horner's rule in the shift substitution (e = 1 in x^2), works in
place, y_m += j * y_(m-e) (_divide_unit); for j = 1 it is a running sum
over each residue class mod e, which itertools.accumulate does at C speed.

Truncation orders obey the usual interval arithmetic of O-terms:

    add:        T = min(T1, T2)
    mul:        T = min(T1 + v2, T2 + v1)
    mul_sum:    T = the smallest T of its products
    exp, log1p: T preserved (arguments must have positive valuation)
    shift substitution x -> x*(1 - j*x^2)^(-1/2): v and T preserved
    shift substitution in y, y -> y/(1 - j*y): v and T preserved

Coefficients are exact rationals.  Only ints and Rationals are split into
integers; any other exact value (a subclass with arithmetic of its own, as
an operation counter uses) is kept as a numerator over 1 and combined with
its own operators, since every kernel needs only ring operations plus
division by integers.  Such a numerator counts as content 1, so no content
is divided out of its series.  Floats and bools are rejected.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial, reduce
from itertools import accumulate
from math import comb, gcd, lcm

from .errors import NegativeValuation, NonPositiveValuation
from .rationals import Rational


#: The exact number types the constructor splits into a Python int
#: numerator and denominator.
_SPLIT = frozenset({int, Rational})

#: Orders per run in mul: a longer factor is split into runs of this many
#: orders, each divided by its own content (_runs).
_BLOCK = 32


def _split(c):
    """(numerator, denominator) of an exact coefficient.  Any value of
    another type (a subclass with arithmetic of its own) is its own
    numerator over 1, so the kernels combine it with its own operators."""
    if isinstance(c, (float, bool)):
        raise TypeError(f"{type(c).__name__} coefficients are not allowed in exact series")
    if type(c) in _SPLIT:
        return c.numerator, c.denominator
    return c, 1


def _value(num, den):
    """The coefficient num/den, in lowest terms for integer num."""
    return Rational(num, den) if isinstance(num, int) else num / den


def _over_lcm(values):
    """Split exact values and bring them over their lcm: (numerators,
    denominator), in lowest terms for split values."""
    parts = [_split(c) for c in values]
    den = lcm(*(d for _, d in parts))
    return [n if d == den else n * (den // d) for n, d in parts], den


def _content(den, nums):
    """gcd(den, *nums), or 1 once a numerator is not an integer."""
    try:
        return gcd(den, *nums)
    except TypeError:
        return 1


class PuiseuxSeries:
    """One truncated series.  Use the classmethods and module functions to
    build and combine instances; direct construction takes the dense list
    of exact coefficients and brings them over one denominator."""

    __slots__ = ("valuation", "nums", "den", "truncation", "_values")

    def __init__(self, valuation: int, coeffs, truncation: int):
        if truncation < valuation:
            raise ValueError("truncation below valuation")
        nums, den = _over_lcm(coeffs)
        if len(nums) != truncation - valuation:
            raise ValueError(
                f"need exactly truncation - valuation = "
                f"{truncation - valuation} coefficients, got {len(nums)}"
            )
        _fill(self, valuation, nums, den, truncation)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, truncation: int) -> "PuiseuxSeries":
        """The zero series known through O(x^truncation)."""
        return _from_numerators(truncation, (), 1, truncation)

    @classmethod
    def constant(cls, c, truncation: int) -> "PuiseuxSeries":
        """The constant c as a series with the given truncation (>= 1, as
        monomial requires)."""
        return cls.monomial(c, 0, truncation)

    @classmethod
    def one(cls, truncation: int) -> "PuiseuxSeries":
        return cls.constant(1, truncation)

    @classmethod
    def monomial(cls, c, exponent: int, truncation: int) -> "PuiseuxSeries":
        """c * x^exponent + O(x^truncation): from_terms of the one term,
        which refuses an exponent at or beyond the truncation."""
        return cls.from_terms({exponent: c}, truncation)

    @classmethod
    def from_terms(cls, terms: dict, truncation: int) -> "PuiseuxSeries":
        """Build from {exponent: coefficient}; exponents beyond the
        truncation are rejected rather than dropped.  Only the given
        coefficients are split (a float among them is rejected) and brought
        over their lcm; the orders between them are zero numerators, so a
        sparse dict over a long truncation costs one list, not one split per
        order."""
        if not terms:
            return cls.zero(truncation)
        lo = min(terms)
        hi = max(terms)
        if hi >= truncation:
            raise ValueError(f"term at x^{hi} is at or beyond O(x^{truncation})")
        given, den = _over_lcm(terms.values())
        nums = [0] * (truncation - lo)
        for k, n in zip(terms, given):
            nums[k - lo] = n
        return _from_numerators(lo, nums, den, truncation)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    @property
    def coeffs(self) -> tuple:
        """The coefficient values n/d, one per stored numerator."""
        if self._values is None:
            values = tuple(_value(n, self.den) for n in self.nums)
            object.__setattr__(self, "_values", values)
        return self._values

    def coefficient(self, exponent: int):
        """The coefficient of x^exponent.  Exponents below the valuation
        are exactly zero; at or beyond the truncation they are unknown and
        asking for one is an error, not a zero."""
        if exponent >= self.truncation:
            raise ValueError(
                f"coefficient of x^{exponent} is beyond O(x^{self.truncation})"
            )
        if exponent < self.valuation:
            return Rational(0)
        return _value(self.nums[exponent - self.valuation], self.den)

    def terms(self):
        """Iterate (exponent, coefficient) over stored nonzero terms."""
        for i, n in enumerate(self.nums):
            if n:
                yield self.valuation + i, _value(n, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        if (self.valuation, self.truncation, len(self.nums)) != (
            other.valuation,
            other.truncation,
            len(other.nums),
        ):
            return False
        return all(
            a * other.den == b * self.den for a, b in zip(self.nums, other.nums)
        )

    def __hash__(self):
        # Over the values, so that equal series stored over different
        # denominators hash alike.
        return hash((self.valuation, self.truncation, self.coeffs))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*x^{k}" for k, c in self.terms()) or "0"
        return f"PuiseuxSeries({body} + O(x^{self.truncation}))"

    def truncate(self, truncation: int) -> "PuiseuxSeries":
        """Forget terms at and beyond the given truncation, at most the
        series' own.  The cut is in lowest terms, also at the series' own
        truncation, so it stores what a series built through that
        truncation stores."""
        if truncation > self.truncation:
            raise ValueError("cannot extend knowledge by truncating upward")
        v = min(self.valuation, truncation)
        return _lowest_terms(v, self.nums[: truncation - v], self.den, truncation)

    def x_shift(self, m: int) -> "PuiseuxSeries":
        """Multiply by the exact monomial x^m (m may be negative)."""
        return _from_numerators(
            self.valuation + m, self.nums, self.den, self.truncation + m
        )

    def scale(self, c) -> "PuiseuxSeries":
        """Multiply every coefficient by the exact scalar c = p/q: the
        numerators by p, the denominator by q.  For c = 0 every numerator
        is zero, and _fill stores the zero series."""
        p, q = _split(c)
        return _from_numerators(
            self.valuation, [p * a for a in self.nums], self.den * q, self.truncation
        )


def _fill(s: PuiseuxSeries, valuation: int, nums, den: int, truncation: int) -> None:
    """Set the slots of s from exact numerators over den > 0, stripping
    leading zeros; the zero series is stored over 1."""
    lead = 0
    while lead < len(nums) and not nums[lead]:
        lead += 1
    nums = tuple(nums[lead:])
    set_slot = object.__setattr__
    set_slot(s, "valuation", valuation + lead)
    set_slot(s, "nums", nums)
    set_slot(s, "den", den if nums else 1)
    set_slot(s, "truncation", truncation)
    set_slot(s, "_values", None)


def _from_numerators(valuation: int, nums, den: int, truncation: int) -> PuiseuxSeries:
    """The kernels' constructor: numerators already exact (ints, or values
    kept by _split) over den > 0, len(nums) == T - v; no per-coefficient
    validation, and the denominator is kept as given."""
    s = object.__new__(PuiseuxSeries)
    _fill(s, valuation, nums, den, truncation)
    return s


def _lowest_terms(valuation: int, nums, den: int, truncation: int) -> PuiseuxSeries:
    """_from_numerators with the content gcd(den, *nums) divided out, for
    the results whose denominator is a product, and for cuts (see the
    module docstring)."""
    g = _content(den, nums)
    if g != 1:
        nums = [a // g for a in nums]
        den //= g
    return _from_numerators(valuation, nums, den, truncation)


def add(s1: PuiseuxSeries, s2: PuiseuxSeries) -> PuiseuxSeries:
    """Sum, known through O(x^min(T1, T2)).

    Both operands are brought over lcm(d1, d2) by their cofactors; the
    first operand's numerators are copied into place and only the second's
    are added, so no output slot costs more than one addition."""
    t = min(s1.truncation, s2.truncation)
    v = min(s1.valuation, s2.valuation, t)
    den = lcm(s1.den, s2.den)
    out = [0] * (t - v)
    lo = s1.valuation - v
    first = s1.nums[: max(0, t - s1.valuation)]
    if den != s1.den:
        first = [den // s1.den * a for a in first]
    out[lo : lo + len(first)] = first
    hi = lo + len(first)
    second = s2.nums[: max(0, t - s2.valuation)]
    if den != s2.den:
        second = [den // s2.den * c for c in second]
    for k, c in enumerate(second, s2.valuation - v):
        out[k] = out[k] + c if lo <= k < hi else c
    return _from_numerators(v, out, den, t)


def _trimmed(nums):
    """nums without its trailing integer zeros.  A ring element is kept even
    where it is zero: a product with it is a ring element, which gives its
    result content 1, so dropping it would change what mul stores."""
    end = len(nums)
    while end and type(nums[end - 1]) is int and not nums[end - 1]:
        end -= 1
    return nums[:end]


def _runs(nums, den: int) -> list:
    """Cut a numerator list into runs of _BLOCK orders, as (offset, g, run
    divided by g), g = gcd(den, *run) the part of the shared denominator that
    the run does not need; a run holding a ring element has g = 1."""
    runs = []
    for at in range(0, len(nums), _BLOCK):
        run = nums[at : at + _BLOCK]
        g = _content(den, run)
        runs.append((at, g, run if g == 1 else [a // g for a in run]))
    return runs


def _convolve(out: list, at: int, a, b) -> None:
    """out[at + k] += sum_{i + l = k} a[i] * b[l], for every at + k below
    len(out); zero entries of a are skipped."""
    n = len(out)
    for i, x in enumerate(a[: n - at], at):
        if x:
            for k, y in enumerate(b[: n - i], i):
                out[k] += x * y


def _add_product(out: list, at: int, s1: PuiseuxSeries, s2: PuiseuxSeries, f: int) -> None:
    """out[at + k] += f * (x^k coefficient of s1 * s2 over d1 * d2), for
    every at + k below len(out); s1 is the outer factor, whose zeros are
    skipped.

    When both factors reach past _BLOCK orders of out (trailing zeros
    aside), each is convolved run by run, every run divided by its own
    content (_runs), so the low orders are not multiplied at the width the
    highest order needs; each pair of runs that reaches into out adds
    f * g1 * g2 times its partial product, which is then the schoolbook
    convolution, integer for integer.  A short factor, such as a
    recurrence's polynomial coefficient, gains nothing from runs: the
    outer factor is scaled by f and convolved straight into out."""
    n = len(out) - at
    if n <= 0:
        return
    a, b = s1.nums, s2.nums
    if n > _BLOCK:
        a, b = _trimmed(a[:n]), _trimmed(b[:n])
    if n <= _BLOCK or min(len(a), len(b)) <= _BLOCK:
        _convolve(out, at, a if f == 1 else [f * x for x in a[:n]], b)
        return
    end = len(out)
    second = _runs(b, s2.den)
    for p, ga, ra in _runs(a, s1.den):
        for q, gb, rb in second:
            lo = at + p + q
            if lo >= end:
                break
            g = f * ga * gb
            part = [0] * min(end - lo, len(ra) + len(rb) - 1)
            _convolve(part, 0, ra, rb)
            out[lo : lo + len(part)] = [x + g * y for x, y in zip(out[lo:], part)]


def mul_sum(pairs) -> PuiseuxSeries:
    """sum_i s1_i * s2_i over one or more pairs, known through the smallest
    product truncation min(T1 + v2, T2 + v1).

    Every product is convolved into one numerator list over the common
    denominator D = lcm_i(d1_i * d2_i), pair i scaled by its cofactor
    D / (d1_i * d2_i), and the content is divided out once, at the end.  In
    each pair the factor with more zero numerators is the outer one, whose
    zeros the convolution skips (an even factor costs half the products);
    the stored result does not depend on the order.  A pair with a zero
    factor contributes its truncation alone.  An empty iterable of pairs is
    a ValueError."""
    t, live = None, []
    for s1, s2 in pairs:
        end = min(s1.truncation + s2.valuation, s2.truncation + s1.valuation)
        if t is None or end < t:
            t = end
        if s1.nums and s2.nums:
            if s2.nums.count(0) > s1.nums.count(0):
                s1, s2 = s2, s1
            live.append((s1.valuation + s2.valuation, s1.den * s2.den, s1, s2))
    if t is None:
        raise ValueError("mul_sum needs at least one pair of series, got an empty input")
    v, den = t, 1
    for at, d, _, _ in live:
        v, den = min(v, at), lcm(den, d)
    out = [0] * (t - v)
    for at, d, s1, s2 in live:
        _add_product(out, at - v, s1, s2, den // d)
    return _lowest_terms(v, out, den, t)


def mul(s1: PuiseuxSeries, s2: PuiseuxSeries) -> PuiseuxSeries:
    """Product, known through O(x^min(T1 + v2, T2 + v1)): each factor's
    O-term is multiplied by the other factor's leading monomial.  The
    numerators are convolved over the denominator d1 * d2 (mul_sum of the
    one pair)."""
    return mul_sum(((s1, s2),))


def _require_positive_valuation(s: PuiseuxSeries, what: str) -> None:
    if s.truncation < 1:
        raise NonPositiveValuation(
            f"{what} needs the argument known at least through O(x^1)"
        )
    if not s.is_zero and s.valuation <= 0:
        raise NonPositiveValuation(
            f"{what} is only defined for series with positive valuation, "
            f"got valuation {s.valuation}"
        )


def _place(f: list, q: int, m: int, num, den: int) -> int:
    """Store the coefficient num/den as f[m], where f[:m] are numerators
    over the running denominator q, and return the new q.  The fraction is
    put in lowest terms first, and q grows to lcm(q, den), rescaling the
    prefix, only when den does not divide it."""
    g = _content(den, (num,))
    if g != 1:
        num //= g
        den //= g
    if q % den:
        grown = lcm(q, den)
        f[:m] = [grown // q * a for a in f[:m]]
        q = grown
    f[m] = num if den == q else q // den * num
    return q


def exp_series(s: PuiseuxSeries) -> PuiseuxSeries:
    """exp(s) for a series s with positive valuation; truncation preserved.

    Computed through the defining differential equation f' = s' f, whose
    coefficient recurrence m*f_m = sum_{i=1}^{m} i*s_i*f_{m-i} costs O(T^2)
    ring operations and divides only by integers.  With s_i = S_i/D and the
    f so far over a running denominator Q, each order sums the integer
    acc = sum_i i*S_i*F_{m-i} and places f_m = acc/(m*D*Q); Q is the lcm of
    the denominators in lowest terms, so it grows only when one needs it.
    The nonzero products i*S_i are formed once, before the recurrence runs.
    When s lives on the exponents divisible by some step (an even series,
    say), so does exp(s), and the recurrence visits only those orders."""
    _require_positive_valuation(s, "exp_series")
    t = s.truncation
    ds = [(i, i * c) for i, c in enumerate(s.nums, s.valuation) if c]
    step = gcd(*(i for i, _ in ds)) if ds else t
    f = [1] + [0] * (t - 1)
    q = 1
    for m in range(step, t, step):
        acc = 0
        for i, d in ds:
            if i > m:
                break
            acc += d * f[m - i]
        q = _place(f, q, m, acc, m * s.den * q)
    return _from_numerators(0, f, q, t)


def log1p_series(s: PuiseuxSeries) -> PuiseuxSeries:
    """log(1 + s) for a series s with positive valuation; truncation
    preserved.  Uses the recurrence from (1+s) g' = s', the exact inverse
    of the one behind exp_series, on the same running denominator:
    g_m = (m*S_m*Q - sum_{i<m} i*G_i*S_{m-i}) / (m*D*Q)."""
    _require_positive_valuation(s, "log1p_series")
    t = s.truncation
    sd = [0] * t
    sd[s.valuation : t] = s.nums
    g = [0] * t
    q = 1
    for m in range(1, t):
        acc = m * sd[m] * q
        for i in range(1, m):
            if sd[m - i]:
                acc -= i * g[i] * sd[m - i]
        q = _place(g, q, m, acc, m * s.den * q)
    return _from_numerators(0, g, q, t)


class ResponseMarch:
    """The solver's march on integer numerators: the residual r and the
    linear responses b_k = W_0 + sum_j W_j * h_j^k for k = 1, 2, ... (see the
    engine module), in a variable z = n^(-1/e), where h_j = (1 - j z^e)^(-1/e)
    realises n -> n - j: e = 2 in z = x, e = 1 in z = x^2 = 1/n.

    Built from r, W_0 and, for each shift j >= 1, its e seeds W_j * h_j^i,
    i = 0 .. e - 1: W_j and W_j * g_j in x, W_j alone in x^2.  W_0 and the
    seeds are brought once over one common denominator D, as dense
    numerator lists from their lowest valuation; W_0 is kept as its nonzero
    numerators alone (p_0 as a Laurent polynomial, a term or a few).  Step k
    reads b_k only below z^(T - k), T the truncation of r, since z^k * b_k
    is absorbed into r; so every list is cut to that window.  Each shift
    keeps e chains, its last e powers of h_j times W_j, and a step divides
    the oldest by 1 - j z^e, h_j^k = h_j^(k-e) / (1 - j z^e), which is the
    in-place recurrence y_m += j * y_(m-e) on the numerators, a running sum
    per residue class mod e for j = 1 (_divide_unit).  b_k is not stored:
    absorb sums the shifts' newest chains in one pass of integer additions
    over D and adds W_0's few numerators apart, and response sums the same
    at one order.  r stays a dense numerator list over D * rho, rho its own
    part of the denominator: set-up brings r over lcm(den r, D) once, and
    absorbing a_k = p/q grows rho to lcm(rho, q), rescaling r by the ratio
    (1 when q divides rho); its leading zeros walk forward as the solve
    cancels its low orders.
    The solver reads r_o as one integer pair R / (D * rho) (residual_pair)
    and takes b_o from the indicial polynomial, Q(k) / N
    (engine._indicial_polynomial), so a_k = -N R / (Q(k) D rho) and the
    march builds no rational of its own.

    Every response must be known through O(z^(T - 1)), the window of the
    first step; the solver's weights are."""

    __slots__ = (
        "k", "_t", "_low", "_den", "_base", "_chains", "_r", "_rlow", "_rho", "_lead"
    )

    def __init__(self, residual: PuiseuxSeries, base: PuiseuxSeries, seeds: dict):
        parts = [base] + [s for chain in seeds.values() for s in chain]
        t = residual.truncation
        if any(s.truncation < t - 1 for s in parts):
            raise ValueError("a response is not known through the residual's window")
        low = min(s.valuation for s in parts)
        den = lcm(*(s.den for s in parts))
        n = max(0, t - 1 - low)

        def dense(s):
            out = [0] * n
            at = s.valuation - low
            cut = s.nums[: max(0, n - at)]
            out[at : at + len(cut)] = cut if s.den == den else [den // s.den * a for a in cut]
            return out

        self.k = 0
        self._low, self._den, self._t = low, den, t
        self._base = [(i, a) for i, a in enumerate(dense(base)) if a]
        self._chains = [(j, [dense(s) for s in chain]) for j, chain in seeds.items()]
        # r is stored from an order no higher than any response reaches, over
        # D * rho.
        self._rlow = rlow = min(residual.valuation, low + 1)
        rden = lcm(residual.den, den)
        self._rho = rden // den
        f = rden // residual.den
        self._r = [0] * (residual.valuation - rlow) + [f * a for a in residual.nums]
        self._lead = residual.valuation - rlow

    @property
    def valuation(self) -> int:
        """The valuation of r (its truncation once r is zero)."""
        return self._rlow + self._lead

    def advance(self) -> None:
        """Step k to k + 1: cut every chain to the window of that step, and
        divide each shift's oldest chain into its newest."""
        self.k = k = self.k + 1
        n = max(0, self._t - k - self._low)
        for j, chains in self._chains:
            e = len(chains)
            if k >= e:
                y = chains.pop(0)
                del y[n:]
                _divide_unit(y, j, e, e)
                chains.append(y)

    def _beyond(self, order: int) -> None:
        if order >= self._t:
            raise ValueError(f"coefficient of x^{order} is beyond O(x^{self._t})")

    def residual_pair(self, order: int) -> tuple:
        """The coefficient of x^order in r as integers (R, D * rho), the
        denominator positive: r's numerator there and its common
        denominator, not in lowest terms."""
        self._beyond(order)
        i = order - self._rlow
        return (self._r[i] if i >= self._lead else 0), self._den * self._rho

    def response(self, order: int):
        """The coefficient of x^order in x^k * b_k, summed at that order
        alone, for a step k >= 1."""
        self._beyond(order)
        i = order - self._low - self.k
        if i < 0:
            return Rational(0)
        total = sum(chains[-1][i] for _, chains in self._chains)
        return _value(total + sum(w for at, w in self._base if at == i), self._den)

    def absorb(self, p: int, q: int) -> None:
        """r += (p / q) * x^k * b_k, through r's truncation; q > 0."""
        r, rho = self._r, self._rho
        grown = lcm(rho, q)
        c = p * (grown // q)
        off = self._low + self.k - self._rlow
        # The sum inside b_k, lazily: one integer addition per entry and
        # shift past the first, W_0 aside.
        b = reduce(partial(map, operator.add), [chains[-1] for _, chains in self._chains])
        # r is zero below its lead, so only r[lo:] can change.
        lo = min(self._lead, off)
        f = grown // rho
        r[lo:off] = [f * x for x in r[lo:off]]
        r[off:] = [f * x + c * y for x, y in zip(r[off:], b)]
        self._rho = grown
        n = len(r) - off
        for i, w in self._base:
            if i >= n:
                break
            r[off + i] += c * w
        while lo < len(r) and not r[lo]:
            lo += 1
        self._lead = lo


def _divide_unit(y: list, j: int, e: int, start: int) -> None:
    """Divide y[start - e:], numerators of a series in z, by 1 - j z^e in
    place: y_m += j * y_(m-e) for m >= start, start >= e.  For j = 1 that is
    a running sum over each residue class mod e (one slice when e = 1),
    which accumulate does at C speed; larger j keep the loop."""
    if j != 1:
        for m in range(start, len(y)):
            y[m] += j * y[m - e]
    else:
        for q in range(start - e, start):
            y[q::e] = accumulate(y[q::e])


def _horner_u2(coeffs, j: int) -> list:
    """sum_m coeffs[m] * (u^2)^m, u^2 = x^2 / (1 - j*x^2), in powers of x^2
    through the (len(coeffs) - 1)-th, by Horner's rule from the last nonzero
    coefficient.  A step shifts by one power of x^2 and divides the shifted
    part, from index 1 on, by 1 - j*x^2 in place, as the march does
    (_divide_unit): small integers times numerators, or running sums for
    j = 1."""
    n, top = len(coeffs), _trimmed(coeffs)
    y = top[-1:]
    for m in range(len(top) - 2, -1, -1):
        y = [coeffs[m], *y, *[0] * (n - m - 1 - len(y))]
        _divide_unit(y, j, 1, 2)
    return y


def _central_binomials(j: int, n: int) -> list:
    """h_b = binomial(2b, b) * j^b for b < n: (1 - j*x^2)^(-1/2) has
    h_b / 4^b at x^(2b)."""
    return [comb(2 * b, b) * j**b for b in range(n)]


@lru_cache(maxsize=32)
def shift_unit(j: int, T: int) -> PuiseuxSeries:
    """g_j = (1 - j*x^2)^(-1/2) = u_j/x through O(x^T), built by from_terms
    from its closed form h_b / 4^b at x^(2b) (_central_binomials), which is
    what compose_shift(x, j).x_shift(-1) stores for x known through
    O(x^(T+1)).  Memoized per (j, T) alone, so that recurrences with the
    same shift and window share one series."""
    hs = _central_binomials(j, (T + 1) // 2)
    return PuiseuxSeries.from_terms({2 * b: Rational(h, 4**b) for b, h in enumerate(hs)}, T)


def compose_shift(s: PuiseuxSeries, j: int, r: int = 2) -> PuiseuxSeries:
    """Substitute z -> z * (1 - j*z^r)^(-1/r) into a power series s in
    z = n^(-1/r): x -> u = x * (1 - j*x^2)^(-1/2) in x (r = 2), and
    y -> y / (1 - j*y) in y = x^2 = 1/n (r = 1).

    This is exactly how a series in n^(-1/r) transforms under n -> n - j,
    so it realises the index shift on the slowly varying factor of an
    expansion.  Valuation and truncation are preserved.  Laurent input is
    rejected: negative powers would leave the power series ring.

    In y the substitution is Horner's rule on the numerators over d
    (_horner_u2, with y for x^2), an integer map with unit diagonal, so the
    content of s, and the denominator, are kept.  In x, with E and O the
    even and odd coefficients of s, s(u) = E(u^2) + x * g * O(u^2),
    g = (1 - j*x^2)^(-1/2): Horner's rule gives E(u^2) and O(u^2), and the
    one product, O(u^2) times g, is over d * 4^I, I = T // 2 the number of
    odd orders, and the result is put in lowest terms."""
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise ValueError(f"shift must be a positive integer, got {j!r}")
    if r not in (1, 2):
        raise ValueError(f"ramification must be 1 or 2, got {r!r}")
    if s.valuation < 0:
        raise NegativeValuation(
            f"shift substitution needs a power series, got valuation {s.valuation}"
        )
    t = s.truncation
    c = [0] * s.valuation + list(s.nums)
    if r == 1:
        out = _horner_u2(c, j)
        return _from_numerators(0, out + [0] * (t - len(out)), s.den, t)
    even, odd = _horner_u2(c[0::2], j), _horner_u2(c[1::2], j)
    # g's x^(2b) coefficient is h_b / 4^b, so over 4^I x^(2i+1) gets
    # 4^(I-i) * sum_(a+b=i) 4^a * O_a * h_b: narrower integers than 4^I * g.
    four = [4**i for i in range(t // 2 + 1)]
    odd_part = [0] * (t // 2)
    _convolve(odd_part, 0, [f * a for f, a in zip(four, odd)], _central_binomials(j, t // 2))
    out = [0] * t
    out[0 : 2 * len(even) : 2] = [four[-1] * a for a in even]
    out[1::2] = [f * a for f, a in zip(four[:0:-1], odd_part)]
    return _lowest_terms(s.valuation, out[s.valuation :], s.den * four[-1], t)
