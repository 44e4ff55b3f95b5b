"""Big-float evaluation, ratio checks, connection constant, formatting."""

import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_int, from_man_exp, from_rational, fzero, round_nearest, to_str

from recasymp import (
    INV_SQRT2,
    Expansion,
    Frame,
    PrecisionUnachievable,
    Rational,
    Recurrence,
    TruncationDominates,
    a85_recurrence,
    connection_constant,
    eval_expansion,
    format_significant,
    ratio_check,
    solve_expansion,
    truncation_floor_digits,
    working_dps,
)
from recasymp import evaluate
from recasymp.evaluate import (
    _GUARD_DIGITS, _context, _correction_sum, _raw, recessive_floor_digits,
)
from recasymp.involutions import involution_number


@pytest.fixture(scope="module")
def a85_k25(a85, a85_fr):
    return solve_expansion(a85, a85_fr, 25)


@pytest.fixture(scope="module")
def k25_expansions(a85_k25):
    """a85 and two frames with alpha != 0: the factorial t(n) = n t(n-1)
    and Catalan gauged by hand to t = 4^n u."""
    return {
        "a85": a85_k25,
        "factorial": solve_expansion(Recurrence([[1], [0, -1]]), Frame(1, 0, "1/2"), 25),
        "catalan": solve_expansion(Recurrence([[4, 4], [2, -4]]), Frame(0, 0, "-3/2"), 25),
    }


# -- formatting -----------------------------------------------------------------


@pytest.mark.parametrize(
    "value,digits,expected",
    [
        (mpf(0), 5, "0"),
        (mpf("2.5"), 1, "3"),
        (mpf(200000), 1, "2e5"),
        (mpf("9.99e5"), 2, "1.0e6"),
        (mpf("-9.99e5"), 2, "-1.0e6"),
        (mpf("99.99"), 2, "1.0e2"),
        (mpf("0.999999"), 3, "1.00"),
        (mpf("1.5"), 3, "1.50"),
        (mpf("9.999e-7"), 3, "1.00e-6"),
        (mpf("0.0001234"), 3, "0.000123"),
        (mpf("1e-4"), 3, "0.000100"),
        (mpf("123.456"), 4, "123.5"),
        (mpf("123.456"), 6, "123.456"),
        (mpf("123.456"), 2, "1.2e2"),
        (mpf("0.70710678"), 5, "0.70711"),
        (mpf("-0.5"), 2, "-0.50"),
        (mpf("-0.0099"), 2, "-0.0099"),
        # Exact ints, rounded once: past 4300 digits, Python's int-to-str
        # limit, too.
        (0, 5, "0"),
        (12345, 3, "1.23e4"),
        (-987654321, 4, "-9.877e8"),
        (123, 5, "123.00"),
        pytest.param(10**5000 - 1, 3, "1.00e5000", id="int-carried-past-4300-digits"),
        pytest.param(-(2**20000), 7, "-3.980277e6020", id="int-past-4300-digits"),
    ],
)
def test_format_significant(value, digits, expected):
    assert format_significant(value, digits) == expected


def test_format_significant_renders_as_nstr(monkeypatch):
    # format_significant hands the raw tuple to libmp's to_str, which is
    # what mpmath.nstr does after its dispatch: seeded mpfs of both signs,
    # binary exponents past the 3500 bits where to_digits_exp switches to
    # high-precision powers of ten, and d + 1 nines rounded to d digits,
    # which carry into the exponent.
    rng = random.Random(23)
    cases = []
    for _ in range(150):
        bits = rng.randint(1, 200)
        man = rng.getrandbits(bits) | 1 << (bits - 1) | 1  # odd: normalized
        x = mpmath.mp.make_mpf((rng.getrandbits(1), man, rng.randint(-9000, 9000), bits))
        cases.append((x, rng.randint(1, 40)))
    with mpmath.workdps(80):
        for e in (-2000, -7, -1, 0, 3, 25, 2000):
            d = rng.randint(1, 30)
            nines = (1 - mpf(10) ** -(d + 1)) * mpf(10) ** e
            cases += [(nines, d), (-nines, d)]
    got = [format_significant(x, d) for x, d in cases]
    assert any("e" in g and abs(int(g.partition("e")[2])) > 1100 for g in got)
    assert all(set(g.partition("e")[0]) <= set("-0.1") for g in got[150:])  # carried
    def nstr(raw, *args, **kwargs):
        return mpmath.nstr(mpmath.mp.make_mpf(raw), *args, **kwargs)

    monkeypatch.setattr(evaluate, "to_str", nstr)
    assert [format_significant(x, d) for x, d in cases] == got


def _layout_reference(x, digits):
    """format_significant as it once laid out the digits by hand: to_str in
    scientific notation always, then fixed for -4 <= e < digits."""
    raw = _raw(x, _context(digits + _GUARD_DIGITS).prec) if isinstance(x, int) else x._mpf_
    if raw == fzero:
        return "0"
    rendered = to_str(raw, digits, strip_zeros=False, min_fixed=1, max_fixed=0,
                      show_zero_exponent=True)
    sign = ""
    if rendered.startswith("-"):
        sign, rendered = "-", rendered[1:]
    mantissa, _, exponent = rendered.partition("e")
    e = int(exponent)
    body = mantissa.replace(".", "")
    if -4 <= e < 0:
        return sign + "0." + "0" * (-e - 1) + body
    if 0 <= e < digits:
        head, tail = body[: e + 1], body[e + 1 :]
        return sign + head + ("." + tail if tail else "")
    tail = body[1:]
    return f"{sign}{body[0]}{'.' + tail if tail else ''}e{e}"


def test_format_significant_lays_out_digits_as_the_hand_layout_did():
    # to_str's own switch (fixed for -5 < e < digits) against the hand
    # layout: decimal exponents at both edges of the fixed range, e = -5,
    # -4, digits - 1 and digits, reached directly and by a carried 9.99...,
    # both signs, seeded binary exponents, and ints past 4300 digits.
    rng = random.Random(38)
    cases = []
    with mpmath.workdps(60):
        for _ in range(120):
            digits = rng.randint(1, 40)
            for e in (-6, -5, -4, -3, 0, digits - 2, digits - 1, digits, digits + 1):
                sign = rng.choice((1, -1))
                head = mpf(rng.randint(10**44, 10**45 - 1)) * mpf(10) ** (e - 44)
                nines = (1 - mpf(10) ** -(digits + 1)) * mpf(10) ** (e + 1)
                cases += [(sign * head, digits), (sign * nines, digits)]
    for _ in range(300):
        bits = rng.randint(1, 120)
        man = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        x = mpmath.mp.make_mpf((rng.getrandbits(1), man, rng.randint(-300, 300), bits))
        cases.append((x, rng.randint(1, 40)))
    for size in (1, 2, 5, 17, 40, 41, 4301, 5000):
        digits = rng.randint(1, 40)
        cases += [(10**size - 1, digits), (-(10**size) + 1, digits),
                  (rng.randrange(10 ** (size - 1), 10**size), digits), (0, digits)]
    got = [format_significant(x, d) for x, d in cases]
    assert got == [_layout_reference(x, d) for x, d in cases]
    # Each edge of the fixed range was reached from both sides: e = -5 and
    # e = digits scientific, e = -4 and e = digits - 1 (no point) fixed.
    bodies = [(g.lstrip("-"), d) for g, (_, d) in zip(got, cases)]
    assert any(g.endswith("e-5") for g, _ in bodies)
    assert any(g.startswith("0.000") and g[5] != "0" for g, _ in bodies)
    assert any(d > 1 and g.endswith(f"e{d}") for g, d in bodies)
    assert any(d > 1 and g.isdigit() and len(g) == d for g, d in bodies)
    assert any("e" in g for g, _ in bodies[-32:])


def test_format_significant_needs_a_digit():
    with pytest.raises(ValueError):
        format_significant(mpf(1), 0)


def test_format_significant_is_deterministic():
    x = mpf("0.1") / 3
    assert format_significant(x, 12) == format_significant(x, 12)


# -- precision policy --------------------------------------------------------------


def test_working_dps_follows_exponent_magnitude(a85_fr):
    # |E(1000)| ~ 2985 -> 4 extra digits on top of digits + 10.
    assert working_dps(a85_fr, 1000, 20) == 34
    assert working_dps(a85_fr, 4, 5) == 16
    with pytest.raises(ValueError):
        working_dps(a85_fr, 1000, 0)


def test_working_dps_is_bounded(a85_fr):
    with pytest.raises(PrecisionUnachievable):
        working_dps(a85_fr, 1000, 10**6)
    with pytest.raises(PrecisionUnachievable):
        working_dps(a85_fr, 10**(10**6), 10)


def test_working_dps_beyond_float_range(a85_fr):
    # From about n = 2.5e305 the float n log n is inf, from 1.8e308 n
    # itself overflows; the logarithmic bound takes over without a drop.
    below = working_dps(a85_fr, 10**305, 10)
    assert below == 10 + 10 + 308
    assert below <= working_dps(a85_fr, 10**306, 10) <= below + 2
    assert working_dps(a85_fr, 10**400, 10) == 10 + 10 + 404
    assert working_dps(Frame(0, 0, 0), 10**400, 10) == 20


def test_truncation_floor_digits():
    assert truncation_floor_digits(1000, 1) == 1
    assert truncation_floor_digits(1000, 30) == 44
    assert truncation_floor_digits(10, 30) == 13
    assert truncation_floor_digits(10000, 30) == 60


@pytest.mark.parametrize("n", [1, 2, 10, 50, 1000, 2500, 10**4, 99991, 10**5, 10**12, 10**400])
def test_recessive_floor_digits(n):
    # floor(2 sqrt n log10 e - log10 2), in mpmath at 60 digits past the
    # integer part: 0 at n = 1 and 2, 2 at n = 10, 5 at n = 50.  Past
    # n = 10^12 the 22-decimal logarithms may round it down, never up.
    ctx = MPContext()
    ctx.dps = len(str(n)) // 2 + 60
    want = int(ctx.floor(2 * ctx.sqrt(n) * ctx.log10(ctx.e) - ctx.log10(2)))
    got = recessive_floor_digits(n)
    assert got == want if n <= 10**12 else 0 <= want - got <= want // 10**20


# -- eval_expansion ------------------------------------------------------------------


def test_eval_frozen_k1(a85_k25):
    value = eval_expansion(a85_k25, INV_SQRT2, 1000, 1, 20)
    assert format_significant(value, 20) == "2.1441496003431008422e1296"


def test_eval_bare_frame_small_n(a85_k25):
    # t_4 = 10; the bare frame gives 16 e^(-1/4) / sqrt(2) = 8.8111...
    value = eval_expansion(a85_k25, INV_SQRT2, 4, 0, 5)
    assert format_significant(value, 5) == "8.8111"


def test_eval_validates_arguments(a85_k25):
    with pytest.raises(ValueError):
        eval_expansion(a85_k25, INV_SQRT2, 1000, 26, 20)
    with pytest.raises(ValueError):
        eval_expansion(a85_k25, INV_SQRT2, 1000, -1, 20)
    with pytest.raises(ValueError):
        eval_expansion(a85_k25, INV_SQRT2, 0, 1, 20)


def test_eval_constant_scales_linearly(a85_k25):
    base = eval_expansion(a85_k25, 1, 100, 5, 25)
    scaled = eval_expansion(a85_k25, "3/2", 100, 5, 25)
    assert abs(scaled / base - mpf(3) / 2) < mpf(10) ** -24


def test_eval_sentinel_constant(a85_k25):
    base = eval_expansion(a85_k25, 1, 100, 5, 25)
    halved = eval_expansion(a85_k25, INV_SQRT2, 100, 5, 25)
    mpmath.mp.dps = 30
    try:
        assert abs(halved * mpmath.sqrt(2) / base - 1) < mpf(10) ** -24
    finally:
        mpmath.mp.dps = 15


def test_eval_rejects_float_constant(a85_k25):
    with pytest.raises(TypeError):
        eval_expansion(a85_k25, 0.7071, 100, 5, 20)


def test_values_keep_their_working_precision(a85_k25):
    # Contexts are shared per precision and never re-precisioned, so a
    # value made at 20 digits is still at its dps after a 40-digit one.
    values = [eval_expansion(a85_k25, INV_SQRT2, 1000, 5, d) for d in (20, 40, 20)]
    want = [working_dps(a85_k25.frame, 1000, d) for d in (20, 40, 20)]
    assert [v.context.dps for v in values] == want
    assert values[0].context is values[2].context is _context(want[0])
    assert 0 < _context.cache_info().maxsize <= 64


def test_precision_honesty(a85_k25):
    # Doubling the requested digits must not move the first 20.
    lo = eval_expansion(a85_k25, INV_SQRT2, 1000, 5, 20)
    hi = eval_expansion(a85_k25, INV_SQRT2, 1000, 5, 40)
    assert format_significant(lo, 20) == format_significant(hi, 20)


def _nearest(p: int, q: int, prec: int) -> Fraction:
    """p/q (both positive) rounded to prec bits, ties to even, by exact
    integer division."""
    e = p.bit_length() - q.bit_length() - prec
    while True:
        num, den = (p << -e, q) if e < 0 else (p, q << e)
        m, r = divmod(num, den)
        if m < 1 << prec:
            break
        e += 1
    if 2 * r > den or (2 * r == den and m & 1):
        m += 1
    return Fraction(m) * Fraction(2) ** e


def test_to_mpf_rounds_the_quotient_once():
    # _raw: numerator and denominator wider than the precision: rounding
    # each first and then dividing misses the nearest value in the last bit
    # for about a third of such pairs.
    ctx = _context(20)
    rng = random.Random(20)
    for _ in range(60):
        p, q = rng.getrandbits(200) | 1 << 199, rng.getrandbits(190) | 1 << 189
        x = ctx.make_mpf(_raw(Rational(p, q), ctx.prec))
        assert x.context is ctx
        assert Fraction(int(x.man)) * Fraction(2) ** int(x.exp) == _nearest(p, q, ctx.prec)
    assert ctx.make_mpf(_raw("-3/4", ctx.prec)) == mpf(-3) / 4
    for inexact in (0.75, True):
        with pytest.raises(TypeError):
            _raw(inexact, ctx.prec)


def test_to_mpf_rounds_an_integer_once():
    # _raw: an exact t_n ends in many zero bits (2500 of 59369 at
    # n = 10^4); it is rounded straight to the precision, to the nearest
    # value, which is also what ctx.mpf gives after making the integer
    # exact first.
    ctx = _context(20)
    rng = random.Random(21)
    wide = [rng.getrandbits(300) | 1 << 299 for _ in range(40)]
    top = 1 << ctx.prec
    ties = [(2 * m + 1) << s for m in (top // 2, top - 1) for s in (0, 9)]
    values = [involution_number(n) for n in (1000, 2500, 10**4)]
    values += [w | 1 for w in wide] + [w & ~1 for w in wide] + ties
    for t in values:
        x = ctx.make_mpf(_raw(t, ctx.prec))
        assert x.context is ctx
        assert Fraction(int(x.man)) * Fraction(2) ** int(x.exp) == _nearest(t, 1, ctx.prec)
        assert x == ctx.mpf(t)
        assert ctx.make_mpf(_raw(-t, ctx.prec)) == -x
    for flag in (True, False):
        with pytest.raises(TypeError):
            _raw(flag, ctx.prec)


def _reference(exp, n, k, dps):
    """The frame value and the correction sum at n, each from the exact
    rationals by plain mpf arithmetic, in a context of its own at dps
    digits."""
    ref = MPContext()
    ref.dps = dps

    def to_ref(v):
        return ref.mpf(int(v.numerator)) / int(v.denominator)

    fr = exp.frame
    log_n = ref.log(n)
    frame_value = ref.exp(
        to_ref(fr.beta) * (n * log_n - n)
        + to_ref(fr.c) * ref.sqrt(n)
        + to_ref(fr.alpha) * log_n
        + to_ref(fr.kappa)
    )
    total = ref.fsum(
        to_ref(exp.coefficient(i)) * ref.power(n, -ref.mpf(i) / 2) for i in range(k + 1)
    )
    return ref, frame_value, total


@pytest.mark.parametrize(
    "name, n, k",
    [
        # The a85 cases keep their bare k-n ids.
        pytest.param(name, n, k, id=f"{k}-{n}" + ("" if name == "a85" else f"-{name}"))
        for name in ("a85", "factorial", "catalan")
        for n in (4, 1000, 10**4, 10**50)
        for k in (0, 1, 2, 17, 25)
    ],
)
def test_eval_matches_an_independent_reference(k25_expansions, name, n, k):
    exp = k25_expansions[name]
    digits = 20
    dps = working_dps(exp.frame, n, digits)
    value = eval_expansion(exp, 1, n, k, digits)
    bare = eval_expansion(exp, 1, n, 0, digits)
    assert value.context is bare.context is _context(dps)
    ref, frame_value, total = _reference(exp, n, k, 2 * dps)
    # The correction sum is good to the working precision.  Dividing by
    # the bare frame, computed by the same steps, isolates it.
    assert abs(ref.mpf(value / bare) / total - 1) < ref.mpf(10) ** -(dps - 3)
    # The whole value keeps the requested digits and most guard digits:
    # the working precision beyond them pays for the exponent's magnitude.
    whole = frame_value * total
    assert abs(ref.mpf(value) / whole - 1) < ref.mpf(10) ** -(digits + _GUARD_DIGITS - 2)


@pytest.mark.parametrize(
    "m", [1, 2, 3, 100, 10**25, 10**2000], ids=["1", "2", "3", "100", "10^25", "10^2000"]
)
@pytest.mark.parametrize("k", [0, 1, 2, 17, 25])
def test_correction_sum_stays_within_its_bound(a85_k25, m, k):
    # At n = m^2, x = 1/m is exact: with D the lcm of the denominators of
    # a_0 .. a_k, the partial sums are h_i = N_i / (D m^(k-i)) for integers
    # N_i, so the sum is N_0 / scale, scale = D m^k, and the bound of
    # k (2 + M) units of 2^-W, M = max |h_i| x^(i-1), is `units` / scale.
    n = m * m
    a = [a85_k25.coefficient(i) for i in range(k + 1)]
    D = math.lcm(*(int(c.denominator) for c in a))
    N = [0] * (k + 2)
    for i in range(k, -1, -1):
        N[i] = int(a[i].numerator) * (D // int(a[i].denominator)) * m ** (k - i) + N[i + 1]
    scale = D * m**k
    units = k * (2 * scale + m * max((abs(v) for v in N[1 : k + 1]), default=0))
    digits = 20
    prec = _context(working_dps(Frame(0, 0, 0), n, digits)).prec
    acc, W = _correction_sum(a, n, prec)
    assert abs(acc * scale - (N[0] << W)) <= units
    # Under the frame 1 and C = 1 the value is the sum, rounded once.
    value = eval_expansion(Expansion(Frame(0, 0, 0), a85_k25.a), 1, n, k, digits)
    man, e = int(value.man), int(value.exp)  # value.man is |mantissa|
    got = Fraction(-man if value < 0 else man) * Fraction(2) ** e
    half_ulp = Fraction(2) ** (e + man.bit_length() - prec - 1)
    assert abs(got * scale - N[0]) <= Fraction(units, 1 << W) + half_ulp * scale


def _to_mpf(ctx, q):
    """_raw(q) at the context's precision, as one of its mpf values."""
    return ctx.make_mpf(_raw(q, ctx.prec))


def _context_level(exp, C, n, k, digits):
    """eval_expansion by the working context's methods and mpf operators:
    the rounding steps that the raw-tuple evaluation mirrors bit for bit."""
    ctx = _context(working_dps(exp.frame, n, digits))
    fr = exp.frame
    frame_value = ctx.exp(
        _to_mpf(ctx, fr.beta * n + fr.alpha) * ctx.log(n)
        + _to_mpf(ctx, fr.c) * ctx.sqrt(n)
        + _to_mpf(ctx, fr.kappa - fr.beta * n)
    )
    acc, W = _correction_sum([exp.coefficient(i) for i in range(k + 1)], n, ctx.prec)
    s = ctx.make_mpf(from_man_exp(acc, -W, ctx.prec, round_nearest))
    constant = 1 / ctx.sqrt(2) if C is INV_SQRT2 else _to_mpf(ctx, C)
    return constant * frame_value * s


@pytest.mark.parametrize("name", ["a85", "factorial", "catalan"])
def test_eval_is_bit_identical_to_the_context_level_formula(k25_expansions, name):
    # Seeded digits vary the precision from case to case: at one precision
    # a changed order of roundings can go unseen on the whole grid.
    exp = k25_expansions[name]
    rng = random.Random(name)
    for n in (1, 2, 10**3, 10**4, 10**50, 10**400):
        for k in (0, 1, 17, exp.K):
            for C in (INV_SQRT2, 1, "3/7"):
                digits = rng.randint(5, 40)
                got = eval_expansion(exp, C, n, k, digits)
                want = _context_level(exp, C, n, k, digits)
                assert got.context is want.context
                assert got._mpf_ == want._mpf_, (n, k, C, digits)


@pytest.mark.parametrize("n", [1, 2, 10**3, 10**4])
def test_checks_are_bit_identical_to_the_context_level_formula(a85, a85_k25, n):
    for k in (0, 1, 17, a85_k25.K):
        report = ratio_check(n, k, 20, expansion=a85_k25)
        asy = _context_level(a85_k25, INV_SQRT2, n, k, 20)
        exact = _to_mpf(asy.context, involution_number(n))
        assert [v._mpf_ for v in (report.asy, report.exact, report.ratio)] == [
            v._mpf_ for v in (asy, exact, asy / exact)
        ]
        digits = min(20, truncation_floor_digits(n, k), recessive_floor_digits(n))
        if digits >= 1:
            got = connection_constant(a85, a85_k25, n, k, digits)
            denominator = _context_level(a85_k25, 1, n, k, digits)
            want = _to_mpf(denominator.context, involution_number(n)) / denominator
            assert got.context is want.context
            assert got._mpf_ == want._mpf_, (n, k)


def _from_exact(ctx, q):
    """An exact Fraction or int as an mpf of ctx, rounded once by libmp:
    from_int for an integer, from_rational otherwise."""
    q = Fraction(q)
    p, d, prec = q.numerator, q.denominator, ctx.prec
    raw = from_int(p, prec, round_nearest) if d == 1 else from_rational(p, d, prec, round_nearest)
    return ctx.make_mpf(raw)


def _exact_reference(exp, C, n, k, digits):
    """eval_expansion rebuilt from exact Fractions: the exponent inputs
    formed by Fraction arithmetic and rounded by libmp, the fixed-point
    correction sum written out again, then the context's operators."""
    ctx = _context(working_dps(exp.frame, n, digits))
    fr = exp.frame
    frame_value = ctx.exp(
        _from_exact(ctx, fr.beta * n + fr.alpha) * ctx.log(n)
        + _from_exact(ctx, fr.c) * ctx.sqrt(n)
        + _from_exact(ctx, fr.kappa - fr.beta * n)
    )
    W = ctx.prec + (k + 1).bit_length() + 4
    X = math.isqrt((1 << 2 * W) // n)
    acc = 0
    for a in reversed([Fraction(1), *exp.a[:k]]):
        acc = (acc * X >> W) + (a.numerator << W) // a.denominator
    s = ctx.make_mpf(from_man_exp(acc, -W, ctx.prec, round_nearest))
    constant = 1 / ctx.sqrt(2) if C is INV_SQRT2 else _from_exact(ctx, Fraction(C))
    return constant * frame_value * s


def test_eval_on_random_frames_is_bit_identical_to_exact_rationals():
    # Frames with negative beta, c, alpha and kappa and denominators 1..7,
    # n up to 10^400, and each kind of C, at seeded precisions.
    rng = random.Random(41)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    for _ in range(150):
        frame = Frame(draw(), draw(), draw(), draw())
        exp = Expansion(frame, [draw() for _ in range(6)])
        n = rng.choice([1, 2, rng.randint(3, 10**6), 10**50 + rng.randint(0, 99),
                        10**400 - rng.randint(0, 99)])
        k = rng.randint(0, exp.K)
        C = rng.choice([INV_SQRT2, rng.randint(-50, 50), draw(),
                        f"{rng.randint(-50, 50)}/{rng.randint(1, 7)}"])
        digits = rng.randint(5, 40)
        got = eval_expansion(exp, C, n, k, digits)
        want = _exact_reference(exp, C, n, k, digits)
        assert got.context is want.context
        assert got._mpf_ == want._mpf_, (frame, n, k, C, digits)
        for inexact in (True, 1.0):
            with pytest.raises(TypeError):
                _raw(inexact, got.context.prec)


# -- ratio_check ----------------------------------------------------------------------


def test_ratio_report_frozen_json():
    report = ratio_check(1000, 1, 20)
    assert report.to_json_dict() == {
        "n": 1000,
        "k": 1,
        "asy": "2.1441496003431008422e1296",
        "ratio": "1.0001029168902448312",
        "digits": 20,
    }


def test_ratio_k0_error_is_leading_term(a85_k25):
    # |ratio - 1| should be a_1 / sqrt(1000) up to the next correction.
    report = ratio_check(1000, 0, 10, expansion=a85_k25)
    lead = mpf(7) / 24 / mpf(1000) ** mpf("0.5")
    assert abs(abs(report.ratio - 1) - lead) < lead / 10


def test_ratio_improves_until_second_solution_floor(a85_k25):
    # The error drops with k until the exponentially small recessive
    # solution (relative size ~ e^(-2 sqrt(n)) ~ 1e-27.5 at n = 1000)
    # dominates; below that the expansion cannot see anything.
    errors = [
        abs(ratio_check(1000, k, 50, expansion=a85_k25).ratio - 1)
        for k in range(26)
    ]
    floor = mpf(10) ** -26
    for k in range(25):
        assert errors[k + 1] <= errors[k] or errors[k + 1] <= floor
    assert mpf(10) ** -29 <= errors[25] <= mpf(10) ** -27


def test_ratio_checks_in_threads_match_serial(a85_k25):
    # Two precisions at once, two threads each: each precision has its own
    # context, and the shared t_n memo hands every thread the same integer.
    args = [(1000, 12, 20), (1000, 12, 45)]
    serial = [ratio_check(*a, expansion=a85_k25).to_json_dict() for a in args]
    got = [None] * 4
    start = threading.Barrier(4)

    def work(i):
        start.wait()
        for _ in range(20):
            got[i] = ratio_check(*args[i % 2], expansion=a85_k25).to_json_dict()
            if got[i] != serial[i % 2]:
                return

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial * 2


def test_ratio_uses_supplied_expansion(a85_k25):
    a = ratio_check(500, 10, 20, expansion=a85_k25)
    b = ratio_check(500, 10, 20)
    assert format_significant(a.ratio, 20) == format_significant(b.ratio, 20)


# -- connection constant -----------------------------------------------------------------


def test_connection_constant_matches_inv_sqrt2(a85, a85_k25):
    got = connection_constant(a85, a85_k25, 2500, 20, 20)
    mpmath.mp.dps = 30
    try:
        assert abs(got - 1 / mpmath.sqrt(2)) < mpf(10) ** -20
    finally:
        mpmath.mp.dps = 15


def test_connection_constant_is_stable_in_n(a85, a85_k25):
    c1 = connection_constant(a85, a85_k25, 2000, 20, 20)
    c2 = connection_constant(a85, a85_k25, 2500, 20, 20)
    assert abs(c1 - c2) < mpf(10) ** -25


def test_connection_constant_sees_kappa(a85, a85_k25):
    # With kappa = 0 the frame loses its e^(-1/4) factor, and the estimate
    # absorbs it: C = e^(-1/4)/sqrt(2).
    fr0 = Frame("1/2", 1, 0, 0)
    exp0 = Expansion(fr0, a85_k25.a)
    got = connection_constant(a85, exp0, 2500, 20, 20)
    assert format_significant(got, 20) == "0.55069531490318374762"
    mpmath.mp.dps = 30
    try:
        want = mpmath.exp(mpf(-1) / 4) / mpmath.sqrt(2)
        assert abs(got - want) < mpf(10) ** -20
    finally:
        mpmath.mp.dps = 15


def test_connection_constant_refuses_beyond_floor(a85, a85_k25):
    with pytest.raises(TruncationDominates) as info:
        connection_constant(a85, a85_k25, 10, 25, 30)
    assert info.value.requested_digits == 30
    # The expansion would support 11 digits, but t_10 carries the recessive
    # solution at e^(-2 sqrt 10) = 1.8e-3 relative: 2 digits.
    assert info.value.floor_digits == 2


def test_connection_constant_needs_known_sequence(a85_k25):
    from recasymp import Recurrence

    with pytest.raises(ValueError):
        connection_constant(Recurrence([[1], [0, -1]]), a85_k25, 100, 5, 10)
