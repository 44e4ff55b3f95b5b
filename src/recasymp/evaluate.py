"""High-precision numeric evaluation of solved expansions.

The exact layer produces a frame F and correction coefficients a_k; turning
those into decimal digits of t_n means evaluating

    C * exp(beta*(n log n - n) + c*sqrt(n) + alpha*log n + kappa)
      * (1 + a_1 n^(-1/2) + ... + a_k n^(-k/2))

in big-float arithmetic.  The correction sum runs Horner's rule in fixed
point on plain ints and is rounded once (see _correction_sum for its
bound).  Exact rationals (beta*n + alpha and kappa - beta*n in the
exponent, c, a rational C, the exact t_n) become raw mpf tuples through
_raw, correctly rounded once each.

One rounding path runs on mpmath.libmp's raw tuples (used here alone):
each step is the libmp call that the context-level formula's method or
operator makes, at the context's prec with round_nearest, so each value is
that formula's bit for bit, less its conversions and dispatch: mpf_log,
mpf_sqrt and mpf_exp of from_int(n) (exact, as ctx.convert makes it) for
ctx.log, ctx.sqrt and ctx.exp of n; mpf_mul, mpf_add and mpf_div for *, +
and /; mpf_rdiv_int for 1 / ctx.sqrt(2); to_str for mpmath.nstr, whose
own fixed/scientific switch lays out format_significant's digits;
ctx.make_mpf once per value handed out.

Each working precision has one mpmath context, built on first use and
shared by every evaluation at that precision.  No code sets a context's
precision after it is made, so a returned value keeps the precision it was
computed at, and callers at different precisions never share mutable state
(nor touch mpmath's global one).  The checks that divide by an exact value
reuse the evaluation's context.  The working precision follows one
policy: the requested digits, plus ten guard digits, plus one digit for
every decimal order of magnitude of the exponent argument (exponentiation
turns absolute error of the argument into relative error of the result, so
huge exponents eat digits).

Truncation error is a separate matter from rounding error: an expansion
truncated at k terms knows t_n to roughly (k+1)/2 * log10(n) digits, the
exact t_n carry a recessive solution, and no working precision can add
more.  Asking for digits beyond either floor raises TruncationDominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath.ctx_mp import MPContext
from mpmath.libmp import (
    from_int, from_man_exp, from_rational, fzero, mpf_add, mpf_div, mpf_exp,
    mpf_log, mpf_mul, mpf_rdiv_int, mpf_sqrt, round_nearest, to_str,
)

from .engine import Expansion, solve_expansion
from .errors import PrecisionUnachievable, TruncationDominates
from .presets import INV_SQRT2, get_preset
from .rationals import rat

#: Working precisions beyond this are refused rather than attempted.
MAX_WORKING_DPS = 10**6

_GUARD_DIGITS = 10

_A85 = get_preset("a85")


def _exponent_argument(frame, n: int) -> float:
    """Cheap float estimate of beta*(n log n - n) + c*sqrt(n) + alpha*log n
    + kappa, used only to size the working precision.  Raises
    OverflowError, or returns inf or nan, once n*log n leaves float range."""
    log_n = math.log(n) if n > 1 else 0.0
    return (
        float(frame.beta) * (n * log_n - n)
        + float(frame.c) * math.sqrt(n)
        + float(frame.alpha) * log_n
        + float(frame.kappa)
    )


def _exponent_log10_bound(frame, n: int) -> float:
    """An upper bound on log10 |exponent argument| from logarithms alone
    (math.log takes ints of any size), for n where the float estimate
    overflows: there every term is at most its weight times n log n."""
    weight = abs(frame.beta) + abs(frame.c) + abs(frame.alpha) + abs(frame.kappa)
    if not weight:
        return 0.0
    return math.log10(weight) + math.log10(n) + math.log10(math.log(n))


def working_dps(frame, n: int, digits: int) -> int:
    """The decimal working precision for evaluating at index n."""
    if digits < 1:
        raise ValueError("need at least one digit")
    try:
        magnitude = abs(_exponent_argument(frame, n))
    except OverflowError:
        magnitude = math.inf
    if math.isfinite(magnitude):
        extra = math.ceil(math.log10(magnitude)) if magnitude >= 1.0 else 0
    else:
        extra = math.ceil(_exponent_log10_bound(frame, n))
    dps = digits + _GUARD_DIGITS + max(0, extra)
    if dps > MAX_WORKING_DPS:
        raise PrecisionUnachievable(
            f"the evaluation would need {dps} working digits; "
            f"the supported maximum is {MAX_WORKING_DPS}"
        )
    return dps


@lru_cache(maxsize=64)
def _context(dps: int) -> MPContext:
    """The shared context of working precision dps.  Callers must not
    change its precision."""
    ctx = MPContext()
    ctx.dps = dps
    return ctx


def _raw(q, prec: int) -> tuple:
    """Exact rational (or int, or 'p/q' string) to a raw mpf tuple,
    correctly rounded to prec bits, through rat (which refuses floats and
    bools).  An integer is rounded once, never first made exact as ctx.mpf
    makes it (stripping trailing zero bits over the whole integer);
    anything else is one division of exact integers."""
    q = rat(q)
    p, d = q.numerator, q.denominator
    if d == 1:
        return from_int(p, prec, round_nearest)
    return from_rational(p, d, prec, round_nearest)


def _correction_sum(coefficients, n: int, prec: int) -> tuple[int, int]:
    """a_0 + a_1 x + ... + a_k x^k at x = n^(-1/2), as acc / 2^W: Horner's
    rule on ints with X = isqrt(2^(2W) // n) = floor(2^W x).  Each of the k
    floored products and k floored a_i (a_0 = 1 is exact) loses under a
    unit of 2^-W, and X's loss of under a unit costs at most |h_(i+1)| x^i
    at step i, h_i = a_i + a_(i+1) x + ... + a_k x^(k-i): acc / 2^W is
    within k (2 + M) units of the sum, M the largest |h_i| x^(i-1).  The
    guard bits past prec grow with k, so the bound stays under the last
    of the prec bits while M is small.
    """
    W = prec + len(coefficients).bit_length() + 4
    X = math.isqrt((1 << 2 * W) // n)
    acc = 0
    for a in reversed(coefficients):
        acc = (acc * X >> W) + (a.numerator << W) // a.denominator
    return acc, W


def eval_expansion(exp: Expansion, C, n: int, k: int, digits: int):
    """C * F(n) * (1 + a_1 n^(-1/2) + ... + a_k n^(-k/2)) as a big float,
    where F is the frame of exp and C is a rational, an int, a 'p/q'
    string, or the INV_SQRT2 sentinel.

    k selects how many correction terms to use (k = 0 means the bare
    frame) and must not exceed exp.K; digits sizes the working precision.
    """
    if n < 1:
        raise ValueError("evaluation needs n >= 1")
    if not 0 <= k <= exp.K:
        raise ValueError(f"k must be between 0 and K = {exp.K}, got {k}")
    ctx = _context(working_dps(exp.frame, n, digits))
    p, r, fr, N = ctx.prec, round_nearest, exp.frame, from_int(n)
    # ctx.exp(A * ctx.log(n) + c * ctx.sqrt(n) + B), call for call.
    A_log = mpf_mul(_raw(fr.beta * n + fr.alpha, p), mpf_log(N, p, r), p, r)
    c_sqrt = mpf_mul(_raw(fr.c, p), mpf_sqrt(N, p, r), p, r)
    B = _raw(fr.kappa - fr.beta * n, p)
    frame_value = mpf_exp(mpf_add(mpf_add(A_log, c_sqrt, p, r), B, p, r), p, r)
    # The fixed-point sum, rounded once to the working precision.
    acc, W = _correction_sum((1,) + exp.a[:k], n, p)
    s = from_man_exp(acc, -W, p, r)
    constant = (mpf_rdiv_int(1, mpf_sqrt(from_int(2), p, r), p, r)
                if C is INV_SQRT2 else _raw(C, p))
    return ctx.make_mpf(mpf_mul(mpf_mul(constant, frame_value, p, r), s, p, r))


def truncation_floor_digits(n: int, k: int) -> int:
    """How many digits of t_n an expansion truncated after k correction
    terms can support: the next omitted term is O(n^(-(k+1)/2))."""
    return max(0, math.floor((k + 1) / 2 * math.log10(n)) - 2)


def recessive_floor_digits(n: int) -> int:
    """floor(2 sqrt n log10 e - log10 2): the digits of the involution
    numbers' connection constant that t_n keeps past the recessive solution
    it carries, e^(-2 sqrt n) relative.  In integers, as n may be past float
    range, each factor rounded down at 22 decimals (log10 2 up): never above
    the real floor, and equal to it for every n <= EXACT_INDEX_LIMIT."""
    root = math.isqrt(4 * n * 10**44)  # 2 sqrt n, times 10^22
    return (root * 4342944819032518276511 - 3010299956639811952138 * 10**22) // 10**44


@dataclass(frozen=True)
class RatioReport:
    """Outcome of comparing an expansion against the exact sequence."""

    n: int
    k: int
    asy: object
    exact: object
    ratio: object
    digits: int
    working_dps: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "asy": format_significant(self.asy, self.digits),
            "ratio": format_significant(self.ratio, self.digits),
            "digits": self.digits,
        }


def ratio_check(n: int, k: int, digits: int, *, expansion: Expansion | None = None) -> RatioReport:
    """Evaluate the involution-number expansion with k correction terms at
    index n and divide by the exact t_n.

    The expansion is solved on the spot unless a sufficiently long one is
    passed in; the exact value comes from the integer recurrence by binary
    splitting, and n above EXACT_INDEX_LIMIT raises InputTooLarge.  The
    ratio therefore carries both the truncation error of the dominant
    expansion and the recessive second solution that the exact integers
    contain, whose relative size is about e^(-2 sqrt n) (3.4e-28 at
    n = 1000); no truncation gets the ratio closer to 1 than that floor.
    """
    if expansion is None:
        expansion = solve_expansion(_A85.recurrence, _A85.frame, k)
    asy = eval_expansion(expansion, _A85.constant, n, k, digits)
    ctx = asy.context
    exact = _raw(_A85.term(n), ctx.prec)
    return RatioReport(
        n=n,
        k=k,
        asy=asy,
        exact=ctx.make_mpf(exact),
        ratio=ctx.make_mpf(mpf_div(asy._mpf_, exact, ctx.prec, round_nearest)),
        digits=digits,
        working_dps=ctx.dps,
    )


def connection_constant(rec, exp: Expansion, n: int, k: int, digits: int):
    """Estimate the connection constant C = t_n / (F(n) * S_k(n)) to the
    requested number of digits.

    Only meaningful where exact sequence values exist, i.e. for the
    involution recurrence; raises TruncationDominates past the truncation
    or the recessive floor at this n, and InputTooLarge when n is above
    EXACT_INDEX_LIMIT.
    """
    if rec != _A85.recurrence:
        raise ValueError(
            "exact sequence values are only available for the involution "
            "recurrence; cannot estimate a connection constant"
        )
    floor = min(truncation_floor_digits(n, k), recessive_floor_digits(n))
    if digits > floor:
        raise TruncationDominates(digits, floor)
    denominator = eval_expansion(exp, 1, n, k, digits)
    ctx = denominator.context
    exact = _raw(_A85.term(n), ctx.prec)
    return ctx.make_mpf(mpf_div(exact, denominator._mpf_, ctx.prec, round_nearest))


def format_significant(x, digits: int) -> str:
    """Render x, an mpf or an exact int, to exactly `digits` significant
    decimal digits.  An int is rounded once, at digits + _GUARD_DIGITS,
    through _raw.

    libmp's to_str lays the digits out: fixed when the decimal exponent e
    of the rounded value (9.99... carried) has -4 <= e < digits ("1.0001...",
    "0.70710..."), else normalized scientific with a bare integer exponent
    ("2.1441496003431008422e1296"); the one-line normalisation drops its
    "+" sign, the point it leaves before "e" and a trailing point.
    Deterministic: same value and digits, same string.
    """
    if digits < 1:
        raise ValueError("need at least one digit")
    raw = _raw(x, _context(digits + _GUARD_DIGITS).prec) if isinstance(x, int) else x._mpf_
    if raw == fzero:
        return "0"
    text = to_str(raw, digits, strip_zeros=False, min_fixed=-5, max_fixed=digits)
    return text.replace("e+", "e").replace(".e", "e").removesuffix(".")
