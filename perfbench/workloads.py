"""The benchmark's four workloads: seeded inputs, the library calls that make
one operation, and an output checker for each.

Every workload has the same three parts:

* ``prepare(seed)`` builds the operation inputs from the seed and does any
  one-time library work (the numeric workload solves its expansion here).
  It is what ``setup_s`` times.
* ``run(state, op)`` makes the library calls of one operation and returns
  the output as plain JSON-able text.  It is what the latency metrics time.
* ``check(state, op, out, err)`` decides from that text alone, against
  pinned literals or the benchmark's own code, whether the operation was
  right.  It is not timed.  ``err`` is the exception the operation raised, if
  any.  An operation is right when its output passes the reference checks,
  or when the input calls for a typed error and exactly that error came.

The library is always called through its modules (``engine.solve_expansion``,
never a name imported from it), so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import mpmath

from recasymp import cli, engine, evaluate, framesolve, involutions
from recasymp.engine import Expansion
from recasymp.errors import RamificationError, TruncationDominates
from recasymp.frame import Frame
from recasymp.recurrence import Recurrence

#: The involution recurrence t(n) = t(n-1) + (n-1) t(n-2) and its frame,
#: written out here rather than taken from the library's presets.
A85_COEFFS = [[1], [-1], [1, -1]]
A85_FRAME = Frame("1/2", "1", "0", "-1/4")

#: a_1 and a_2 of the involution expansion (Moser & Wyman).
A85_A1_A2 = (Fraction(7, 24), Fraction(-119, 1152))

#: Leading digits of t(n), pinned where the oracle workload reaches n.
T_LEADING = {600: "34754177845247948574", 1000: "21439289538422655419"}

#: Acceptance criterion 4: ratio_check(1000, 1, 20).
PIN_RATIO = {"n": 1000, "k": 1, "digits": 20,
             "asy": "2.1441496003431008422e1296", "ratio": "1.0001029168902448312"}

#: Acceptance criterion 8: the connection constant at n = 10^4, k = 30,
#: 30 digits, which must read as 1/sqrt(2).
PIN_CONSTANT = {"n": 10**4, "k": 30, "digits": 30,
                "constant": "0.707106781186547524400844362105"}

_ERRORS = {"RamificationError": RamificationError,
           "TruncationDominates": TruncationDominates}


def exact_involutions(n_max: int) -> list[int]:
    """t(0..n_max) by the benchmark's own loop, the checkers' exact values."""
    out = [1, 1]
    for n in range(2, n_max + 1):
        out.append(out[-1] + (n - 1) * out[-2])
    return out[: n_max + 1]


def recessive_floor(n: int) -> float:
    """Twice exp(-2 sqrt n).  exp(-2 sqrt n) is the relative size of the
    recurrence's recessive second solution, about 3.4e-28 at n = 1000; no
    truncation of the dominant expansion can match the exact t(n) more
    closely."""
    return 2.0 * math.exp(-2.0 * math.sqrt(n))


def ratio_bound(a, n: int, k: int, digits: int) -> float:
    """How far a k-term ratio at index n may sit from 1.

    The convergence bound of acceptance criterion 9,
    2 max(1, |a_1|, ..., |a_(k+5)|) n^(-(k+1)/2), but never below the
    recessive floor or the rounding of a ``digits``-digit string."""
    m = max([1.0] + [abs(float(v)) for v in a[: k + 5]])
    return max(2.0 * m * n ** (-(k + 1) / 2), recessive_floor(n), 10.0 ** (1 - digits))


def _close(text: str, reference, tol: float, digits: int) -> bool:
    """|text / reference - 1| <= tol, the text parsed at ample precision."""
    with mpmath.workdps(digits + 20):
        return bool(abs(mpmath.mpf(text) / mpmath.mpf(reference) - 1) <= tol)


def error_text(err: BaseException) -> str:
    return f"{type(err).__name__}: {err}"


def _typed(op, err) -> bool | None:
    """The verdict when the input calls for a typed error, else None."""
    want = op.get("error")
    if want is None:
        return None
    return isinstance(err, _ERRORS[want])


class DeepSolve:
    """`recasymp coeffs --preset a85 --K 100 --format json` in-process, then
    the residual certificate of the parsed expansion.  One operation.

    K = 100 rather than acceptance criterion 2's 169: one K = 169 solve
    takes 27 to 53 s on a 2-core host, and a run must repeat the operation
    a few times to average out the host's speed swings.  At K = 100 the
    march in series.mul is still 87% of the time."""

    name = "deep_solve"

    def __init__(self, K: int = 100):
        self.K = K

    def params(self) -> dict:
        return {"K": self.K, "preset": "a85", "format": "json"}

    def prepare(self, seed: int) -> dict:
        argv = ["coeffs", "--preset", "a85", "--K", str(self.K), "--format", "json"]
        return {"ops": [{"argv": argv, "K": self.K}], "rec": Recurrence(A85_COEFFS)}

    def run(self, state: dict, op: dict) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op["argv"])
        text = buf.getvalue()
        exp = Expansion.from_json_dict(json.loads(text))
        return {"rc": rc, "stdout": text, "order": engine.residual_check(state["rec"], exp)}

    def check(self, state: dict, op: dict, out, err) -> bool:
        if err is not None or out["rc"] != 0 or out["order"] < op["K"]:
            return False
        exp = Expansion.from_json_dict(json.loads(out["stdout"]))
        return (
            exp.K == op["K"]
            and exp.frame == A85_FRAME
            and tuple(exp.a[:2]) == A85_A1_A2
            and engine.residual_check(state["rec"], exp) >= op["K"]
        )


def _monic(rng: random.Random, degree: int) -> list[int]:
    """Ascending coefficients of a random monic polynomial."""
    return [rng.randint(-3, 3) for _ in range(degree)] + [1]


def _frame(beta, c, alpha) -> dict:
    return Frame(beta, c, alpha, 0).to_json_dict()


class FrameDiscovery:
    """Many small recurrences, each through frame_solve, solve_expansion and
    residual_check.  Families and their closed-form frames:

    * ``monic``: t(n) = r(n) t(n-1), r monic of degree d with n^(d-1)
      coefficient b: beta = d, c = 0, alpha = b + d/2;
    * ``two_term``: t(n) = u t(n-1) + (n+v) t(n-2): beta = 1/2, c = u,
      alpha = (v+1)/2 (u = 1, v = -1 is the involution recurrence);
    * ``sparse``: t(n) = r(n) t(n-j), j in {2, 3}: beta = d/j, c = 0,
      alpha = d/2 + b/j;
    * ``out_of_template``: t(n) = u t(n-1) + (n+v) t(n-3) has beta = 1/3, so
      the j = 1 shift leaves the ramification-2 lattice and the input must
      end in RamificationError.
    """

    name = "frame_discovery"

    def __init__(self, K: int = 24, mix=(("monic", 60), ("two_term", 30),
                                        ("sparse", 50), ("out_of_template", 10))):
        self.K = K
        self.mix = tuple(mix)

    def params(self) -> dict:
        return {"K": self.K, "mix": dict(self.mix), "coefficients": "-3..3"}

    def _make(self, rng: random.Random, family: str, i: int) -> dict:
        if family == "monic":
            d = 1 + i % 3
            r = _monic(rng, d)
            coeffs = [[1], [-c for c in r]]
            frame = _frame(d, 0, Fraction(r[d - 1]) + Fraction(d, 2))
        elif family == "two_term":
            u = rng.choice([-3, -2, -1, 1, 2, 3])
            v = rng.randint(-3, 3)
            coeffs = [[1], [-u], [-v, -1]]
            frame = _frame(Fraction(1, 2), u, Fraction(v + 1, 2))
        elif family == "sparse":
            d, j = 1 + i % 2, 2 + (i // 2) % 2
            r = _monic(rng, d)
            coeffs = [[1]] + [[]] * (j - 1) + [[-c for c in r]]
            frame = _frame(Fraction(d, j), 0, Fraction(d, 2) + Fraction(r[d - 1], j))
        else:
            u, v = rng.randint(1, 3), rng.randint(-3, 3)
            coeffs = [[1], [-u], [], [-v, -1]]
            return {"family": family, "coeffs": coeffs, "error": "RamificationError"}
        return {"family": family, "coeffs": coeffs, "frame": frame}

    def prepare(self, seed: int) -> dict:
        rng = random.Random(f"frame_discovery:{seed}")
        ops = [self._make(rng, family, i) for family, count in self.mix for i in range(count)]
        rng.shuffle(ops)
        return {"ops": ops}

    def run(self, state: dict, op: dict) -> dict:
        rec = Recurrence(op["coeffs"])
        frame = framesolve.frame_solve(rec)
        exp = engine.solve_expansion(rec, frame, self.K)
        return {"expansion": exp.to_json_dict(), "order": engine.residual_check(rec, exp)}

    def check(self, state: dict, op: dict, out, err) -> bool:
        typed = _typed(op, err)
        if typed is not None:
            return typed
        if err is not None or out["order"] < self.K:
            return False
        exp = Expansion.from_json_dict(out["expansion"])
        return (
            exp.K == self.K
            and exp.frame == Frame.from_json_dict(op["frame"])
            and engine.residual_check(Recurrence(op["coeffs"]), exp) >= self.K
        )


def _safe_digits(n: int, k: int) -> int:
    """Digits a k-term expansion certainly supports at index n: the
    truncation order and the recessive floor, each less a 4-digit margin, so
    no honest precision policy can refuse them."""
    return int(min((k + 1) / 2 * math.log10(n), 2 * math.sqrt(n) * math.log10(math.e))) - 4


class NumericCheck:
    """ratio_check and connection_constant on the a85 expansion with K = 30,
    solved once in set-up.  Per n in {1000, 2500, 10^4}, in the counts of
    ``mix``: ``ratio`` ops with
    k in 0..30 and 15..30 digits, ``constant`` ops with digits the expansion
    certainly supports, and ``constant`` ops asking 25..30 digits from at
    most 3 terms, which must end in TruncationDominates.  Criteria 4 and 8
    lead every batch as pinned ops."""

    name = "numeric_check"

    def __init__(self, K: int = 30, mix=None):
        self.K = K
        #: n -> (ratio ops, constant ops, refused constant ops).  The counts
        #: put the median op well inside the n = 2500 group and the p90 op
        #: inside the n = 10^4 group, so neither sits on a step between
        #: groups.  Each n = 10^4 op builds a ~37 MB t_n list afresh; with 50
        #: of 152 ops there, wall_s varied more between runs (interquartile
        #: range 27% of the median, against 20% with this mix).
        self.mix = mix or {1000: (25, 20, 5), 2500: (45, 30, 5), 10**4: (12, 9, 1)}

    def params(self) -> dict:
        return {"K": self.K, "k": f"0..{self.K}", "digits": "<=30",
                "ops_per_n": {n: dict(zip(("ratio", "constant", "constant_refused"), c))
                              for n, c in self.mix.items()}}

    def prepare(self, seed: int) -> dict:
        rng = random.Random(f"numeric_check:{seed}")
        ops = [dict(PIN_RATIO, kind="ratio"), dict(PIN_CONSTANT, kind="constant")]
        for n, (ratios, constants, refused) in self.mix.items():
            for _ in range(ratios):
                ops.append({"kind": "ratio", "n": n, "k": rng.randint(0, self.K),
                            "digits": rng.randint(15, 30)})
            ks = [k for k in range(self.K + 1) if _safe_digits(n, k) >= 10]
            for _ in range(constants):
                k = rng.choice(ks)
                ops.append({"kind": "constant", "n": n, "k": k,
                            "digits": rng.randint(10, min(30, _safe_digits(n, k)))})
            for _ in range(refused):
                ops.append({"kind": "constant", "n": n, "k": rng.randint(0, 3),
                            "digits": rng.randint(25, 30), "error": "TruncationDominates"})
        rec = Recurrence(A85_COEFFS)
        return {"ops": ops, "rec": rec, "exp": engine.solve_expansion(rec, A85_FRAME, self.K)}

    def run(self, state: dict, op: dict) -> dict:
        n, k, digits = op["n"], op["k"], op["digits"]
        if op["kind"] == "ratio":
            return evaluate.ratio_check(n, k, digits, expansion=state["exp"]).to_json_dict()
        value = evaluate.connection_constant(state["rec"], state["exp"], n, k, digits)
        return {"constant": evaluate.format_significant(value, digits)}

    def check(self, state: dict, op: dict, out, err) -> bool:
        typed = _typed(op, err)
        if typed is not None:
            return typed
        if err is not None:
            return False
        n, k, digits = op["n"], op["k"], op["digits"]
        if "exact" not in state:
            exact = exact_involutions(max(self.mix))
            state["exact"] = {m: exact[m] for m in self.mix}
        tol = ratio_bound(state["exp"].a, n, k, digits) + 10.0 ** (1 - digits)
        if op["kind"] == "ratio":
            ok = (_close(out["ratio"], 1, tol, digits)
                  and _close(out["asy"], state["exact"][n], tol, digits))
            keys = ("asy", "ratio")
        else:
            with mpmath.workdps(digits + 20):
                ok = _close(out["constant"], 1 / mpmath.sqrt(2), tol, digits)
            keys = ("constant",)
        return ok and all(out[key] == op[key] for key in keys if key in op)


class OracleCrosscheck:
    """t(0..600) four ways: the recurrence, the EGF convolution, the
    binomial sum for every n (in a seeded order) and brute force up to
    BRUTE_FORCE_LIMIT.  All four must agree with the benchmark's own loop.
    One operation.

    n_max = 600 rather than acceptance criterion 6's 1000: the Fraction EGF
    convolution alone takes about 19 s at 1000, and a run must repeat the
    operation a few times to average out the host's speed swings.  At 600
    it takes about 2.5 s and is still nearly all of the time."""

    name = "oracle_crosscheck"

    def __init__(self, n_max: int = 600):
        self.n_max = n_max

    def params(self) -> dict:
        return {"n_max": self.n_max, "brute_force_limit": involutions.BRUTE_FORCE_LIMIT}

    def prepare(self, seed: int) -> dict:
        order = list(range(self.n_max + 1))
        random.Random(f"oracle_crosscheck:{seed}").shuffle(order)
        return {"ops": [{"n_max": self.n_max, "sum_order": order}]}

    def run(self, state: dict, op: dict) -> dict:
        n_max = op["n_max"]
        by_sum = {n: involutions.involution_count_by_sum(n) for n in op["sum_order"]}
        return {
            "recurrence": involutions.involution_numbers(n_max),
            "egf": involutions.involution_counts_by_egf(n_max),
            "sum": [by_sum[n] for n in range(n_max + 1)],
            "brute": [involutions.involution_count_brute(n)
                      for n in range(min(n_max, involutions.BRUTE_FORCE_LIMIT) + 1)],
        }

    def check(self, state: dict, op: dict, out, err) -> bool:
        if err is not None:
            return False
        rec = out["recurrence"]
        return (
            rec == exact_involutions(op["n_max"])
            and out["egf"] == rec
            and out["sum"] == rec
            and out["brute"] == rec[: len(out["brute"])]
            and all(str(rec[n]).startswith(digits)
                    for n, digits in T_LEADING.items() if n <= op["n_max"])
        )


def fingerprint(out, err) -> str:
    """A short digest of one operation's output or error, for comparing a
    traced run with an untraced one."""
    text = error_text(err) if err is not None else json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (DeepSolve(), FrameDiscovery(), NumericCheck(), OracleCrosscheck())}
