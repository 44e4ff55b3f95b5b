"""Spans around the library's layer functions, for the traced run.

``Tracer`` replaces each function named in ``TARGETS`` by a timing wrapper.
``engine``, ``frame``, ``framesolve`` and ``cli`` bind ``mul``, ``add``,
``exp_series``, ``solve_expansion`` and the rest by name at import, so the
wrapper is put into every ``recasymp`` module that holds the function, not
only the one that defines it.  Each call records a span ``[name, start, end,
parent]`` in memory, timed by the clock the tracer is given (thread CPU
time, or that less the calibration units run inside the spans); a layer's
self time is its spans' durations less the part their child spans cover.
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import thread_time

#: The wrapped functions, as (module under recasymp, function name).
TARGETS = (
    ("series", "add"), ("series", "mul"), ("series", "exp_series"),
    ("series", "log1p_series"), ("series", "compose_shift"),
    ("frame", "frame_ratio"), ("frame", "frame_ratio_parts"),
    ("engine", "solve_expansion"), ("engine", "residual_check"),
    ("framesolve", "frame_solve"), ("framesolve", "rational_roots"),
    ("evaluate", "eval_expansion"), ("evaluate", "working_dps"),
    ("evaluate", "format_significant"),
    ("involutions", "involution_numbers"), ("involutions", "involution_counts_by_egf"),
    ("involutions", "involution_count_by_sum"), ("involutions", "involution_count_brute"),
    ("cli", "main"),
)

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
          "coeff_products": "count_computed", "terms": "count"}

#: Stats reported per wrapped function where they differ from
#: calls/self_s/total_s; working_dps is wrapped for working_dps_max only.
_REPORTED = {
    "series.mul": ("calls", "self_s", "coeff_products"),
    "involutions.involution_numbers": ("calls", "self_s", "terms"),
    "evaluate.working_dps": (),
    "cli.main": ("self_s",),
}

#: Every per-layer metric the traced run reports, with its unit, in order.
#: ``series.mul.coeff_products`` is computed from the argument lengths, not
#: counted inside the loop, so it ignores the zero coefficients mul skips.
PER_LAYER = [
    (f"{module}.{function}.{stat}", _UNITS[stat])
    for module, function in TARGETS
    for stat in _REPORTED.get(f"{module}.{function}", ("calls", "self_s", "total_s"))
] + [("engine.coeff_bits_max", "bits"), ("evaluate.working_dps_max", "digits"),
     ("trace.overhead_s", "s")]


def mul_products(s1, s2) -> int:
    """Coefficient products series.mul performs for these arguments if no
    coefficient is zero: the same truncation arithmetic, summed per row."""
    if not s1.coeffs or not s2.coeffs:
        return 0
    n = min(s1.truncation + s2.valuation, s2.truncation + s1.valuation) - s1.valuation - s2.valuation
    return sum(min(len(s2.coeffs), n - i) for i in range(min(len(s1.coeffs), n)))


def _coeff_bits(exp) -> int:
    return max((int(a.numerator).bit_length() + int(a.denominator).bit_length() for a in exp.a),
               default=0)


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.layer_stats()``."""

    def __init__(self, clock=thread_time):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _observe(self, name: str, args, result) -> None:
        c = self.counters
        if name == "series.mul":
            c["series.mul.coeff_products"] += mul_products(*args[:2])
        elif name == "involutions.involution_numbers":
            c["involutions.involution_numbers.terms"] += args[0] + 1
        elif name == "engine.solve_expansion":
            c["engine.coeff_bits_max"] = max(c["engine.coeff_bits_max"], _coeff_bits(result))
        elif name == "evaluate.working_dps":
            c["evaluate.working_dps_max"] = max(c["evaluate.working_dps_max"], result)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._observe(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "recasymp" or key.startswith("recasymp.")]
        for module, function in TARGETS:
            original = getattr(sys.modules[f"recasymp.{module}"], function)
            wrapper = self._wrap(f"{module}.{function}", original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_stats(self) -> dict[str, float]:
        """calls, self_s and total_s per wrapped function, plus the counters.
        total_s counts only the outermost span of a name, so a function that
        reaches itself again is not timed twice."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += end - start - covered[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                stats[f"{name}.total_s"] += end - start
        stats.update(self.counters)
        return stats

    def write(self, path) -> None:
        """Write the spans, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
