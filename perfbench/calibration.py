"""The host-speed yardstick the benchmark's times are scaled by.

The hosts this benchmark runs on are shared: the speed of a fixed
computation drifts between about 0.7 and 1.3 times its median, in phases
of seconds to minutes, in CPU time as much as in wall time.  That drift is
nearly the same for any CPU-bound Python code that runs at the same
moment.  So while a run measures, it keeps running a fixed piece of work,
``unit()``: every ``TICK_S`` of CPU time a profiling-timer signal runs one
unit, in the middle of whatever operation is running, and the unit's time
is taken out of that operation's.  Each operation's time is scaled by
``NOMINAL_S`` over the mean time of the units nearest it, so it reads as it
would on a host where one unit takes ``NOMINAL_S`` seconds.  The nearest
units are those it held, widened on both sides to at least ``LOCAL_UNITS``;
at one unit per ``TICK_S`` that is the host's speed over the operation, or
over the ``LOCAL_UNITS * TICK_S`` CPU seconds around a shorter one.

Times are the thread's CPU time: while a process-wide CPU timer is armed,
Linux reads the process CPU clock only at scheduler ticks, so it stands still
across a unit.

``unit()`` does what the library does most, in code of its own:
``fractions.Fraction`` power-series products and a big-integer recurrence.
It imports nothing from the library, so no change to the library moves it.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
from fractions import Fraction
from time import thread_time

#: CPU seconds of one unit() on the host the bounds were set on (2 cores,
#: Python 3.11.7), about its median over a minute.
NOMINAL_S = 0.0028

#: CPU seconds between units while a run measures; with NOMINAL_S it puts
#: about an eighth of the run's CPU time into units.
TICK_S = 0.02

#: Fewest units an operation's time is scaled by.
LOCAL_UNITS = 30

_A = [Fraction(i + 1, 2 * i + 3) for i in range(24)]
_B = [Fraction(2 * i - 5, i + 7) for i in range(24)]


def unit() -> float:
    """CPU seconds of one fixed piece of work."""
    start = thread_time()
    [sum(_A[i] * _B[k - i] for i in range(k + 1)) for k in range(len(_A))]
    t0, t1 = 1, 1
    for n in range(2, 1500):
        t0, t1 = t1, t1 + (n - 1) * t0
    return thread_time() - start


class Yardstick:
    """Units run during a measurement, and the scale they give."""

    def __init__(self):
        self.samples: list[float] = []
        #: CPU seconds spent in units so far.
        self.spent = 0.0
        self._busy = False
        self._prefix = [0.0]

    def run_unit(self) -> None:
        t = unit()
        self.samples.append(t)
        self.spent += t

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self.run_unit()
            finally:
                self._busy = False

    @contextlib.contextmanager
    def ticking(self):
        """Run a unit every TICK_S of the process's CPU time."""
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def clock(self) -> float:
        """The thread's CPU time less the time spent in units."""
        while True:
            spent = self.spent
            now = thread_time()
            if self.spent == spent:  # no unit ran in between
                return now - spent

    def mark(self) -> int:
        """Units run so far; an operation held the units between its marks."""
        return len(self.samples)

    def scale_around(self, start: int, end: int) -> float:
        """The scale given by units start..end-1, widened on both sides to
        at least LOCAL_UNITS of the units run so far."""
        total = len(self.samples)
        need = max(0, LOCAL_UNITS - (end - start))
        lo, hi = start - (need + 1) // 2, end + need // 2
        if lo < 0:
            lo, hi = 0, min(total, hi - lo)
        if hi > total:
            lo, hi = max(0, lo - (hi - total)), total
        if len(self._prefix) != total + 1:
            self._prefix = [0.0, *itertools.accumulate(self.samples)]
        return NOMINAL_S * (hi - lo) / (self._prefix[hi] - self._prefix[lo])

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.run_unit()

    def scale(self) -> float:
        """The scale given by all units so far: the factor that turns a CPU
        time measured in this run into nominal time."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
