"""How fast this machine runs Python at each moment, to put times on one scale.

On a shared virtual machine the same operations can run 20% to 40% slower
from one minute to the next.  `SpeedProbe` times a fixed reference loop every
`PERIOD_S` of wall time from a SIGALRM handler, so samples also fall inside
long operations.  `SpeedProbe.scale` turns a measured interval into the time
it would take on a machine where the loop takes `NOMINAL_S`.  The loop shares
no code with dp3ring, so a change to dp3ring's speed passes through in full.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.5e-3
PERIOD_S = 0.1
WINDOW_S = 0.5


def reference_loop() -> float:
    """Seconds taken by a fixed bit of pure-Python work: tuples, a dict and
    Fractions.  The garbage collector is off so that the program's heap does
    not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, total = {}, Fraction(0)
        for i in range(100):
            table[i % 97, i % 89] = i
            total += Fraction(i % 7 + 1, i % 5 + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Context manager that samples the reference loop while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.refs: list[float] = []
        self._previous = None

    def __enter__(self) -> SpeedProbe:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        self.starts.append(time.perf_counter())
        self.refs.append(reference_loop())

    def median_ref(self) -> float:
        return statistics.median(self.refs)

    def scale(self, start: float, end: float) -> float:
        """The interval [start, end], less the samples taken inside it, at
        reference speed: scaled by the reference times within WINDOW_S of it,
        or by the nearest one if none is that close."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), max(lo, 1)
        inside = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        busy = end - start - sum(self.refs[inside[0] : inside[1]])
        return busy * NOMINAL_S / statistics.median(self.refs[lo:hi])
