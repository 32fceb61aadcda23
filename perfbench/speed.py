"""Scaling wall times to a reference machine speed.

On a shared host the speed of the same Python code drifts by up to a factor
of two within a minute (process CPU time drifts with it, so this is not time
spent descheduled).  A run-to-run spread that large would hide any
regression a benchmark bound could catch.  So the benchmark samples the
machine's current speed while it measures, and reports every timing both as
measured and scaled to a reference speed.

``SpeedProbe`` runs a fixed kernel of ``fractions.Fraction`` arithmetic, the
operation that dominates isoflag's time, from a SIGALRM handler every
0.1 s.  The kernel never touches the program's state, and no
change to isoflag can change its cost.  A timed interval is scaled by
``REFERENCE_KERNEL_S / k``, where k is the median kernel time sampled within
half a second of it.  The kernels that ran inside the interval are
subtracted from it first.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from fractions import Fraction
from time import perf_counter

# Median kernel time, sampled from the handler while isoflag runs, on the
# machine the benchmark was written on (Python 3.11, 2 vCPUs of a shared
# x86-64 host).
REFERENCE_KERNEL_S = 1.4e-3
_KERNEL_ITERATIONS = 300
_THIRD = Fraction(1, 3)
_INTERVAL_S = 0.1      # between kernels
_WINDOW_S = 0.5        # kernels this close to an interval set its speed


def kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(_KERNEL_ITERATIONS):
        acc += _THIRD * Fraction(i, 7)
    return acc


class SpeedProbe:
    def __init__(self):
        self.stamps = array("d")   # kernel start times
        self.costs = array("d")    # kernel durations
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.stamps.append(start)
        self.costs.append(perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, _INTERVAL_S, _INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _range(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.stamps, start), bisect.bisect_right(self.stamps, end)

    def factor(self, start: float, end: float) -> float:
        """Reference speed over current speed around [start, end]."""
        margin = _WINDOW_S
        while True:
            lo, hi = self._range(start - margin, end + margin)
            if hi - lo >= 3 or (lo == 0 and hi == len(self.stamps)):
                break
            margin *= 2
        costs = self.costs[lo:hi]
        if not costs:
            return 1.0
        return REFERENCE_KERNEL_S / statistics.median(costs)

    def unscaled(self, start: float, end: float) -> float:
        """The interval's length without the kernels run inside it."""
        lo, hi = self._range(start, end)
        return end - start - sum(self.costs[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The same length at reference speed."""
        return self.unscaled(start, end) * self.factor(start, end)
