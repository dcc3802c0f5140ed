"""The host's speed, sampled while a benchmark child does its work.

A shared host's speed moves by up to ~1.8x within seconds, from load the
benchmark does not control, and that swamps the program's own changes.  So
every timed child samples the host's speed all the time it runs: a timer
signal interrupts it every ``INTERVAL_S`` and runs a fixed piece of work, the
pace kernel, that calls no engine code.  The kernel makes and drops
thousands of small strings and floats, as the engine makes and drops small
objects.  On a 2-vCPU host, the time of kernels like it moved with the
engine's query time (log-log slope 0.7-1.1 over passes of the query mix, in
runs of 40-60 s), while a kernel of random reads through a large list moved
about twice as much.  A time the child measured is scaled to a fixed host
speed, the one at which the kernel takes ``REFERENCE_S``:

    scaled = (measured - kernel time inside it) * REFERENCE_S / kernel time nearby

A change to the engine moves the measured time and leaves the kernel alone,
so it shows in full.  Results files keep the unscaled times too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
# A fixed constant, about the kernel's median time on a quiet 2-vCPU host, so
# that scaled times of different commits compare.
REFERENCE_S = 0.001
# Kernel samples within this distance of a moment give its speed.
WINDOW_S = 0.3


class Pace:
    """Samples the pace kernel on a timer; ``spent`` is the kernel's total time."""

    def __init__(self) -> None:
        # (start, seconds) of each kernel run, in order.
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self.stopped = 0.0

    @staticmethod
    def kernel() -> int:
        # Strings and floats only: the garbage collector does not track
        # them, so the kernel leaves the engine's collection schedule alone.
        labels = [f"art{i}_cpt" for i in range(5000)]
        weights = [i * 0.5 for i in range(5000)]
        return len(labels) + len(weights)

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self.kernel()
        seconds = time.perf_counter() - started
        self.starts.append(started)
        self.seconds.append(seconds)
        self.spent += seconds

    def start(self) -> "Pace":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.stopped = time.perf_counter()
        self._sample()

    def factor_at(self, moment: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of ``moment``."""
        lo = bisect.bisect_left(self.starts, moment - WINDOW_S)
        hi = bisect.bisect_right(self.starts, moment + WINDOW_S)
        if hi - lo < 3:
            centre = bisect.bisect_left(self.starts, moment)
            lo, hi = max(0, centre - 2), min(len(self.starts), centre + 2)
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def ratio(self, t0: float, t1: float) -> float:
        """Scaled over wall time for [t0, t1): the kernel's time out, the rest scaled."""
        inside = range(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))
        spent = sum(self.seconds[i] for i in inside)
        factor = statistics.fmean(self.factor_at(self.starts[i]) for i in inside)
        return (t1 - t0 - spent) / (t1 - t0) * factor

    def summary(self) -> dict:
        return {"samples": len(self.seconds), "spent_s": self.spent,
                "kernel_median_ms": statistics.median(self.seconds) * 1000.0}
