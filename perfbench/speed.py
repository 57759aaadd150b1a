"""Machine-speed probe and the normalisation of timings by it.

On a shared 2-vCPU host, pure-Python code ran at speeds that differed
by up to 2x from one tenth of a second to the next, while CPU time
equalled wall time.  A fixed kernel (Fraction arithmetic and dict
inserts) is therefore run every INTERVAL seconds from a SIGALRM handler,
interrupting whatever is running; no thread is started.  Each timing the
benchmark reports is

    seconds without the probe's own time  x  REF_MS / (mean kernel time
    of the samples taken while it ran, padded by PAD seconds),

that is, seconds on a machine where the kernel takes REF_MS.  On a
shared 2-vCPU host this took the run-to-run spread of the query
workload's median from about 30% to 2-3%.  Sampling every 20 ms with a
20 ms pad spread its p99 half as much as sampling every 50 ms with a
100 ms pad.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.02
PAD = 0.02
REF_MS = 0.5  # about the kernel's time when the host is not contended
KERNEL_STEPS = 250


def kernel() -> None:
    acc, table = Fraction(0), {}
    for i in range(1, KERNEL_STEPS):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[i * 7919 % 10007] = acc


def timed_kernel() -> tuple[float, float]:
    """(start, end) of one kernel run, with the collector off so that the
    size of the program's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return t0, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


def burst_ms(reps: int = 10) -> float:
    """Median kernel time of `reps` back-to-back runs, in ms."""
    return 1000 * statistics.median(b - a for a, b in (timed_kernel() for _ in range(reps)))


class SpeedSampler:
    """Runs the kernel every INTERVAL seconds while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.spent = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        t0, t1 = timed_kernel()
        self.starts.append(t0)
        self.ends.append(t1)
        self.spent += t1 - t0

    def clock(self) -> float:
        """perf_counter without the kernel's time.  A sample that lands
        between the two reads shifts one reading by one kernel run, so this
        is for sums over many spans; `busy` is exact."""
        return time.perf_counter() - self.spent

    def busy(self, t0: float, t1: float) -> float:
        """Seconds between perf_counter readings t0 and t1, minus kernel
        runs that lay wholly between them."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi) if self.ends[i] <= t1)
        return t1 - t0 - inside

    def kernel_ms(self, t0: float, t1: float, pad: float = PAD) -> float:
        """Mean kernel time (ms) of the samples within [t0 - pad, t1 + pad];
        the nearest sample when none is."""
        if not self.starts:
            return burst_ms()
        lo = bisect.bisect_left(self.starts, t0 - pad)
        hi = bisect.bisect_right(self.starts, t1 + pad)
        if lo == hi:
            near = min(max(lo, 0), len(self.starts) - 1)
            if lo > 0 and abs(self.starts[lo - 1] - t0) < abs(self.starts[near] - t0):
                near = lo - 1
            lo, hi = near, near + 1
        return 1000 * sum(self.ends[i] - self.starts[i] for i in range(lo, hi)) / (hi - lo)

    def normalised(self, t0: float, t1: float) -> float:
        """busy(t0, t1) in reference seconds."""
        return self.busy(t0, t1) * REF_MS / self.kernel_ms(t0, t1)
