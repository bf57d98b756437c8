"""Host speed sampled throughout a timed loop, to scale op times to a fixed speed.

A shared host's other tenants slow the whole process by tens of percent, in
spells that last from fractions of a second to minutes.  CPU time and wall
time slow alike, so no per-process clock escapes it.  `HostSpeed` runs a
fixed kernel from an interval timer while the loop runs.  The kernel uses
numpy and the interpreter in the same mix as graspforge's hot loops (small
matrix products, norms, clips and scalar arithmetic) and no graspforge code,
so its time moves with the host's load and not with the program.

An op's time is scaled by `REFERENCE_KERNEL_S / kernel time`, with the
kernel time taken as the mean of the samples drawn from `WINDOW_S` before
the op began to `WINDOW_S` after it ended.  The mean, not the median,
because an op's time is the integral of the host's slowness over its span,
and the samples are spread evenly over time.  The result reads as the op's
time on a host where the kernel takes `REFERENCE_KERNEL_S`.  Time the kernel
spends inside an op is subtracted from that op.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# median kernel time on 2 vCPUs of an Intel Xeon host, Python 3.11,
# numpy 2.4, one BLAS thread
REFERENCE_KERNEL_S = 0.0029
INTERVAL_S = 0.1
WINDOW_S = 0.5
_KERNEL_STEPS = 150

_rng = np.random.default_rng(0)
_MATRICES = [_rng.normal(size=(4, 4)) for _ in range(8)]
_VECTOR = _rng.normal(size=3)


def kernel() -> float:
    R = np.eye(4)
    acc = 0.0
    for i in range(_KERNEL_STEPS):
        R = _MATRICES[i & 7] @ R
        R /= np.linalg.norm(R)
        q = np.clip(_VECTOR * (i % 5), -1.0, 1.0)
        acc += float(np.linalg.norm(q - _VECTOR)) + float(q @ _VECTOR)
    return acc


class HostSpeed:
    """Context manager that times `kernel()` every `INTERVAL_S` of wall time.

    `starts` and `samples` hold each kernel run's start on the
    `time.perf_counter` clock and its time, in order; `spent_s` is their sum,
    so a caller reads it before and after an op to find the time the kernel
    took from the op.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.starts.append(t0)
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, t0: float, t1: float) -> float:
        """Factor taking a time measured from `t0` to `t1` to the reference speed.

        The whole run's samples stand in when none fall near the span.
        """
        first = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        last = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples[first:last] or self.samples)
