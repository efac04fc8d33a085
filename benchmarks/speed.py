"""Reference-speed timing: wall times corrected for the host's speed at the time.

On a shared host the same code can run at very different speeds from one
second to the next. On the 2-vCPU Intel Xeon VM (2.0 GHz) this benchmark
was written on, a toy-chain sweep took 0.35 ms or 0.6-0.7 ms depending on
the neighbours, switching within seconds, and the median sweep time of
`logistic-rows` spread by 42% (IQR over median) over 5 runs. The slowdown
hits interpreter-bound code alike. So the benchmark runs a small fixed
reference kernel (a probe) every PROBE_INTERVAL_S during the workload,
outside the timed intervals, and reports every time at reference speed:

    time_ref = time_wall * REFERENCE_S / (mean probe time around the interval)

Over the same 5 runs the median sweep time at reference speed spread by
1.7%. REFERENCE_S is the probe's time on that VM when it is quiet, so
reference seconds read close to quiet wall seconds there. Raw wall times
are recorded next to them.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

PROBE_INTERVAL_S = 0.05
REFERENCE_S = 0.35e-3
# Probes this close to an interval's ends still describe it.
_PAD_S = 0.05

# Created at import, before any tracing is installed.
_X = np.linspace(-1.0, 1.0, 10)
_RNG = np.random.Generator(np.random.PCG64(0))


def reference_kernel() -> float:
    """Fixed interpreter-bound work: small numpy ops, scalar math, RNG draws."""
    acc = 0.0
    for i in range(100):
        y = _X * 0.5 + 1.0
        acc += float(np.dot(y, _X)) + math.log1p(i) + float(_RNG.standard_normal())
    return acc


class SpeedProbe:
    """Times the reference kernel during a run and rescales intervals by it."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.total_s = 0.0
        self._last = -math.inf

    def probe(self):
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.total_s += t1 - t0
        self._last = t1

    def maybe(self):
        """Probe if PROBE_INTERVAL_S has passed since the last probe."""
        if perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.probe()

    def scale(self, starts, ends) -> np.ndarray:
        """REFERENCE_S over the mean probe time in and around each interval.

        An interval with no probe within _PAD_S of it takes its two
        nearest probes.
        """
        t = np.asarray(self.times)
        d = np.asarray(self.durations)
        if t.size == 0:
            raise ValueError("no speed probe was taken")
        order = np.argsort(t)
        t, d = t[order], d[order]
        csum = np.concatenate([[0.0], np.cumsum(d)])
        starts = np.atleast_1d(np.asarray(starts, dtype=float))
        ends = np.atleast_1d(np.asarray(ends, dtype=float))
        lo = np.searchsorted(t, starts - _PAD_S, side="left")
        hi = np.searchsorted(t, ends + _PAD_S, side="right")
        empty = hi <= lo
        mid = np.searchsorted(t, 0.5 * (starts + ends))
        lo = np.where(empty, np.clip(mid - 1, 0, t.size - 1), lo)
        hi = np.where(empty, np.clip(mid + 1, 1, t.size), hi)
        lo = np.minimum(lo, hi - 1)
        mean = (csum[hi] - csum[lo]) / (hi - lo)
        return REFERENCE_S / mean
