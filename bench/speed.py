"""Machine-speed reference sampled through a run, to scale times to one speed.

On a shared machine the speed of one core drifts by 15-30% on time scales
of 0.1-1 s, and between runs minutes apart, which swamps any change a single
layer makes. ``SpeedSampler`` runs a fixed pure-Python kernel every
``INTERVAL_S`` of wall time from a timer signal, in the same thread as the
workload, so the kernel and the workload see the same core in the same
state. ``nominal_seconds(starts, ends)`` then turns each timed interval into the
time its work would take on a machine where the kernel takes
``KERNEL_NOMINAL_S``: the interval minus the kernel's own time, divided by
the kernel's mean slow-down over the samples within ``WINDOW_S`` of it (the
nearest sample's when none is).

The kernel is benchmark code and never changes with cellfree, so a faster
cellfree shows up in full.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
WINDOW_S = 0.1                  # kernel samples this close to a call set its slow-down
KERNEL_LOOPS = 10_000
KERNEL_NOMINAL_S = 0.7e-3       # the kernel's time on a quiet core of the baseline machine


def _kernel() -> int:
    s = 0
    for k in range(KERNEL_LOOPS):
        s += k * k % 7
    return s


class SpeedSampler:
    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self, *_):
        start = perf_counter()
        _kernel()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def slowdown(self) -> float:
        """Mean kernel time over its nominal time, for the whole run."""
        return statistics.fmean(self.durations) / KERNEL_NOMINAL_S

    def nominal_seconds(self, starts, ends) -> np.ndarray:
        """Seconds of work in each interval [start, end], at nominal speed.

        The slow-down is the mean kernel time over the samples that start
        within ``WINDOW_S`` of the interval; the kernel runs that fall inside
        the interval are taken off its length.
        """
        import numpy as np      # not at module level: set-up timing covers numpy's import
        starts, ends = np.asarray(starts, dtype=float), np.asarray(ends, dtype=float)
        k_start = np.asarray(self.starts)
        k_dur = np.asarray(self.durations)
        cum_dur = np.concatenate(([0.0], np.cumsum(k_dur)))
        k_end = k_start + k_dur
        first = np.searchsorted(k_start, starts, side="left")
        last = np.maximum(np.searchsorted(k_end, ends, side="right"), first)
        stolen = cum_dur[last] - cum_dur[first]
        lo = np.searchsorted(k_start, starts - WINDOW_S, side="left")
        hi = np.searchsorted(k_start, ends + WINDOW_S, side="right")
        # a C call that holds off the timer signal can leave a window empty
        nearest = np.interp(0.5 * (starts + ends), k_start, k_dur)
        slow = np.where(hi > lo, (cum_dur[hi] - cum_dur[lo]) / np.maximum(hi - lo, 1), nearest)
        return (ends - starts - stolen) * KERNEL_NOMINAL_S / slow
