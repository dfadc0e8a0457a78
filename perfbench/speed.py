"""Wall time corrected for the host's speed, sampled while the measured
code is paused.

On a shared host the speed of a vCPU switches between a fast and a slow
state (about 1.6x apart for interpreter work) every second or so, and
the two vCPUs switch independently (no steal time shows in the VM, and
CPU time drifts exactly like wall time).  Raw wall times of the same
code differ by 15-30% between runs.

So the benchmark reports an interval in reference seconds: its wall
time times the host's speed during it relative to the fast state.  The
speed comes from two fixed chunks of work, one of interpreter work on a
small dict with tuple keys (like the Groebner engine's term dicts) and
one of numpy row operations modulo p (like the elimination kernel).
The slow state slows the numpy chunk about a third as much, in log
terms, as the interpreter chunk; the speed is their weighted geometric
mean, INTERPRETER_WEIGHT chosen so that the workloads' times repeat best
(perfbench/README.md).

The chunks never run beside the measured code.  `SpeedSampler` takes a
sample from a SIGALRM handler every PERIOD_S: the handler runs in the
main thread between two bytecodes, so the measured code is paused, and
it times each chunk for SAMPLE_S / 2, keeping the median run; the first
runs refill the caches the measured code left.  `clock()` is
perf_counter minus the time spent sampling, so the pauses are left out
of every interval.
"""

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# median chunk times on a 2-vCPU Xeon VM in its fast state, CPython 3.11
NOMINAL_CHUNK_S = 4.0e-4
NOMINAL_NP_CHUNK_S = 1.7e-4
PERIOD_S = 0.1  # between samples
SAMPLE_S = 0.01  # chunk time per sample
MIN_WINDOW_S = 0.25  # shorter intervals are judged by the samples around them
INTERPRETER_WEIGHT = 0.85  # of the interpreter chunk in the host's speed


def _chunk(table, n=1000):
    for i in range(n):
        key = (i % 7, (i * 3) % 11, (i * 5) % 13, (i * 7) % 17)
        table[key] = (table.get(key, 0) + i * 31) % 32003


def _np_chunk(rows):
    for i in range(1, len(rows)):
        rows[i] = (rows[i] - 17 * rows[0]) % 32003


_TABLE = {}
_ROWS = np.arange(8 * 4096, dtype=np.int64).reshape(8, 4096) % 32003


def _median_cost(chunk, arg, seconds):
    costs = []
    start = end = time.perf_counter()
    while end - start < seconds or len(costs) < 3:
        t = end
        chunk(arg)
        end = time.perf_counter()
        costs.append(end - t)
    return statistics.median(costs)


def sample(seconds=SAMPLE_S):
    """(interpreter, numpy) median chunk costs, each run for seconds / 2."""
    return (_median_cost(_chunk, _TABLE, seconds / 2),
            _median_cost(_np_chunk, _ROWS, seconds / 2))


def speed(costs):
    """The host's speed relative to nominal, from one sample's chunk costs."""
    py, npy = costs
    return ((NOMINAL_CHUNK_S / py) ** INTERPRETER_WEIGHT
            * (NOMINAL_NP_CHUNK_S / npy) ** (1 - INTERPRETER_WEIGHT))


class SpeedSampler:
    """Speed samples every PERIOD_S while the block runs, taken with the
    measured code paused.  Use from the main thread only."""

    def __init__(self):
        self.times, self.costs = [], []  # sample instants on clock(), chunk costs
        self.paused = 0.0
        self._previous = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # an alarm due while the last sample still ran
            return
        self._busy = True
        start = time.perf_counter()
        self.times.append(start - self.paused)
        self.costs.append(sample())
        self.paused += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def clock(self):
        """perf_counter without the time spent sampling."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if self.paused == paused:
                return now - paused

    def ref_seconds(self, t0, t1):
        """The interval [t0, t1] of clock() in reference seconds."""
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        times = self.times
        lo = bisect_left(times, t0 - pad)
        hi = bisect_right(times, t1 + pad)
        while hi - lo < 2 and (lo > 0 or hi < len(times)):
            lo, hi = max(0, lo - 1), min(len(times), hi + 1)
        return (t1 - t0) * statistics.fmean(map(speed, self.costs[lo:hi]))
