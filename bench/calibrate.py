"""Host-speed calibration for timings taken on a shared, drifting machine.

On a small shared host the same code runs up to about 1.5x slower for
stretches of seconds to minutes while neighbours are busy, which no number
of repeats inside one run can remove.  A fixed calibration loop, built from
the same kinds of work fusedec does (dict and heap updates on tuple keys,
small numpy products), is timed in short bursts throughout the run.  Each
measured duration is then scaled by ``NOMINAL_S`` over the loop's median
time around it, which expresses it in seconds of a host running at the
reference speed.  The raw durations are reported alongside.
"""

from __future__ import annotations

import bisect
import heapq
import statistics
import time

import numpy as np

_clock = time.perf_counter

# Best burst time of ``_loop`` on the reference host (2-vCPU Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4) in its fast phase.
NOMINAL_S = 1.2e-3
SAMPLE_EVERY_S = 0.2
WINDOW_S = 2.0

_A = np.linspace(-1.0, 1.0, 256).reshape(16, 16)


def _loop() -> float:
    d: dict[tuple[int, int], float] = {}
    heap: list[tuple[float, int]] = []
    for i in range(1500):
        k = ((i * 7919) % 61, i % 7)
        d[k] = d.get(k, 0.0) + 0.5 * i
        heapq.heappush(heap, (d[k], i))
        if len(heap) > 32:
            heapq.heappop(heap)
    v = _A[0]
    for _ in range(60):
        v = np.tanh(v @ _A)
    return heap[0][0] + float(v[0])


class Speedometer:
    """Timestamps of calibration bursts and the loop time each measured."""

    def __init__(self):
        self.times: list[float] = []
        self.loop_s: list[float] = []
        self.spent = 0.0
        self._next = 0.0

    def sample(self) -> None:
        """Time the loop three times and keep the best."""
        start = _clock()
        best = float("inf")
        for _ in range(3):
            t0 = _clock()
            _loop()
            best = min(best, _clock() - t0)
        end = _clock()
        self.times.append((start + end) / 2)
        self.loop_s.append(best)
        self.spent += end - start
        self._next = end + SAMPLE_EVERY_S

    def maybe_sample(self) -> None:
        if _clock() >= self._next:
            self.sample()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        mid = start + seconds / 2
        half = seconds / 2 + WINDOW_S
        lo = bisect.bisect_left(self.times, mid - half)
        hi = bisect.bisect_right(self.times, mid + half)
        if hi - lo < 3:
            k = bisect.bisect_left(self.times, mid)
            lo, hi = max(0, k - 2), min(len(self.times), k + 2)
        return seconds * NOMINAL_S / statistics.median(self.loop_s[lo:hi])
