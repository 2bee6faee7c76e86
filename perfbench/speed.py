"""A speed probe: fixed calibration loops timed next to every measurement.

The machine this benchmark was tuned on is a small VM that shares its CPUs;
its speed drifts by up to 2x in spells that last from a fraction of a second
to minutes, and the timings drift with it. So each sample is scaled to a
reference speed: seconds x reference / probe, where probe is the median of
the probes taken around the sample. The probe has two parts, because the
drift hits them differently: `call` is a Python loop of tiny numpy calls,
`array` streams and sorts arrays larger than the L2 cache. Long array-bound
operations (a fit, a validation, a CLI process) are scaled by `array`
alone; rollouts and predicts, which are Python loops over small arrays, by
the geometric mean of both. On 4 to 6 runs per workload this was the
choice with the smallest run-to-run spread. The probe runs no kooplift
code, so a change to kooplift cannot move it.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# probe times that define the reference speed
REFERENCE_S = {"call": 5e-4, "array": 1.5e-3}
INTERVAL_S = 0.05  # probe before an operation if the last probe is older
WINDOW_S = 0.3  # probes this close to a sample estimate the speed it ran at


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.random((6, 6)) * 0.1
        self._vector = np.ones(6)
        self._array = rng.random(400_000)
        self.starts = []
        self.seconds = {part: [] for part in REFERENCE_S}
        self._last = float("-inf")

    def measure(self):
        t0 = time.perf_counter()
        z = self._vector
        for _ in range(500):
            z = self._matrix @ z
        t1 = time.perf_counter()
        self._array.sum()
        np.sort(self._array[:40000])
        (self._array * 1.5).max()
        self._last = time.perf_counter()
        self.starts.append(t0)
        self.seconds["call"].append(t1 - t0)
        self.seconds["array"].append(self._last - t1)

    def maybe_measure(self):
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.measure()

    def scaled(self, samples, parts):
        """Map samples [(start, seconds)] to seconds at the reference speed.

        A sample's speed is the median of the probes within WINDOW_S of it
        (or of the nearest probe on each side if there are none), each probe
        being the geometric mean of `parts`, relative to the reference."""
        logs = np.mean([np.log(np.divide(self.seconds[p], REFERENCE_S[p])) for p in parts], axis=0)
        relative = np.exp(logs)
        out = []
        for start, seconds in samples:
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
            if hi > lo:
                speed = float(np.median(relative[lo:hi]))
            else:
                before = bisect.bisect_right(self.starts, start) - 1
                after = bisect.bisect_left(self.starts, start + seconds)
                speed = float(np.mean([relative[k] for k in (before, after)
                                       if 0 <= k < len(relative)]))
            out.append(seconds / speed)
        return out
