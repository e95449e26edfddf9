"""Machine-speed calibration of the timing metrics.

On the shared 2-vCPU Xeon VM this benchmark was defined on, a fixed
pure-Python loop ran anywhere between 0.27 s and 0.55 s within one minute,
with no steal time reported, so the raw wall times of a run moved by 10-25%
between runs minutes apart.  A fixed piece of work that calls no package
code -- an interpreter loop, small dense solves and passes over a 16 MB
array, the three kinds of work the workloads do -- therefore runs before
every CLI stage and after each set-up probe.  Each time metric is scaled by
its run's speed factor REFERENCE_S / median(calibration time), so it reads
in seconds at the speed where one calibration takes REFERENCE_S.  Raw wall
times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The median calibration time on that VM.
REFERENCE_S = 0.0075


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((100, 100)) + 100.0 * np.eye(100)
        self._vector = rng.standard_normal(100)
        self._array = np.ones(2 ** 21)
        self.samples = []

    def run(self):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i
        for _ in range(20):
            np.linalg.solve(self._matrix, self._vector)
        self._array.sum()
        self._array.sum()
        self.samples.append(time.perf_counter() - start)

    def speed_factor(self):
        return REFERENCE_S / statistics.median(self.samples)
