"""Timing scaled to a reference machine speed, for shared, noisy hosts.

On a shared 2-vCPU cloud host (Intel Xeon) each vCPU slows by up to a third
for seconds to minutes at a time, independently of the other, and jitters
faster than that; the VM exposes no hardware counters to count work instead.
A fixed kernel that mixes what the workloads spend their time on (interpreter
loops, small numpy operations, dense LU solves) is timed before and after
every timed block, and the block's time is scaled by REFERENCE_S / (mean of
the two kernel times).  Scaled seconds are seconds at the reference speed.
Nothing in trefftzdg runs in the kernel, so a change to the solver cannot
move the scale.
"""

import statistics
import time

import numpy as np
from scipy import linalg

REFERENCE_S = 0.07   # about the median kernel time of the baseline runs (0.073 s)


class Clock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._lu = linalg.lu_factor(rng.random((600, 600)) + 600 * np.eye(600))
        self._rhs = rng.random(600)
        self._small = np.arange(50.0)
        self.kernel_samples = [self.kernel_seconds()]

    def kernel_seconds(self):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(250_000):
            s += i * 0.5
        for _ in range(4_000):
            (self._small * self._small + 1.0).sum()
        for _ in range(150):
            linalg.lu_solve(self._lu, self._rhs, check_finite=False)
        return time.perf_counter() - t0

    def time(self, fn, min_seconds=0.0):
        """Call fn until min_seconds are spent (once at least).

        Returns (last result, median scaled seconds per call, speed factor).
        The previous result is released before each further call.
        """
        times, result = [], None
        while not times or sum(times) < min_seconds:
            result = None
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
        self.kernel_samples.append(self.kernel_seconds())
        speed = REFERENCE_S / statistics.fmean(self.kernel_samples[-2:])
        return result, statistics.median(times) * speed, speed
