"""Machine-speed gauge: a fixed kernel timed between library calls.

On small shared machines the CPU's speed drifts by up to a factor of about
1.6, over seconds to minutes, with the same code and inputs: it runs fast
for a while after an idle spell and slows under sustained load or when
neighbours are busy. That drift swamps the differences the benchmark is
meant to resolve. So the run times this kernel, which does not touch the
library, before the first item, after each item once ``INTERVAL_S`` has
passed, and after the last item. Each item's time is multiplied by
``REFERENCE_S`` over the mean kernel time of the two marks around it, so
times read as seconds on a machine where the kernel takes ``REFERENCE_S``,
and a slowdown that hits the kernel and the library alike cancels.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 2e-3
INTERVAL_S = 0.25
REPEATS = 3  # a mark is the fastest of these, which drops interrupts

_VEC = np.linspace(0.1, 1.0, 64)


def kernel() -> float:
    """Scalar float arithmetic and small numpy calls, the library's hot-path mix."""
    y1, y2 = 1.0, 0.5
    for _ in range(6000):
        k1 = 0.3 * y2 - 0.1 * y1
        k2 = 0.7 * y1 + 0.1 * y2
        y1 += 1e-4 * k1
        y2 += 1e-4 * k2
    for _ in range(150):
        float(np.sum(_VEC * _VEC))
        bool(np.any(_VEC <= 0.0))
    return y1 + y2


class Gauge:
    """Kernel timings tagged with the number of items done before each."""

    def __init__(self):
        self.marks: list[tuple[int, float]] = []
        self._last = -math.inf

    def mark(self, done: int) -> None:
        best = math.inf
        for _ in range(REPEATS):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        self.marks.append((done, best))
        self._last = perf_counter()

    def due(self) -> bool:
        return perf_counter() - self._last >= INTERVAL_S

    def scales(self, n: int) -> np.ndarray:
        """Per-item factor REFERENCE_S / kernel time for items 0..n-1."""
        out = np.full(n, np.nan)
        for (lo, a), (hi, b) in zip(self.marks, self.marks[1:]):
            out[lo:hi] = 2.0 * REFERENCE_S / (a + b)
        if np.isnan(out).any():
            raise ValueError("an item is not bracketed by two gauge marks")
        return out

    def kernel_median(self) -> float:
        return statistics.median(b for _, b in self.marks)
