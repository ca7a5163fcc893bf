"""Machine-speed calibration for a shared, noisy host.

On a shared 2-core host the same code runs up to ~1.5x slower while other
tenants are busy, in phases that last from seconds to minutes; CPU time
slows with wall time. Such a phase scales every time measured in a run by
about the same factor. The runner therefore times a fixed reference kernel,
which uses nothing from the package, on the measuring thread between
operations (at most every MIN_GAP_S), leaves that time out of every
measured time, and scales each end-to-end time by ``REFERENCE_S /
mean(kernel times)``. A calibrated second is a second on a host that runs
the kernel in REFERENCE_S. A change to the package moves calibrated and raw
times alike; a busy neighbour moves the raw ones only.

Speed flips between a fast and a slow mode, so the median of a run's times
follows whichever mode held more than half the run, while the mean follows
the share of time spent in each. The kernel's mean follows that share too,
which is why the factor uses the mean and the runner averages per-op times.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel's time on the 2-core host the bounds were set on, when quiet.
REFERENCE_S = 0.034
MIN_GAP_S = 0.5


def kernel() -> None:
    """Interpreter work of the kinds the package does (Fraction sums,
    frozensets, dicts) plus the numpy calls its sampler makes."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(1, i % 97 + 1)
    counts = {}
    for i in range(30000):
        z = frozenset((i % 251, i % 127, i % 31))
        counts[z] = counts.get(z, 0) + 1
    rng = np.random.default_rng(1)
    cum = np.cumsum(rng.integers(1, 100, 16))
    for _ in range(100):
        idx = np.searchsorted(cum, rng.integers(0, cum[-1], 2000), side="right")
        np.unique(idx[idx > 3], return_index=True)


class Calibrator:
    """Kernel timings collected through a run."""

    def __init__(self):
        kernel()  # warm-up, untimed
        self.samples: list[float] = []
        self.spent = 0.0  # kernel seconds, to leave out of pass times
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1

    def maybe_sample(self) -> None:
        """Sample unless the last sample ended under MIN_GAP_S ago."""
        if time.perf_counter() - self._last >= MIN_GAP_S:
            self.sample()

    def factor(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)
