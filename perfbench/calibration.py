"""A fixed kernel, timed between operations, that tracks the machine's speed.

On a shared machine the CPU's speed drifts: the same operation on the same
input ran up to 1.5 times slower in one 55 s run than in the run before it.
Such a factor swamps any change of 25% in the program.  So a run times this
kernel every CALIBRATE_EVERY_S between operations, and run.py reports each
end-to-end time scaled to a nominal kernel time:

    scaled = raw * NOMINAL_MS / (median kernel time in the run)

The kernel never calls prodbase, so a change to the program moves the scaled
figures by the same factor as the raw ones; only the machine's speed is
divided out.  Its work mixes the three kinds the program does: a Python
arithmetic loop, small numpy calls made one at a time from Python, and
17-digit float formatting.
"""

from __future__ import annotations

import statistics
from time import perf_counter, perf_counter_ns

import numpy as np

CALIBRATE_EVERY_S = 0.25
# About the kernel's median time on the 2-vCPU Xeon the benchmark was tuned
# on; it only sets the scale, so scaled figures read as milliseconds there.
NOMINAL_MS = 4.0

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((64, 128)) + 1j * _rng.standard_normal((64, 128))
_FLOATS = [float(x) for x in _rng.standard_normal(400)]


def kernel() -> float:
    total = 0
    for i in range(30000):
        total += i * i % 7
    probe = _ROWS[3]
    acc = 0.0
    for i in range(600):
        acc += abs(np.vdot(_ROWS[i % 64], probe))
    text = ",".join(format(x, ".17g") for x in _FLOATS)
    return total + acc + len(text)


class Calibration:
    """Kernel times sampled through a run, at most one per CALIBRATE_EVERY_S."""

    def __init__(self):
        self.samples_ms: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        if perf_counter() - self._last < CALIBRATE_EVERY_S:
            return
        t0 = perf_counter_ns()
        kernel()
        self.samples_ms.append((perf_counter_ns() - t0) / 1e6)
        self._last = perf_counter()

    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    def factor(self) -> float:
        """NOMINAL_MS over the run's median kernel time: multiply a time by it."""
        return NOMINAL_MS / self.median_ms()
