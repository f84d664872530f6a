"""Machine-speed probe that puts wall times from a noisy machine on one scale.

On a shared VM the same solve can take twice as long from one minute to the
next (measured on a 2-vCPU Xeon VM: 0.16-0.37 s for one fixed classic solve
over a minute, with process time tracking wall time).  Slow phases last from
seconds to minutes, so longer runs and medians do not remove them.

A fixed kernel of the same kind of work as the solver (a Python loop over
small numpy vector operations, no dyksplit code) is timed between solves.
A solve's time divided by the mean of the kernel times just before and just
after it, times the kernel's reference time, is the solve's time at the
reference speed.  Over the same minute the medians of ten consecutive raw
solve times varied by +-22%, the normalised ones by +-5%.

The kernel never calls the package, so a change to dyksplit moves the
normalised times exactly as much as the raw ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median kernel time on the VM described above (Python 3.11, numpy 2.4).
REFERENCE_S = 0.0100
_ITERATIONS = 1500


class SpeedProbe:
    """Call factor() after each timed section; divide its times by the result."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((20, 20))
        self._v = rng.standard_normal(20)
        self._last = self.kernel()
        self.samples = []

    def kernel(self):
        a, v = self._a, self._v
        acc = 0.0
        t0 = perf_counter()
        for i in range(_ITERATIONS):
            w = a @ v
            acc += float(np.linalg.norm(w - v)) + 1e-9 * float(w @ v)
            row = {"n": i, "acc": acc}
            acc += 0.0 * row["acc"]
        return perf_counter() - t0

    def factor(self):
        """Slowdown of the section just timed relative to the reference."""
        now = self.kernel()
        f = 0.5 * (self._last + now) / REFERENCE_S
        self._last = now
        self.samples.append(f)
        return f
