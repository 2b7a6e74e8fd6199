"""Host speed probe.

On a shared host one core's speed drifts by 20-40% over tens of seconds,
as other tenants load the same physical cores, and every kind of work slows
together. ``HostProbe`` times one fixed kernel about once a second between
trials. A trial's wall time divided by the probe's mean time in the same run
keeps what the program costs and drops most of the host's drift.
"""

from __future__ import annotations

import math
import time

import numpy as np


class HostProbe:
    interval_s = 1.0

    def __init__(self) -> None:
        rng = np.random.default_rng(0)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._a, self._x, self._c = cplx(400, 500), cplx(500, 8), cplx(160, 160)
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = -math.inf

    def kernel(self) -> float:
        """Three parts of a few milliseconds each, one per kind of work the
        pipeline does."""
        for _ in range(20):
            self._a @ self._x       # memory-bound complex products (SOMP, AMP)
        for _ in range(12):
            self._c @ self._c       # in-cache complex BLAS (q(X) factorization)
        t = 1.0
        for v in range(40000):      # interpreted scalar loop (1F1 series)
            t = t * 0.999 + 1.0 / (v + 1)
        return t

    def after_trial(self, _result) -> dict[str, float]:
        """Sample the kernel if a second has passed; an observer for the
        ``run_trial`` binding, so it adds no counts."""
        start = time.perf_counter()
        if start - self._last >= self.interval_s:
            self.kernel()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)
            self.spent_s += self._last - start
        return {}
