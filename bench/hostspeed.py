"""Host speed, gauged by a fixed kernel timed between ops.

The benchmark runs on a few cores of a shared host, whose speed drifts
with its other tenants: the same op list, in the same process layout,
took from 10 s to 16 s within one hour. Drift of that size swamps any
change to the package. So the loop times a fixed probe kernel between
ops, once PROBE_EVERY_S seconds have passed since the last probe, and the
timing metrics are scaled by how much slower the probe ran than
NOMINAL_PROBE_S.

The probe does not call the package, so no change to the package moves
it; it mixes the three kinds of work the ops do (interpreter-bound Python,
numpy calls on small arrays, and LAPACK on a mid-size matrix) so that it
slows down with the host about as much as they do.
"""

from __future__ import annotations

import time

import numpy as np

# A probe runs before an op once this much time has passed since the last.
PROBE_EVERY_S = 0.2

# Probe time on the host the benchmark was defined on (2-vCPU Xeon,
# Sapphire Rapids, one BLAS thread), as a round figure near its median
# there. It only sets the scale of the reported times: "seconds at
# nominal host speed".
NOMINAL_PROBE_S = 3.2e-3


class HostSpeed:
    """Probes taken between the ops of one loop, and the op time that runs
    between each probe and the next."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((80, 320))
        self._b = rng.standard_normal(80)
        self._C = rng.standard_normal((120, 120))
        self.probes = []    # probe seconds, in loop order
        self.covered = []   # op seconds between probe j and probe j + 1
        self._last = -np.inf

    def _kernel(self):
        acc = 0
        for i in range(10000):
            acc += i * i
        A, b = self._A, self._b
        z = np.zeros(A.shape[1])
        for _ in range(20):
            r = A @ z - b
            z = z - 2e-3 * (A.T @ r)
            z = np.sign(z) * np.maximum(np.abs(z) - 1e-4, 0.0)
            acc += float(np.linalg.norm(r)) > 0
        np.linalg.svd(self._C, compute_uv=False)
        return acc

    def probe(self) -> float:
        """Best of two kernel runs: the first one can pay for the caches
        that a large op before it evicted."""
        best = np.inf
        for _ in range(2):
            t = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t)
        return best

    def before_op(self):
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probes.append(self.probe())
            self.covered.append(0.0)
            self._last = time.perf_counter()

    def after_op(self, op_s: float):
        self.covered[-1] += op_s

    def finish(self):
        """The closing probe, after the last op."""
        self.probes.append(self.probe())

    def slowdown(self) -> float:
        """Probe time over NOMINAL_PROBE_S, averaged over the loop's op
        time: the ops between two probes count at the mean of the two."""
        p, w = np.asarray(self.probes), np.asarray(self.covered)
        if len(p) != len(w) + 1:
            raise RuntimeError("slowdown() needs finish() after the last op")
        return float((p[:-1] + p[1:]) / 2 @ w / w.sum()) / NOMINAL_PROBE_S
