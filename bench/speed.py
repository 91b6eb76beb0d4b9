"""Host-speed normalisation of the benchmark's times.

On the 2-vCPU VM this benchmark was built on, the speed of a core moves
between two states for seconds at a time: a fixed ``Fraction`` loop took 5.8
ms in one and 9.4 ms in the other, and identical exact-families runs read
between 127 and 258 ms per op.  So each time is divided by the speed of the
host when it was taken, measured by ``probe_ms``: a fixed pure-Python kernel
(``Fraction`` sums, complex arithmetic, dict updates) that never calls the
program, so no change to the program moves it.  A normalised time is
``raw * REF_MS / probe``: milliseconds at a host speed where the probe takes
``REF_MS``.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_MS = 1.0  # the probe's time at the reference speed; near this host's median
PROBE_EVERY_S = 0.05  # the longest stretch of ops between two probes


def _kernel():
    s = Fraction(0)
    for k in range(1, 120):
        s += Fraction(1, k * k)
    z = 0j
    for k in range(1500):
        z = z * 0.999 + complex(k, -k) * 1e-3
    d = {}
    for k in range(600):
        d[k % 37] = d.get(k % 37, 0) + k
    return s, z, d


def probe_ms() -> float:
    """The fastest of three runs of the kernel, in ms (about 1 ms here)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class SpeedTrack:
    """Probes taken between ops; each op is scaled by the probes around it."""

    def __init__(self):
        self.probes: list[tuple[int, float]] = []  # (ops done before the probe, probe ms)
        self._since = float("inf")

    def before_op(self, done: int) -> None:
        if self._since >= PROBE_EVERY_S:
            self.probes.append((done, probe_ms()))
            self._since = 0.0

    def after_op(self, seconds: float) -> None:
        self._since += seconds

    def factors(self, n: int) -> list[float]:
        """``REF_MS / probe`` for each of ``n`` ops, the probe being the mean of
        the last probe before the op and the first one after it."""
        self.probes.append((n, probe_ms()))
        out, k = [], 0
        for i in range(n):
            while self.probes[k + 1][0] <= i:
                k += 1
            out.append(2.0 * REF_MS / (self.probes[k][1] + self.probes[k + 1][1]))
        return out
