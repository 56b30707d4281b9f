"""Reference clock: op times in seconds of the reference machine at full speed.

The benchmark runs on shared machines. There, other tenants slow every
process by up to 1.6x, in phases that last from under a second to
minutes. One quiet run and one slow run of the same code can differ more
than any bound worth setting. So every op is timed together with a fixed
kernel that uses no swron code. The kernel runs right after each op, and
the op's wall time is scaled by REFERENCE_KERNEL_S divided by the mean
of the kernel times just before and just after the op. A swron change
moves the op time but not the kernel, so the scaled figures compare two
commits on one machine. They do so whatever the machine's phase is
during each run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference machine in its fast phase: a
# 2-vCPU x86-64 VM at 2.0 GHz, Python 3.11, numpy 2.4, one OpenBLAS thread.
REFERENCE_KERNEL_S = 1.20e-3

_MATRIX = np.random.default_rng(0).standard_normal((24, 24))


def kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and small dense
    linear algebra, the two kinds of work swron's ops are made of."""
    t0 = time.perf_counter()
    total = 0
    for i in range(150):
        table = {j: j * i for j in range(12)}
        total += sum(table.values())
    for _ in range(8):
        np.linalg.svd(_MATRIX)
        _ = _MATRIX @ _MATRIX
        np.max(np.abs(_MATRIX))
    return time.perf_counter() - t0


class RefClock:
    """Converts wall seconds of consecutive ops into reference seconds."""

    def __init__(self):
        self.last = kernel()
        self.kernels = [self.last]

    def scale(self, wall: float) -> float:
        """Reference seconds for ``wall`` seconds of work that just ended."""
        now = kernel()
        factor = REFERENCE_KERNEL_S / (0.5 * (self.last + now))
        self.last = now
        self.kernels.append(now)
        return wall * factor

    def speed(self) -> float:
        """Machine speed over the run relative to the reference (1 = full)."""
        return REFERENCE_KERNEL_S / statistics.median(self.kernels)
