"""The machine's speed during a run, from fixed reference kernels.

The benchmark shares its CPU cores with other tenants of the host.  When
they are busy the same code runs up to ~1.6 times slower, for stretches
of a tenth of a second to many minutes, and the guest sees no sign of it
(CPU time grows with wall time; steal time stays near zero).  So before
and after each of the program's operations the benchmark runs two small
kernels that never change and call nothing of the program, and it
reports times at the kernels' nominal speed:

    reported = measured * NOMINAL_S[kind] / (mean time of one kernel call
                                             of that kind, in the same unit)

Interpreted Python and numpy array work slow down by different factors
under the same load, so there is one kernel of each kind, and each
workload scales by the kind its own time goes to.  A change to the
program moves the measured time and leaves the kernels alone, so it
shows in full; a change in the host's load moves both and largely
cancels.
"""
from __future__ import annotations

import time

import numpy as np

_SMALL = np.random.default_rng(0).standard_normal((32, 4096))
_LARGE = np.ones(2**21, dtype=complex)  # 32 MiB


def interpreter_kernel() -> int:
    """Interpreted Python: a loop of integer arithmetic."""
    s = 0
    for i in range(40_000):
        s += i * i % 7
    return s


def array_kernel() -> float:
    """numpy: an FFT of a cache-sized block and a pass over a 32 MiB array."""
    np.multiply(_LARGE, 1.0, out=_LARGE)
    return float(np.abs(np.fft.fft(_SMALL, axis=1)).sum())


KERNELS = {"interpreter": interpreter_kernel, "array": array_kernel}

# nominal time of one call of each kernel: its typical time on the
# reference machine (2-vCPU AMD EPYC VM, one BLAS thread), rounded
NOMINAL_S = {"interpreter": 0.0014, "array": 0.0018}


class SpeedProbe:
    """Runs the reference kernels in slices and keeps their times."""

    def __init__(self):
        self.walls = {kind: [] for kind in KERNELS}
        self.cpus = {kind: [] for kind in KERNELS}

    def slice(self, budget_s: float) -> None:
        """Run each kernel at least once, and until ``budget_s`` has passed."""
        start = time.perf_counter()
        while True:
            for kind, kernel in KERNELS.items():
                c0 = time.process_time()
                t0 = time.perf_counter()
                kernel()
                self.walls[kind].append(time.perf_counter() - t0)
                self.cpus[kind].append(time.process_time() - c0)
            if time.perf_counter() - start >= budget_s:
                return

    def mark(self) -> int:
        return len(self.walls["array"])

    def factors(self, kind: str, since: int = 0) -> tuple[float, float]:
        """(wall, cpu) factors that scale times measured since ``mark`` to
        nominal speed, by the kernel of ``kind``."""
        walls, cpus = self.walls[kind][since:], self.cpus[kind][since:]
        nominal = NOMINAL_S[kind]
        return nominal * len(walls) / sum(walls), nominal * len(cpus) / sum(cpus)

    def median(self, kind: str) -> float:
        walls = sorted(self.walls[kind])
        return walls[len(walls) // 2]
