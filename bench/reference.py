"""A fixed reference kernel that gauges how fast the host runs at the moment.

The benchmark runs on a few cores of a shared host.  Other tenants' load
changes its speed by up to 1.6x for stretches of seconds to minutes, so two
runs of the same code can differ by that much in seconds.  Interpreter,
LAPACK and matrix-product code slow down together: over two minutes of such
drift, the ratios of their times stayed within 5% while each time moved by
25%.  The worker therefore times this kernel between jobs, and the benchmark
reports job costs as multiples of its time.  The kernel does not call the
program, and it binds its numpy functions before the tracer patches any.

Its mix follows the program's: string formatting and dict work (CSV writing,
JSON, covers' permutations), batched Hermitian and general eigensolves of
small matrices (sweep, variety, pointwise), and a matrix product.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

_eigvalsh = np.linalg.eigvalsh
_eigvals = np.linalg.eigvals
_matmul = np.matmul

#: take a reference sample before a job once this many seconds have passed
#: since the last one, so short jobs are not swamped by samples
EVERY_S = 0.05
#: a job's reference time is the median of this many latest samples
WINDOW = 5


def _inputs():
    rng = np.random.default_rng(20220128)
    h = rng.normal(size=(192, 8, 8)) + 1j * rng.normal(size=(192, 8, 8))
    g = rng.normal(size=(48, 8, 8)) + 1j * rng.normal(size=(48, 8, 8))
    return h + h.conj().transpose(0, 2, 1), g, rng.normal(size=(256, 256))


class Reference:
    """Times the kernel on demand and keeps a running median of its time."""

    def __init__(self):
        self.hermitian, self.general, self.square = _inputs()
        self.samples = []
        self.recent = deque(maxlen=WINDOW)
        self.last = -float("inf")

    def kernel(self) -> float:
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[f"{i * 0.37:.12e}"] = i % 7
        _eigvalsh(self.hermitian)
        _eigvals(self.general)
        _matmul(self.square, self.square)
        return time.perf_counter() - t0

    def before_job(self) -> float:
        """Sample the kernel if one is due; returns the current reference time."""
        if time.perf_counter() - self.last >= EVERY_S:
            seconds = self.kernel()
            self.samples.append(seconds)
            self.recent.append(seconds)
            self.last = time.perf_counter()
        return statistics.median(self.recent)
