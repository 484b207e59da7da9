"""A pass clock in reference seconds, corrected for the machine's speed swings.

On a shared machine the same single-threaded code runs up to twice as slowly
from one second or minute to the next, and CPU time swings with wall time,
so neither compares across runs as it is.  While a pass runs, an interval
timer interrupts it every INTERVAL_S to time a fixed calibration kernel:
conjugate gradients on two 5-point Laplacians in plain numpy and scipy,
independent of fmes.  The clock advances through each segment between
samples at the speed the last sample measured, scaled so that it reads
seconds at the speed where the kernel takes REFERENCE_S; the kernel's own
time is excluded.  The handler runs in the main thread between bytecodes,
so the program's state is never touched.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
import scipy.sparse as sp

INTERVAL_S = 0.25
# Median kernel time on the 2-core reference machine (numpy 2.4, scipy 1.17)
# during a quiet period; it only fixes the unit, so any constant would do.
REFERENCE_S = 0.0075


def _laplacian(m: int) -> sp.csr_matrix:
    d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    return (sp.kron(sp.eye(m), d) + sp.kron(d, sp.eye(m))).tocsr()


class ReferenceClock:
    """Call for the current reading; use as a context manager around a pass."""

    def __init__(self):
        # a small system (call overhead) and a large one (memory traffic),
        # like the solves of paper_run and fine_grid
        self._systems = [(_laplacian(26), 100), (_laplacian(201), 10)]
        self.kernel()
        self.samples: list[float] = []
        self._reading = 0.0
        self._mark = perf_counter()
        self._scale = 1.0
        self._seq = 0
        self._sampling = False

    def kernel(self) -> float:
        """Seconds the calibration kernel takes now."""
        start = perf_counter()
        for A, iterations in self._systems:
            r = np.ones(A.shape[0])
            p = r.copy()
            rr = r @ r
            for _ in range(iterations):
                ap = A @ p
                r = r - (rr / (p @ ap)) * ap
                rr, rr_old = r @ r, rr
                p = r + (rr / rr_old) * p
        return perf_counter() - start

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:                  # a signal landed in the kernel
            return
        self._sampling = True
        now = perf_counter()
        kernel = self.kernel()
        self.samples.append(kernel)
        self._reading += (now - self._mark) * self._scale
        self._scale = REFERENCE_S / kernel
        self._mark = perf_counter()
        self._seq += 1
        self._sampling = False

    def __call__(self) -> float:
        while True:
            seq = self._seq
            elapsed = perf_counter() - self._mark
            reading = self._reading + elapsed * self._scale
            if seq == self._seq:            # no sample landed in between
                return reading

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
