"""Machine-speed calibration for the timed metrics.

The benchmark's host is shared: the same rows run back to back vary by
10-35% in speed over minutes as neighbouring load comes and goes, far more
than the bounds in BENCHMARK.json allow.  So on the workloads pinned to
one BLAS thread each measuring process also times a fixed calibration
kernel, interleaved with the program's calls, and scales each call's time
by how fast the kernel ran around it, against the kernel's reference time:

    reported call time = measured * KERNEL_REF_MS / median(nearby kernel times)

The timed end-to-end metrics are computed from the reported call times.

The kernel is plain numpy, independent of the program, and shaped like
the program's hot path (the per-velocity-class batches of
fluctuations.diffusion_correlator_batch and _eliminate_batch over the
shipped 2561-class rule), so host load slows it in step with the program.
No change to the program can change the kernel.
"""

from __future__ import annotations

import bisect
import statistics
import time

# The kernel's usual median time on the 2-core x86-64 shared host the benchmark
# was built on: a reported time reads as milliseconds on that machine at its
# usual speed.
KERNEL_REF_MS = 45.0
# Share of the program's call time spent again on the kernel.
KERNEL_SHARE = 0.25
CLASSES = 2561
# Kernel runs whose median scales one call: about 0.4 s of kernel time.
NEIGHBOURS = 8


class Kernel:
    """A fixed batch of small complex linear algebra on seeded inputs.

    Only the per-class vector is kept between runs; the matrices are
    rebuilt from it in every run, as the program rebuilds its generators,
    so the kernel never holds memory while the program runs.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.means = (rng.standard_normal((CLASSES, 9))
                      + 1j * rng.standard_normal((CLASSES, 9)))
        self.gdec = rng.standard_normal((9, 9))
        prod = rng.integers(-1, 9, (9, 9))
        self.mask, self.safe = prod >= 0, prod.clip(min=0)
        self.kp = rng.standard_normal((4, 8)) + 0j
        self.j8 = np.eye(8)[::-1]

    def run(self) -> float:
        np = self.np
        m = self.means
        # einsum, not a (K, 9) @ (9, 9) matmul: BLAS would thread that one,
        # and the kernel must time one core whatever the BLAS setting
        gm = np.einsum("kl,al->ka", m, self.gdec)
        mp = m[:, self.safe] * self.mask
        corr = (gm[:, self.safe] * self.mask - np.einsum("al,klb->kab", self.gdec, mp)
                - np.einsum("bl,kal->kab", self.gdec, mp))
        # diagonally dominant, so every solve is well conditioned
        b = 0.1 * np.einsum("ki,kj->kij", m[:, :8], m[:, 1:].conj()) - 8.0 * np.eye(8)
        btil = -1j * 0.5 * np.eye(8)[None, :, :] - b
        rhs = np.broadcast_to(self.kp.T.conj(), (CLASSES, 8, 4)).copy()
        t = np.linalg.solve(btil.conj().transpose(0, 2, 1), rhs).conj().transpose(0, 2, 1)
        sv = (t @ corr[:, 1:, 1:] @ self.j8) @ t.conj().transpose(0, 2, 1)
        return float(sv.real.sum())


class Calibrator:
    """Runs the kernel between program calls, KERNEL_SHARE of their time,
    and gives the speed factor at any moment of the sweep."""

    def __init__(self, kernel=None):
        self.kernel = kernel or Kernel()
        self.program_s = self.kernel_s = 0.0
        self.times: list[float] = []       # midpoint of each kernel run
        self.samples: list[float] = []     # its duration, seconds
        self.kernel.run()                  # warm-up, untimed

    def after_call(self, call_seconds: float):
        self.program_s += call_seconds
        while self.kernel_s < KERNEL_SHARE * self.program_s:
            start = time.perf_counter()
            self.kernel.run()
            end = time.perf_counter()
            self.times.append(0.5 * (start + end))
            self.samples.append(end - start)
            self.kernel_s += end - start

    def kernel_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    def factor_at(self, t: float) -> float:
        """KERNEL_REF_MS over the median of the NEIGHBOURS kernel runs
        nearest to time t: multiply a time measured around t by this.
        Load on a shared host comes in bursts of a few seconds, so a
        factor for the whole run would leave them in the tail latencies."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.times) - NEIGHBOURS))
        return KERNEL_REF_MS / (1e3 * statistics.median(self.samples[lo:lo + NEIGHBOURS]))
