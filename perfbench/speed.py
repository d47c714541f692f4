"""Speed probe: a fixed computation, timed between items, that tracks host speed.

The reference host (a 2-core Xeon shared with other tenants) changes
speed in stretches of seconds to minutes: the same pure-Python loop takes
43 ms in one stretch and 68 ms in the next, and raw times of one workload
spread by 30% across runs. The benchmark therefore takes a probe sample
before the first item and after every item, and divides each item's time
by the slowness of the two samples around it: the faster of the two over
``REFERENCE_SAMPLE_S``. The faster one, because a burst of neighbour load
that hits one short sample says little about the whole item; it only
ever adds time. End-to-end times then read as seconds at the speed the
host had when the reference was taken.

The kernel mixes, in about equal parts, the kinds of work the layers do,
without calling the package: an interpreted loop (the oracle's
enumeration), dense symmetric eigensolves (the relaxation), one small
generator per draw (rounding), small complex products (SHAPE and LPNN) and
elementwise numpy over a few MB. On the reference host a least-squares fit
of item times on the five parts gave each workload weights summing to
about 1, and no single part tracked all three workloads as well as the mix.

It runs in the benchmark's own process, on the same BLAS threads as the
package, because a helper process contends with those threads while they
spin down after a call. The flip side: a change that alters process-wide
BLAS threading moves the probe too, which the ``blas_threads`` entry of
the environment record shows.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: a typical probe sample on the reference host (2-core Xeon, numpy 2.4.6,
#: OpenBLAS 0.3.31 with 2 threads); it fixes the unit, not the spread
REFERENCE_SAMPLE_S = 0.075


class SpeedProbe:
    """Times one fixed kernel per ``sample`` call and keeps every sample."""

    def __init__(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((256, 256))
        self._matrix = matrix + matrix.T
        self._dft = np.exp(-2j * np.pi * np.outer(np.arange(64), np.arange(64)) / 64)
        self._vector = rng.standard_normal(1 << 18)
        self.samples: list = []
        self.sample()  # the first LAPACK call pays one-off set-up
        self.samples.clear()

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):  # interpreted loops: oracle enumeration
            acc += i * i
        for _ in range(2):  # dense symmetric eigensolves: the relaxation
            np.linalg.eigh(self._matrix)
        for i in range(800):  # one generator per trial: rounding draws
            np.random.default_rng(i).standard_normal(64)
        x = self._dft[0]
        for _ in range(1000):  # small complex products: SHAPE and LPNN steps
            x = self._dft @ (x / np.abs(x).max())
        for _ in range(10):  # elementwise passes over a few MB
            np.sqrt(self._vector * self._vector + 1.0).sum()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def bracket(self) -> float:
        """Take a sample; return the slowness over it and the sample before.

        Called right after a timed piece of work, with a sample taken right
        before it, this is the slowness to divide that work's time by.
        """
        self.sample()
        return min(self.samples[-2], self.samples[-1]) / REFERENCE_SAMPLE_S

    def slowness(self) -> float:
        """Median sample over the reference sample: 1.2 means the host ran 20% slow."""
        return statistics.median(self.samples) / REFERENCE_SAMPLE_S
