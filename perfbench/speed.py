"""In-run host speed calibration.

On a shared host the CPU speed drifts by up to 1.7x, in plateaus that
last 10-20 s.  A plateau is longer than one benchmark item and about
as long as one run, so averaging within a run cannot remove it.

The benchmark therefore times a fixed numpy kernel twice a second,
between items.  The kernel is complex passband matmuls, an
elementwise resist and a float64 GEMM: the operation mix of the litho
engine and the nn layer, but independent of the program under test.

Each item's raw time is scaled by ``REFERENCE_S / local kernel time``.
The local kernel time is the median of the samples taken from 2 s
before the item to 2 s after it, including at least the nearest sample
on each side.  The result is the item's time at the reference speed,
that is, on a host where the kernel takes ``REFERENCE_S``.  A change to
the program moves this normalized time; a change of host speed mostly
does not.  Raw times are printed next to the normalized ones.
"""

from __future__ import annotations

import bisect
import time
from typing import List

import numpy as np

#: Kernel time (s) of one sample at the reference speed: the median of
#: the in-run samples of 15 benchmark runs on a 2-core x86 host, so
#: normalized times read close to raw ones there.
REFERENCE_S = 0.0085
#: Take a sample before an item when the last one is older than this.
INTERVAL_S = 0.5
#: Samples this close to an item count towards its local speed.
WINDOW_S = 2.0


class Speedometer:
    """Times the calibration kernel and normalizes item times.

    The kernel writes into preallocated buffers only: a temporary above
    the allocator's mmap threshold would make its time depend on the
    allocator state the program left behind rather than on the host.
    """

    def __init__(self):
        rng = np.random.default_rng(20180624)
        self._kernels = (rng.standard_normal((12, 20, 20))
                         + 1j * rng.standard_normal((12, 20, 20)))
        self._rows = (rng.standard_normal((128, 20))
                      + 1j * rng.standard_normal((128, 20)))
        self._cols = (rng.standard_normal((20, 128))
                      + 1j * rng.standard_normal((20, 128)))
        self._weights = rng.standard_normal((64, 288))
        self._columns = rng.standard_normal((288, 256))
        self._half = np.empty((128, 20), dtype=complex)
        self._field = np.empty((128, 128), dtype=complex)
        self._power = np.empty((128, 128))
        self._intensity = np.empty((128, 128))
        self._features = np.empty((64, 256))
        self.times: List[float] = []
        self.samples: List[float] = []
        self._scale = 0.0
        self._block()
        self._scale = 1.0 / float(np.mean(self._power))
        self._block()

    def _block(self) -> float:
        """Passband fields and intensity (complex matmuls), a sigmoid
        resist and a convolution-sized GEMM: the litho engine's and the
        nn layer's operation mix."""
        intensity = self._intensity
        intensity.fill(0.0)
        for kernel in self._kernels:
            np.matmul(self._rows, kernel, out=self._half)
            np.matmul(self._half, self._cols, out=self._field)
            np.abs(self._field, out=self._power)
            np.multiply(self._power, self._power, out=self._power)
            np.add(intensity, self._power, out=intensity)
        # Sigmoid resist around the mean intensity (an O(1) argument:
        # exp never underflows into the slow denormal path).
        np.multiply(intensity, -self._scale, out=intensity)
        np.exp(intensity, out=intensity)
        np.add(intensity, 1.0, out=intensity)
        np.reciprocal(intensity, out=intensity)
        np.matmul(self._weights, self._columns, out=self._features)
        return float(intensity.sum() + self._features.sum())

    def sample(self) -> None:
        # The first block pulls the kernel's arrays back into the caches
        # the program just used; only the warm blocks are timed.
        self._block()
        started = time.perf_counter()
        for _ in range(4):
            self._block()
        ended = time.perf_counter()
        self.times.append(ended)
        self.samples.append(ended - started)

    def burst(self, count: int) -> None:
        """``count`` samples in a row, before work the parent cannot
        sample during (a library chunk, a chip in the pool)."""
        for _ in range(count):
            self.sample()

    def tick(self) -> None:
        """Sample if the last sample is older than :data:`INTERVAL_S`."""
        if not self.times or time.perf_counter() - self.times[-1] >= \
                INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor turning a raw duration over ``[start, end]`` into
        reference-speed seconds."""
        if not self.samples:
            raise RuntimeError("no calibration sample taken")
        first = min(bisect.bisect_left(self.times, start - WINDOW_S),
                    bisect.bisect_right(self.times, start) - 1)
        last = max(bisect.bisect_right(self.times, end + WINDOW_S),
                   bisect.bisect_left(self.times, end) + 1)
        local = self.samples[max(first, 0):last]
        return REFERENCE_S / float(np.median(local))

    def normalize(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)

    def median_s(self) -> float:
        return float(np.median(self.samples)) if self.samples else 0.0
