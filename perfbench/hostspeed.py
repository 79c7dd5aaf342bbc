"""Host-speed calibration: timings scaled to a fixed reference speed.

On a shared host the same code runs up to about 1.6x slower for
stretches of seconds to minutes, and both cores slow down at once
(NOTES.md, last section).  A run's raw timings then say as much about
the host's state during the run as about the program.  To take that
out, :class:`HostSpeed` times a fixed :func:`kernel` between measured
operations, while nothing else in the process runs, and every timing
``t`` taken at moment ``at`` is reported as ``t * REFERENCE_S / k(at)``,
where ``k(at)`` is the median kernel time within ``WINDOW_S`` of that
moment.  The kernel is the benchmark's own code, so a change to the
program leaves it as it is.  Each sample times the second of two
back-to-back passes: the first brings the kernel's arrays back into
the caches, so what the program did just before (and how much memory
it touched) does not leak into the sample.

The kernel mixes what the program spends its time on: interpreted
Python (the facade, the streaming twins), many small numpy calls (the
DSP), a BLAS product (the extractor) and a pass over an array much
larger than the per-core caches (the gallery's per-user matrices).
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Kernel seconds the scaled timings are expressed at (about the
#: kernel's median on the 2-core reference machine in its usual state).
REFERENCE_S = 0.003
#: Seconds between kernel samples during a measurement.
EVERY_S = 0.5
#: Kernel samples within this many seconds of a timing set its scale.
WINDOW_S = 3.0
#: Fewer samples than this in the window: use this many nearest ones.
MIN_SAMPLES = 5


class HostSpeed:
    """Kernel samples ``(moment, seconds)`` and the scale they imply."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._square = rng.standard_normal((160, 160))
        self._signal = rng.standard_normal((210, 6))
        self._sweep = rng.standard_normal((4096, 1024))  # 32 MiB
        self._ones = np.ones(1024)
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.kernel()  # first touch of the arrays is not a sample

    def kernel(self) -> float:
        total = 0
        for i in range(3000):
            total += i * i % 7
        y = self._signal
        for _ in range(30):
            y = np.abs(np.diff(y, axis=0, prepend=y[:1])) + y.mean(axis=0)
        product = self._square @ self._square @ self._square
        swept = self._sweep @ self._ones
        return total + float(y[0, 0] + product[0, 0] + swept[0])

    def sample(self) -> None:
        """Time the kernel once, now, after an untimed warming pass."""
        self.kernel()
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.seconds.append(end - start)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= EVERY_S

    def maybe_sample(self) -> float:
        """Sample if :data:`EVERY_S` has passed; the seconds that took."""
        if not self.due():
            return 0.0
        start = time.perf_counter()
        self.sample()
        return time.perf_counter() - start

    def scale(self, at: float) -> float:
        """``REFERENCE_S`` over the median kernel time within
        ``WINDOW_S`` of the moment ``at``."""
        if not self.at:
            raise ValueError("no host-speed samples")
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            nearest = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - at))
            window = [self.seconds[i] for i in nearest[:MIN_SAMPLES]]
        else:
            window = self.seconds[lo:hi]
        return REFERENCE_S / statistics.median(window)

    def run_scale(self) -> float:
        """``REFERENCE_S`` over the median of every sample of the run:
        the scale of timings taken outside the sampled stretches (the
        set-up builds)."""
        if not self.at:
            raise ValueError("no host-speed samples")
        return REFERENCE_S / statistics.median(self.seconds)

    def scaled(self, timings) -> list[float]:
        """``[(moment, seconds), ...]`` -> seconds at the reference speed."""
        return [seconds * self.scale(at) for at, seconds in timings]
