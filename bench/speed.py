"""Host speed, sampled with a fixed reference kernel between operations.

On a shared machine the same work can take 40 % longer for minutes at a
time when neighbours are busy.  The benchmark times the reference kernel
between operations throughout a run and scales every time it reports by
``REFERENCE_S / mean kernel time``, so a run on a slow stretch of the host
reads like one on a quiet stretch.  The kernel is benchmark code and never
touches ucspd, so a change to the program cannot move it; raw wall times
are kept in the result file beside the scaled ones.
"""

import time

import numpy as np

# about the mean kernel time on the 2-vCPU Intel Xeon host the benchmark was
# tuned on; it only sets the scale of the reported times
REFERENCE_S = 0.004
SAMPLE_EVERY_S = 0.1

_SIGNAL = np.linspace(0.0, 1.0, 6001)


def reference_kernel() -> float:
    """Seconds this fixed mix of work takes now.

    The mix resembles what ucspd operations do: per-point random generator
    construction, nine-digit number formatting and an FFT convolution.  It
    allocates little, so it does not move the worker's peak RSS.
    """
    start = time.perf_counter()
    for index in range(40):
        np.random.default_rng(np.random.SeedSequence(7, spawn_key=(index,))).poisson(3.0)
    ",".join(f"{value:.9g}" for value in _SIGNAL[:3000])
    np.fft.irfft(np.fft.rfft(_SIGNAL, 16384) ** 2)
    return time.perf_counter() - start


class Sampler:
    """Kernel samples spread over a run, at most one per ``SAMPLE_EVERY_S``."""

    def __init__(self) -> None:
        self.samples = []
        self._last = float("-inf")

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now - self._last >= SAMPLE_EVERY_S:
            self.samples.append(reference_kernel())
            self._last = time.perf_counter()
