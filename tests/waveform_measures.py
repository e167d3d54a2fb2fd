"""Two measures of a sampled waveform that only the tests take."""

import numpy as np


def peak_time_fs(w) -> float:
    """Time of the first largest sample."""
    return float(w.t0_fs + w.dt_fs * int(np.argmax(w.samples)))


def area(w) -> float:
    """Integral of the waveform approximated as ``sum(samples) * dt``."""
    return float(w.samples.sum() * w.dt_fs)
