"""Force every convolution onto its direct or its FFT path.

``waveform.convolver`` takes the FFT once the full output reaches
``waveform.FFT_THRESHOLD`` samples, so a threshold above any length in the
tests forces direct summation and a threshold of zero forces the FFT.
"""

from unittest import mock

from ucspd import waveform

PATHS = ("direct", "fft")
_THRESHOLDS = {"direct": 10 ** 9, "fft": 0}


def forced_path(path):
    """Context manager under which ``waveform.convolver`` takes ``path``."""
    return mock.patch.object(waveform, "FFT_THRESHOLD", _THRESHOLDS[path])


def both_paths(fn, *args, **kwargs):
    """``[direct, fft]``: ``fn`` called once under each forced path."""
    results = []
    for path in PATHS:
        with forced_path(path):
            results.append(fn(*args, **kwargs))
    return results
