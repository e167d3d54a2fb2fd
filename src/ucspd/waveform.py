"""Uniformly sampled intensity waveforms on femtosecond time grids.

Everything downstream (gate response models, delay scans, deconvolution) works
on the same representation: a read-only array of real samples attached to a
uniform grid ``t_k = t0 + k * dt``.  Every waveform is intensity-like data:
construction refuses fewer than two samples and samples that are negative or
not finite, so later stages can assume neither happens.  A pulse is its
FWHM and centre, sampled at unit peak; grids, pulse widths and spacings are
taken as given: the scenario schema checks the values they are built from.

This module owns how a convolution is evaluated.  :func:`convolver` is the
one place that chooses: direct summation below ``FFT_THRESHOLD`` (1024)
full-output samples, and at or above it numpy's real FFT, zero-padded to the
next 5-smooth length (:func:`fast_fft_len`) so that no transform hits a slow
large prime factor.  :func:`convolve` scales that sum by ``dt`` so it
approximates the continuous integral independently of grid resolution, and
Richardson-Lucy deconvolution builds its blur and adjoint from it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, NumericalError, ValidationError

__all__ = [
    "MAX_SAMPLES",
    "check_sample_count",
    "TimeGrid",
    "SampledWaveform",
    "gaussian_waveform",
    "rect_waveform",
    "convolver",
    "convolve",
    "fast_fft_len",
    "fwhm",
    "resample",
    "csv_text",
    "write_csv",
]

#: Full-output length at or above which :func:`convolver` uses the FFT.
FFT_THRESHOLD = 1024

#: Relative tolerance used when comparing the sample spacings of two grids.
DT_MATCH_RTOL = 1e-9

#: Relative tolerance (in units of dt) to which written CSV times must stay uniform.
CSV_GRID_RTOL = 1e-6

_CSV_HEADER = "t_fs,value"

#: Most samples any generated array (grid, scan, sweep, power list) may hold.
MAX_SAMPLES = 1_000_000


def check_sample_count(count: float, what: str) -> None:
    """Refuse ``count`` samples (possibly inf) beyond :data:`MAX_SAMPLES`, before allocating."""
    if count > MAX_SAMPLES:
        raise ValidationError(
            f"{what} needs {count:.8g} samples, more than the {MAX_SAMPLES} allowed"
        )


class TimeGrid(NamedTuple):
    """Uniform time grid ``t_k = t0_fs + k * dt_fs`` with ``n`` samples."""

    t0_fs: float
    dt_fs: float
    n: int

    @classmethod
    def symmetric(cls, half_span_fs: float, dt_fs: float) -> "TimeGrid":
        """Grid centered on zero covering at least ``[-half_span, +half_span]``."""
        steps = half_span_fs / dt_fs - 1e-12
        check_sample_count(2.0 * steps + 1.0, f"a time grid at {dt_fs!r} fs spacing")
        k = max(1, math.ceil(steps))
        return cls(-k * dt_fs, dt_fs, 2 * k + 1)

    def times(self) -> np.ndarray:
        return self.t0_fs + self.dt_fs * np.arange(self.n)


class SampledWaveform(NamedTuple("SampledWaveform", [
    ("t0_fs", float), ("dt_fs", float), ("samples", np.ndarray),
])):
    """Real-valued samples on a uniform femtosecond grid.

    Parameters
    ----------
    t0_fs : float
        Time of the first sample.
    dt_fs : float
        Sample spacing, strictly positive.
    samples : array_like
        One-dimensional sample values, at least two, finite and
        non-negative; stored as a read-only float64 copy.
    """

    __slots__ = ()

    # _replace and _make bypass these checks
    def __new__(cls, t0_fs: float, dt_fs: float, samples) -> SampledWaveform:
        arr = np.array(samples, dtype=np.float64, copy=True)
        if arr.size < 2:
            raise ValidationError(f"a waveform needs at least two samples, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("waveform samples must be finite")
        if not math.isfinite(t0_fs):
            raise ValidationError("waveform start time must be finite")
        if arr.min() < 0.0:
            raise ValidationError(
                f"intensity waveforms cannot be negative (min sample {arr.min():g})"
            )
        arr.setflags(write=False)
        return super().__new__(cls, t0_fs, dt_fs, arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def times(self) -> np.ndarray:
        return self.t0_fs + self.dt_fs * np.arange(self.n)

    @property
    def peak_value(self) -> float:
        return float(self.samples.max())

    def sample_at(self, t_fs):
        """Linear interpolation at arbitrary times; zero outside the grid."""
        return np.interp(t_fs, self.times(), self.samples, left=0.0, right=0.0)

    def peak_normalized(self) -> "SampledWaveform":
        """Return a copy scaled so the largest sample equals one."""
        peak = self.peak_value
        if peak <= 0.0:
            raise ValidationError("cannot peak-normalize a waveform with no positive samples")
        return SampledWaveform(self.t0_fs, self.dt_fs, self.samples / peak)

    def shifted(self, offset_fs: float) -> "SampledWaveform":
        """Return the same samples with the grid translated by ``offset_fs``."""
        return SampledWaveform(self.t0_fs + offset_fs, self.dt_fs, self.samples)


def gaussian_waveform(fwhm_fs: float, grid: TimeGrid, center_fs: float = 0.0) -> SampledWaveform:
    """Sample a unit-peak Gaussian intensity pulse on ``grid``.

    The profile is ``exp(-((2 sqrt(ln 2) / fwhm) * (t - center))^2)`` so the
    full width at half maximum equals ``fwhm_fs`` exactly.
    """
    u = (2.0 * math.sqrt(math.log(2.0)) / fwhm_fs) * (grid.times() - center_fs)
    return SampledWaveform(grid.t0_fs, grid.dt_fs, np.exp(-u * u))


def rect_waveform(width_fs: float, grid: TimeGrid) -> SampledWaveform:
    """Sample a unit rectangular window of the given full width on ``grid``.

    Samples within ``width/2`` of time zero (edges inclusive) are 1 and all
    others 0.
    """
    inside = np.abs(grid.times()) <= 0.5 * width_fs + 1e-9 * grid.dt_fs
    return SampledWaveform(grid.t0_fs, grid.dt_fs, np.where(inside, 1.0, 0.0))


def fast_fft_len(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c`` at or above ``n``.

    Zero-padding a linear convolution to this length costs nothing in
    accuracy and keeps numpy's FFT on its fast small-radix kernels.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power-of-two multiple of p35 at or above n
            p2 = 1 << (-(-n // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def convolver(kernel: np.ndarray, n: int, start: int, size: int):
    """``u -> (u * kernel)[start:start + size]`` for length-``n`` arrays ``u``.

    Below :data:`FFT_THRESHOLD` full-output samples (``n + kernel.size - 1``)
    this is ``np.convolve``; at or above it, numpy's real FFT zero-padded to
    :func:`fast_fft_len`, with the kernel's spectrum computed once here.  The
    two paths agree to round-off.
    """
    full = n + kernel.size - 1
    if full < FFT_THRESHOLD:
        def apply(u):
            return np.convolve(u, kernel)[start:start + size]
    else:
        nfft = fast_fft_len(full)
        kernel_hat = np.fft.rfft(kernel, nfft)

        def apply(u):
            return np.fft.irfft(np.fft.rfft(u, nfft) * kernel_hat, nfft)[start:start + size]
    return apply


def convolve(a: SampledWaveform, b: SampledWaveform) -> SampledWaveform:
    """Convolve two waveforms sampled with the same spacing.

    The discrete convolution sum (evaluated by :func:`convolver`) is
    multiplied by ``dt`` so the result approximates the continuous
    convolution integral; convolving with a unit-area waveform therefore
    preserves area.  The output grid starts at ``a.t0_fs + b.t0_fs`` and has
    ``a.n + b.n - 1`` samples.

    Raises
    ------
    GridMismatchError
        If the sample spacings differ by more than 1e-9 relative.
    """
    if abs(a.dt_fs - b.dt_fs) > DT_MATCH_RTOL * max(a.dt_fs, b.dt_fs):
        raise GridMismatchError(
            f"convolution requires equal sample spacings, got {a.dt_fs!r} and {b.dt_fs!r}"
        )
    raw = convolver(b.samples, a.n, 0, a.n + b.n - 1)(a.samples)
    # FFT round-off can leave tiny negative samples; both inputs are
    # non-negative so the exact result is too
    return SampledWaveform(a.t0_fs + b.t0_fs, a.dt_fs, np.maximum(raw * a.dt_fs, 0.0))


def fwhm(w: SampledWaveform) -> float:
    """Full width at half maximum from the outermost half-peak crossings.

    The crossing times are located by linear interpolation between the
    neighboring samples on each side.  Multi-peaked waveforms are measured
    across the outermost crossings of the global half-maximum level.

    Raises
    ------
    NumericalError
        If the waveform never falls below half maximum on one side of the
        peak (the width is unbounded on the sampled grid) or has no positive
        peak.
    """
    y = w.samples
    peak = float(y.max())
    if peak <= 0.0:
        raise NumericalError("half-maximum width requires a positive peak")
    half = 0.5 * peak
    above = np.nonzero(y >= half)[0]
    first = int(above[0])
    last = int(above[-1])
    if first == 0:
        raise NumericalError(
            "waveform is still at or above half maximum at the first sample; "
            "width is unbounded on this grid"
        )
    if last == w.n - 1:
        raise NumericalError(
            "waveform is still at or above half maximum at the last sample; "
            "width is unbounded on this grid"
        )
    t = w.times()
    t_left = t[first - 1] + (half - y[first - 1]) / (y[first] - y[first - 1]) * w.dt_fs
    t_right = t[last] + (y[last] - half) / (y[last] - y[last + 1]) * w.dt_fs
    return float(t_right - t_left)


def resample(w: SampledWaveform, grid: TimeGrid) -> SampledWaveform:
    """Linearly interpolate ``w`` onto ``grid``; zero outside its span."""
    return SampledWaveform(grid.t0_fs, grid.dt_fs, w.sample_at(grid.times()))


def _written_column(c: np.ndarray) -> np.ndarray:
    """``c`` as int64 if ``{:.9g}`` prints each value as its integer digits, else ``c``.

    That is a float column of whole numbers below 1e9 in magnitude (from 1e9
    on ``{:.9g}`` writes an exponent) with no ``-0.0`` (written ``-0``), and
    ``{}`` on an int costs a third of ``{:.9g}`` on a float.
    """
    # the whole-number test goes first: it refuses most columns at one pass
    if c.dtype.kind == "f" and (np.trunc(c) == c).all() and (abs(c) < 1e9).all():
        ints = c.astype(np.int64)
        if not np.signbit(c[ints == 0]).any():
            return ints
    return c


def csv_text(header: str, columns, metadata: dict) -> str:
    """CSV text: ``# key=value`` comment lines, the header, one row per sample.

    Integer columns are written as they are and every other column with
    nine significant digits.  A float column of whole numbers below 1e9 in
    magnitude, none of them ``-0.0``, is written as integers, which are the
    same bytes.  Every CSV artifact of the package is formatted here.
    """
    lines = [f"# {key}={value}" for key, value in metadata.items()] + [header]
    columns = [_written_column(np.asarray(c)) for c in columns]
    row = ",".join("{}" if c.dtype.kind in "iu" else "{:.9g}" for c in columns)
    lines += map(row.format, *(c.tolist() for c in columns))
    return "\n".join(lines) + "\n"


def write_csv(path, w: SampledWaveform, metadata: dict) -> None:
    """Write a waveform as ``t_fs,value`` rows with nine significant digits.

    ``metadata`` entries are emitted first as ``# key=value`` comment lines.
    The writer refuses grids that the nine-digit time format would distort
    by more than :data:`CSV_GRID_RTOL` of a step, so every written file
    holds a uniform grid.  Times written as integers (see :func:`csv_text`)
    read back as the same floats; any other time column is re-parsed from
    the rows to check.
    """
    t = _written_column(w.times())
    text = csv_text(_CSV_HEADER, (t, w.samples), metadata)
    if t.dtype.kind == "f":
        t = [float(row.partition(",")[0]) for row in text.splitlines()[-w.n:]]
    diffs = np.diff(t)
    if np.any(np.abs(diffs - w.dt_fs) > CSV_GRID_RTOL * w.dt_fs):
        raise ValidationError(
            "time grid does not survive nine-significant-digit formatting; "
            "choose a grid with representable sample times"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
