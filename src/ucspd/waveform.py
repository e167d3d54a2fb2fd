"""Uniformly sampled intensity waveforms on femtosecond time grids.

Everything downstream (gate response models, delay scans, deconvolution) works
on the same representation: a read-only array of real samples attached to a
uniform grid ``t_k = t0 + k * dt``.  Construction validates the grid and, for
intensity-like data, non-negativity, so later stages can assume both.

Discrete convolution here approximates the continuous integral: the raw
convolution sum is scaled by ``dt`` so that results are grid-resolution
independent.  Direct summation and FFT evaluation are both available and must
agree; ``method="auto"`` switches to the FFT at or above 1024 output samples.
The FFT path is numpy's real FFT, zero-padded to the next 5-smooth length
(:func:`fast_fft_len`) so that no transform hits a slow large prime factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NumericalError, ValidationError

__all__ = [
    "TimeGrid",
    "PulseSpec",
    "SampledWaveform",
    "gaussian_waveform",
    "rect_waveform",
    "convolve",
    "fast_fft_len",
    "fwhm",
    "resample",
    "write_csv",
    "read_csv",
]

#: Output length at or above which ``convolve(method="auto")`` uses the FFT.
FFT_THRESHOLD = 1024

#: Relative tolerance used when comparing the sample spacings of two grids.
DT_MATCH_RTOL = 1e-9

#: Relative tolerance (in units of dt) for grid uniformity checks on CSV input.
CSV_GRID_RTOL = 1e-6

_CSV_HEADER = "t_fs,value"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid ``t_k = t0_fs + k * dt_fs`` with ``n`` samples."""

    t0_fs: float
    dt_fs: float
    n: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.t0_fs):
            raise ValidationError("time grid origin must be finite")
        if not (math.isfinite(self.dt_fs) and self.dt_fs > 0.0):
            raise ValidationError(f"sample spacing must be positive, got {self.dt_fs}")
        if self.n < 2:
            raise ValidationError(f"a grid needs at least two samples, got n={self.n}")

    @classmethod
    def symmetric(cls, half_span_fs: float, dt_fs: float) -> "TimeGrid":
        """Grid centered on zero covering at least ``[-half_span, +half_span]``."""
        if not (math.isfinite(half_span_fs) and half_span_fs > 0.0):
            raise ValidationError(f"half span must be positive, got {half_span_fs}")
        k = max(1, math.ceil(half_span_fs / dt_fs - 1e-12))
        return cls(-k * dt_fs, dt_fs, 2 * k + 1)

    @property
    def t_max_fs(self) -> float:
        return self.t0_fs + (self.n - 1) * self.dt_fs

    def times(self) -> np.ndarray:
        return self.t0_fs + self.dt_fs * np.arange(self.n)


@dataclass(frozen=True)
class PulseSpec:
    """Gaussian intensity pulse described by its FWHM, center, and peak value."""

    fwhm_fs: float
    center_fs: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fwhm_fs) and self.fwhm_fs > 0.0):
            raise ValidationError(f"pulse FWHM must be positive, got {self.fwhm_fs}")
        if not math.isfinite(self.center_fs):
            raise ValidationError("pulse center must be finite")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0):
            raise ValidationError(f"pulse amplitude must be positive, got {self.amplitude}")


@dataclass(frozen=True)
class SampledWaveform:
    """Real-valued samples on a uniform femtosecond grid.

    Parameters
    ----------
    t0_fs : float
        Time of the first sample.
    dt_fs : float
        Sample spacing, strictly positive.
    samples : array_like
        Sample values; stored as a read-only float64 copy.
    intensity : bool, optional
        When true (the default) the samples represent an intensity-like
        quantity and must be non-negative everywhere.

    Notes
    -----
    Instances are immutable: the sample array is copied on construction and
    write-locked, so waveforms can be shared across threads freely.
    """

    t0_fs: float
    dt_fs: float
    samples: np.ndarray
    intensity: bool = True

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValidationError(f"samples must be one-dimensional, got shape {arr.shape}")
        if arr.size < 2:
            raise ValidationError(f"a waveform needs at least two samples, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("waveform samples must be finite")
        if not math.isfinite(self.t0_fs):
            raise ValidationError("waveform start time must be finite")
        if not (math.isfinite(self.dt_fs) and self.dt_fs > 0.0):
            raise ValidationError(f"sample spacing must be positive, got {self.dt_fs}")
        if self.intensity and arr.min() < 0.0:
            raise ValidationError(
                f"intensity waveforms cannot be negative (min sample {arr.min():g})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    @property
    def t_max_fs(self) -> float:
        return self.t0_fs + (self.n - 1) * self.dt_fs

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.t0_fs, self.dt_fs, self.n)

    def times(self) -> np.ndarray:
        return self.t0_fs + self.dt_fs * np.arange(self.n)

    @property
    def peak_value(self) -> float:
        return float(self.samples.max())

    @property
    def peak_time_fs(self) -> float:
        return float(self.t0_fs + self.dt_fs * int(np.argmax(self.samples)))

    @property
    def area(self) -> float:
        """Integral of the waveform approximated as ``sum(samples) * dt``."""
        return float(self.samples.sum() * self.dt_fs)

    def sample_at(self, t_fs, fill: float = 0.0):
        """Linear interpolation at arbitrary times; ``fill`` outside the grid."""
        return np.interp(t_fs, self.times(), self.samples, left=fill, right=fill)

    def peak_normalized(self) -> "SampledWaveform":
        """Return a copy scaled so the largest sample equals one."""
        peak = self.peak_value
        if peak <= 0.0:
            raise ValidationError("cannot peak-normalize a waveform with no positive samples")
        return SampledWaveform(self.t0_fs, self.dt_fs, self.samples / peak, self.intensity)

    def scaled(self, factor: float) -> "SampledWaveform":
        if not math.isfinite(factor):
            raise ValidationError("scale factor must be finite")
        return SampledWaveform(
            self.t0_fs, self.dt_fs, self.samples * factor,
            self.intensity and factor >= 0.0,
        )

    def shifted(self, offset_fs: float) -> "SampledWaveform":
        """Return the same samples with the grid translated by ``offset_fs``."""
        if not math.isfinite(offset_fs):
            raise ValidationError("time offset must be finite")
        return SampledWaveform(self.t0_fs + offset_fs, self.dt_fs, self.samples, self.intensity)


def gaussian_waveform(spec: PulseSpec, grid: TimeGrid) -> SampledWaveform:
    """Sample a Gaussian intensity pulse on ``grid``.

    The profile is ``A * exp(-((2 sqrt(ln 2) / fwhm) * (t - center))^2)`` so
    the full width at half maximum equals ``spec.fwhm_fs`` exactly.
    """
    u = (2.0 * math.sqrt(math.log(2.0)) / spec.fwhm_fs) * (grid.times() - spec.center_fs)
    return SampledWaveform(grid.t0_fs, grid.dt_fs, spec.amplitude * np.exp(-u * u))


def rect_waveform(
    width_fs: float,
    grid: TimeGrid,
    center_fs: float = 0.0,
    amplitude: float = 1.0,
) -> SampledWaveform:
    """Sample a rectangular window of the given full width on ``grid``.

    Samples within ``width/2`` of the center (edges inclusive) take the value
    ``amplitude``; everything else is zero.
    """
    if not (math.isfinite(width_fs) and width_fs > 0.0):
        raise ValidationError(f"rectangle width must be positive, got {width_fs}")
    if not (math.isfinite(amplitude) and amplitude > 0.0):
        raise ValidationError(f"rectangle amplitude must be positive, got {amplitude}")
    half = 0.5 * width_fs + 1e-9 * grid.dt_fs
    inside = np.abs(grid.times() - center_fs) <= half
    return SampledWaveform(grid.t0_fs, grid.dt_fs, np.where(inside, amplitude, 0.0))


def fast_fft_len(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c`` at or above ``n``.

    Zero-padding a linear convolution to this length costs nothing in
    accuracy and keeps numpy's FFT on its fast small-radix kernels.
    """
    if n < 1:
        raise ValidationError(f"FFT length must be positive, got {n}")
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


def convolve(a: SampledWaveform, b: SampledWaveform, method: str = "auto") -> SampledWaveform:
    """Convolve two waveforms sampled with the same spacing.

    The discrete convolution sum is multiplied by ``dt`` so the result
    approximates the continuous convolution integral; convolving with a
    unit-area waveform therefore preserves area.  The output grid starts at
    ``a.t0_fs + b.t0_fs`` and has ``a.n + b.n - 1`` samples.

    Parameters
    ----------
    a, b : SampledWaveform
        Inputs; their ``dt_fs`` must agree to within 1e-9 relative.
    method : {"auto", "direct", "fft"}
        Evaluation path.  ``"auto"`` uses direct summation below 1024 output
        samples and the FFT at or above it.  Both paths compute the same
        quantity and agree to better than 1e-9 relative.

    Raises
    ------
    GridMismatchError
        If the sample spacings differ beyond tolerance.
    """
    if abs(a.dt_fs - b.dt_fs) > DT_MATCH_RTOL * max(a.dt_fs, b.dt_fs):
        raise GridMismatchError(
            f"convolution requires equal sample spacings, got {a.dt_fs!r} and {b.dt_fs!r}"
        )
    out_len = a.n + b.n - 1
    if method == "auto":
        method = "direct" if out_len < FFT_THRESHOLD else "fft"
    if method == "direct":
        raw = np.convolve(a.samples, b.samples)
    elif method == "fft":
        nfft = fast_fft_len(out_len)
        spectrum = np.fft.rfft(a.samples, nfft) * np.fft.rfft(b.samples, nfft)
        raw = np.fft.irfft(spectrum, nfft)[:out_len]
    else:
        raise ValidationError(f"unknown convolution method {method!r}")
    out = raw * a.dt_fs
    is_intensity = a.intensity and b.intensity
    if is_intensity:
        # FFT round-off can leave tiny negative samples; both inputs are
        # non-negative so the exact result is too.
        out = np.maximum(out, 0.0)
    return SampledWaveform(a.t0_fs + b.t0_fs, a.dt_fs, out, is_intensity)


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


def resample(w: SampledWaveform, grid: TimeGrid, fill: float = 0.0) -> SampledWaveform:
    """Linearly interpolate ``w`` onto ``grid``; ``fill`` outside its span."""
    vals = np.interp(grid.times(), w.times(), w.samples, left=fill, right=fill)
    return SampledWaveform(grid.t0_fs, grid.dt_fs, vals, w.intensity and fill >= 0.0)


def _sig9(x: float) -> str:
    return format(float(x), ".9g")


def write_csv(path, w: SampledWaveform, metadata: dict | None = None) -> None:
    """Write a waveform as ``t_fs,value`` rows with nine significant digits.

    ``metadata`` entries are emitted first as ``# key=value`` comment lines.
    The writer re-parses what it is about to emit and refuses grids that the
    nine-digit time format would distort beyond the reader's uniformity
    tolerance, so that every written file is guaranteed to read back.
    """
    times = w.times()
    formatted = [_sig9(t) for t in times]
    parsed = np.array([float(s) for s in formatted])
    diffs = np.diff(parsed)
    if np.any(np.abs(diffs - w.dt_fs) > CSV_GRID_RTOL * w.dt_fs):
        raise ValidationError(
            "time grid does not survive nine-significant-digit formatting; "
            "choose a grid with representable sample times"
        )
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(_CSV_HEADER)
    for ts, v in zip(formatted, w.samples):
        lines.append(f"{ts},{_sig9(v)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path, intensity: bool = False) -> tuple[SampledWaveform, dict]:
    """Read a waveform written by :func:`write_csv`.

    Returns the waveform and a dict of the ``# key=value`` comment lines.
    The time column must form a uniform, strictly increasing grid; spacings
    deviating by more than 1e-6 relative are rejected.
    """
    metadata: dict[str, str] = {}
    rows: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if header_seen:
                    raise ValidationError(f"{path}: comment after header at line {lineno}")
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if not header_seen:
                if line != _CSV_HEADER:
                    raise ValidationError(
                        f"{path}: expected header {_CSV_HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValidationError(f"{path}: expected two columns at line {lineno}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValidationError(f"{path}: bad number at line {lineno}: {exc}") from exc
    if not header_seen:
        raise ValidationError(f"{path}: missing {_CSV_HEADER!r} header")
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least two samples, got {len(rows)}")
    t = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    diffs = np.diff(t)
    dt = float(np.median(diffs))
    if dt <= 0.0:
        raise ValidationError(f"{path}: time column must be strictly increasing")
    if np.any(np.abs(diffs - dt) > CSV_GRID_RTOL * dt):
        raise ValidationError(
            f"{path}: time grid is not uniform within {CSV_GRID_RTOL:g} relative"
        )
    dt = float((t[-1] - t[0]) / (len(t) - 1))
    return SampledWaveform(float(t[0]), dt, v, intensity), metadata
