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

It also owns the text of every CSV artifact (:func:`csv_text`).  A table of
at least ``ARRAY_MIN_ROWS`` rows whose every cell array arithmetic covers is
written from one byte buffer, a cell in two 64-bit words, with the bytes
``str.format`` writes; any other table is written row by row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import GridMismatchError, NumericalError, ValidationError

__all__ = [
    "MAX_SAMPLES",
    "check_sample_count",
    "libm",
    "check_equal_spacing",
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
            f"{what} needs {count:.16g} samples, more than the {MAX_SAMPLES} allowed"
        )


def libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn``, a ``math`` function and so libm's, on each element of ``x``."""
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


class TimeGrid(NamedTuple):
    """Uniform time grid ``t_k = t0_fs + k * dt_fs`` with ``n`` samples."""

    t0_fs: float
    dt_fs: float
    n: int

    @classmethod
    def symmetric(cls, half_span_fs: float, dt_fs: float) -> "TimeGrid":
        """Grid centered on zero covering at least ``[-half_span, +half_span]``."""
        # k whole steps on each side, at least one
        k = max(1.0, float(np.ceil(half_span_fs / dt_fs - 1e-12)))
        check_sample_count(2.0 * k + 1.0, f"a time grid at {dt_fs!r} fs spacing")
        return cls(-int(k) * dt_fs, dt_fs, 2 * int(k) + 1)

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

    times = TimeGrid.times

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


def check_equal_spacing(a: SampledWaveform, b: SampledWaveform, operation: str) -> None:
    """Refuse, naming ``operation``, sample spacings that differ by more than 1e-9 relative."""
    if abs(a.dt_fs - b.dt_fs) > DT_MATCH_RTOL * max(a.dt_fs, b.dt_fs):
        raise GridMismatchError(
            f"{operation} requires equal sample spacings, got {a.dt_fs!r} and {b.dt_fs!r}"
        )


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
    check_equal_spacing(a, b, "convolution")
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
    if first == 0 or last == w.n - 1:
        raise NumericalError(
            "waveform is still at or above half maximum at the "
            f"{'first' if first == 0 else 'last'} sample; width is unbounded on this grid"
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
    # the range test goes first: np.trunc warns on a signaling NaN
    if c.dtype.kind == "f" and (abs(c) < 1e9).all() and (np.trunc(c) == c).all():
        ints = c.astype(np.int64)
        if not np.signbit(c[ints == 0]).any():
            return ints
    return c


#: Rows from which :func:`csv_text` writes a table from one byte buffer: on a
#: 2-CPU x86-64 host it was level with ``str.format`` at about 400-500 rows.
ARRAY_MIN_ROWS = 512
# 10**k / 2**128 for k in [0, 332], as 5**k rounded once times 2**(k - 128): exact to 10**22
_POW10 = np.ldexp(np.cumprod([1] + [5] * 332, dtype=object).astype(np.float64), range(-128, 205))
# _LOW[k]: the low k <= 8 bytes of a word; _DOT[k]: "." in its byte k
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_DOT = np.array([46 << 8 * k for k in range(8)] + [0], dtype=np.uint64)
# in each byte: "0"; a digit plus _NONZERO sets _HIGHS unless it is "0"
_ZEROS, _NONZERO, _HIGHS = (np.uint64(b * 0x0101010101010101) for b in (0x30, 0x4F, 0x80))
# by decimal exponent X + 324, X in [-324, 9], of {:.9g}'s d.ddde+XX outside [-4, 9),
# 0.000ddd below 0 and ddd.ddd from 0 on: digits between d0 and the point, digits
# written though zero, the shift behind 0.000 and the 0.000: one row for every X < -4
_POINT, _FLOOR, _SHIFT, _PREFIX = np.repeat([
    (0, 1, 0, 0) if x < -4 or x > 8 else (8, 0, 40, int.from_bytes(b"0.000"[:1 - x], "little"))
    if x < 0 else (x, x + 1, 0, 0) for x in range(-5, 10)], [320] + [1] * 14, axis=0).T
_SHIFT, _PREFIX = _SHIFT.astype(np.uint64), _PREFIX.astype(np.uint64)
# and the e-XXX from -324 to -100, e-XX to -5, none to 8 and e+09, ending in byte 14
_EXP = np.frombuffer((b"\0\0e%+04d\0" * 225 + b"\0\0\0e%+03d\0" * 95) % (*range(-324, -4),)
                     + bytes(8 * 13) + b"\0\0\0e+09\0", dtype="<u8")


def _digits(m):
    """The nine digits of each whole ``m`` in [0, 1e9) in ASCII: the first, and
    a word of the other eight with the second in its low byte."""
    # m / 1e8 and m / 1e4 round to below the next whole number: floor is exact
    first, middle = np.floor(m / 1e8), np.floor(m / 1e4)
    w = ((m - middle * 1e4) * 2.0 ** 32 + (middle - first * 1e4)).astype(np.uint64)
    # v // 100 = v * 10486 >> 20 in 32-bit lanes, then v // 10 = v * 103 >> 10 in 16-bit ones
    q = w * 10486 >> 20 & 0x7F0000007F
    w = q | (w - q * 100) << 16
    q = w * 103 >> 10 & 0x000F000F000F000F
    return (first + 48).astype(np.uint64), q | (w - q * 10) << 8 | _ZEROS


def _float_cells(x):
    """Two words of ``{:.9g}`` text for each float, 0 bytes to drop, and whether
    that is its text: for +-0.0, positives from 5e-324 and negatives written
    without an exponent, all below 1e9 in magnitude, but a scaled value that
    rounds on or, with an inexact power of ten, near a half."""
    neg, zero, ok = np.signbit(x), x == 0, np.abs(x) < 1e9
    a = np.abs(np.where(ok & ~zero, x, 1.0))  # a zero is written as 1, less its digit
    e = np.clip(np.floor(np.log10(a)), -324, 8).astype(np.intp)
    # exact, so that a times 10**k / 2**128 is the scaled value rounded once
    a *= 2.0 ** 128
    p = a * _POW10[8 - e]
    # log10 may round across a power of ten: one step puts p in [1e8, 1e9]
    off = (p < 1e8) | (p > 1e9)
    e[off] += np.where(p[off] > 1e9, 1, -1)
    p[off] = a[off] * _POW10[8 - e[off]]
    # {:.9g} rounds the exact x * 10**(8 - e) half to even. With an exact power
    # (e >= -14) p is that rounded once, and rounds otherwise only on a half;
    # with an inexact one p is within 2.3e-7 of it, so p within 2**-20 of a half
    # is refused
    m = np.rint(p)
    ok &= (p >= 1e8) & (p <= 1e9) & (0.5 - np.abs(p - m) > (e < -14) * 2.0 ** -20)
    carry = m == 1e9
    e += carry + 324  # from here the row of the layout tables
    first, digits = _digits(np.where(carry, 1e8, m))
    # significant digits after d0: up to the last nonzero one, by frexp of its flag
    width = np.frexp((digits + _NONZERO & _HIGHS).astype(np.float64))[1] >> 3
    point = _POINT[e]
    width = np.maximum(width + 1 + (width > point), _FLOOR[e])
    # d0 (a zero was written as 1), the digits before the point, ".", the rest
    before, after = digits & _LOW[point] | _DOT[point], digits & ~_LOW[point]
    high = (after >> 48 | before >> 56) & _LOW[np.maximum(width - 8, 0)]
    low = (after << 16 | before << 8 | first - zero) & _LOW[np.minimum(width, 8)]
    # behind 0.000, or before e+XX in bytes 10-14
    shift = _SHIFT[e]
    low, high = low << shift | _PREFIX[e], high << shift | low >> (56 - shift) >> 8 | _EXP[e]
    if neg.any():  # "-" in front of a text with no exponent, which ends by byte 13
        ok &= ~neg | (_EXP[e] == 0)
        low, high = np.where(neg, low << 8 | 45, low), np.where(neg, high << 8 | low >> 56, high)
    return low, high, ok


def _int_cells(v):
    """As :func:`_float_cells`, ``{}`` text for integers below 1e9 in magnitude."""
    ok = (v > -10 ** 9) & (v < 10 ** 9)
    first, digits = _digits(np.abs(np.where(ok, v, 0)).astype(np.float64))
    # d0 and the other digits from the first nonzero one on, the last always
    low = first | digits << 8
    lowest = low + _NONZERO & _HIGHS
    low &= ~((lowest & ~lowest + 1) >> 7) + 1
    return low << 8 | (v < 0) * np.uint64(45), low >> 56 | digits >> 56 << 8, ok


def csv_text(header: str, columns, metadata: dict) -> str:
    """CSV text: ``# key=value`` comment lines, the header, one row per sample.

    Integer columns are written as they are and every other column as
    ``"{:.9g}".format`` writes it.  A float column of whole numbers below 1e9
    in magnitude, none of them ``-0.0``, is written as integers, which are the
    same bytes.  From :data:`ARRAY_MIN_ROWS` rows on, a table whose every cell
    :func:`_int_cells` or :func:`_float_cells` covers comes from one byte buffer
    of 16 bytes a cell; any other table is formatted row by row.  Every CSV
    artifact of the package is formatted here.
    """
    lines = [f"# {key}={value}" for key, value in metadata.items()] + [header]
    columns = [_written_column(np.asarray(c)) for c in columns]
    n, k = columns[0].size, len(columns)
    if n >= ARRAY_MIN_ROWS and all(c.shape == (n,) and c.dtype in (np.int64, np.float64)
                                   for c in columns):
        cells = [(_int_cells if c.dtype.kind == "i" else _float_cells)(c) for c in columns]
        if all(ok.all() for _, _, ok in cells):
            buffer = bytearray(16 * n * k)
            words = np.frombuffer(buffer, dtype="<u8").reshape(n, k, 2)
            for j, (low, high, _) in enumerate(cells):
                words[:, j, 0], words[:, j, 1] = low, high | (44 if j < k - 1 else 10) << 56
            return "\n".join(lines) + "\n" + buffer.translate(None, b"\0").decode("ascii")
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
