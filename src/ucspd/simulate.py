"""Monte Carlo photon-counting scans with reproducible noise.

A delay scan steps the signal arrival time against the gate and records
Poisson counts at each step; a phase sweep does the same against an
interferometer phase.  Counts at every scan point are drawn from a dedicated
random substream derived from ``(seed, point index)``, so results are
byte-identical across reruns and independent of evaluation order.

Rates are exact expectations, from :func:`delay_rate_function` for delay
scans and the fringe model for sweeps; the only randomness is the Poisson
draw.  Point ``i``'s count is the one
``default_rng(SeedSequence(entropy=seed, spawn_key=(i,))).poisson(mean)``
returns, computed for a whole scan at once: the SeedSequence hash and
numpy's PCG64 (a 128-bit LCG with XSL-RR output) run on integer arrays, and
numpy's own Poisson sampler (the multiplication method below a mean of 10,
Hoermann's PTRS with ``random_loggam`` from 10 up) runs in rounds over the
points that are still drawing.  numpy evaluates only IEEE-exact arithmetic
(``+ - * /``, ``sqrt``, ``floor``, ``abs``, comparisons); every ``log`` and
``exp`` goes through ``math``, that is the libm numpy's C sampler calls,
because numpy's vectorized ``log`` can differ from libm's in the last bit and
one bit can flip an acceptance test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError
from .timebin import center_bin_expectation
from .waveform import SampledWaveform, convolve

__all__ = [
    "ScanConfig",
    "ScanResult",
    "delay_rate_function",
    "run_scan",
    "run_phase_sweep",
    "derive_stage_seed",
]

#: How per-point random substreams are constructed, recorded in manifests.
RNG_SCHEME = "pcg64 via SeedSequence(entropy=seed, spawn_key=(point_index,))"


@dataclass(frozen=True)
class ScanConfig:
    """One counting scan: coordinates, dwell time per point, and the RNG seed.

    The coordinates are femtosecond delays or interferometer phases in
    radians, strictly increasing either way.  The source flux is part of the
    rate function a scan runs with, not of its configuration.
    """

    coordinates: np.ndarray
    dwell_s: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        coords = np.array(self.coordinates, dtype=np.float64, copy=True)
        if coords.ndim != 1 or coords.size < 1:
            raise ValidationError("scan coordinates must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(coords)):
            raise ValidationError("scan coordinates must be finite")
        # a step below the spacing of floats near the start repeats a coordinate
        if coords.size > 1 and not np.all(np.diff(coords) > 0.0):
            raise ValidationError("scan coordinates must be strictly increasing")
        coords.setflags(write=False)
        object.__setattr__(self, "coordinates", coords)

    @property
    def n_points(self) -> int:
        return int(self.coordinates.size)


@dataclass(frozen=True)
class ScanResult:
    """Counts, expectations, and provenance for one finished scan.

    ``expected`` holds the Poisson mean at each point (rate times dwell), so
    ``counts`` and ``expected`` are directly comparable column by column.
    """

    coordinates: np.ndarray
    counts: np.ndarray
    expected: np.ndarray
    config: ScanConfig

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64, copy=True)
        expected = np.array(self.expected, dtype=np.float64, copy=True)
        coords = np.array(self.coordinates, dtype=np.float64, copy=True)
        if not (coords.size == counts.size == expected.size):
            raise ValidationError("coordinates, counts, and expected must have equal length")
        if counts.min(initial=0) < 0:
            raise ValidationError("counts cannot be negative")
        for name, arr in (("coordinates", coords), ("counts", counts), ("expected", expected)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def delay_rate_function(
    signal: SampledWaveform,
    resolution: SampledWaveform,
    mean_photons_per_pulse: float,
    external_eta: float,
    rep_rate_hz: float,
    noise_cps: float = 0.0,
) -> Callable[[np.ndarray | float], np.ndarray]:
    """Bind the overlap curve and flux parameters into ``rate(delays_fs)``.

    ``rate`` takes a scalar delay or an array of delays and returns the
    expected count rate at each, in counts per second:
    ``rep_rate * mu * eta * O(delay) + noise`` with ``O`` the peak-normalized
    signal/resolution overlap, so the external efficiency applies at optimal
    overlap and ``O <= 1`` everywhere.  ``O`` is interpolated linearly and is
    zero outside the overlap grid.  The overlap, its sample times and the
    flux are computed once.
    """
    overlap = convolve(signal, resolution).peak_normalized()
    times, fractions = overlap.times(), overlap.samples
    flux = rep_rate_hz * mean_photons_per_pulse * external_eta

    def rate(delays_fs: np.ndarray | float) -> np.ndarray:
        return flux * np.interp(delays_fs, times, fractions, left=0.0, right=0.0) + noise_cps

    return rate


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
# uint64 scalars, which numpy applies to arrays faster than Python ints
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
# uniforms per sampling round, apart from PTRS's quick first round: three
# PTRS pairs, which settle 98 % or more of the points still rejecting
_ROUND_DRAWS = 6
# the largest mean Generator.poisson accepts (POISSON_LAM_MAX, numpy/random/_common.pyx)
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
# random_loggam's Stirling series coefficients and log(2 pi)
# (numpy/random/src/distributions/distributions.c)
_LOGGAM_COEFFS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e+00,
)
_LOG_2PI = 1.8378770664093453


def _hash_constants(const: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiply) constants of ``count`` SeedSequence hashmix calls from ``const``."""
    pairs = []
    for _ in range(count):
        pairs.append((const, (const * mult) & _MASK32))
        const = pairs[-1][1]
    return pairs


# the pool is four words and the entropy five (two seed words, two zeros,
# the point index): 4 + 12 hashmix calls mix the seed words, 4 the index,
# and 8 draw the state
_HASH_SEED = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_INDEX, _HASH_STATE = (
    np.array(pairs, dtype=np.uint32).T
    for pairs in (_hash_constants(_HASH_SEED[-1][1], _MULT_A, 4),
                  _hash_constants(_INIT_B, _MULT_B, 8))
)


def _hash(value, xor, mult):
    """SeedSequence's hashmix of a uint32 word (an int) or array, given its constants."""
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    mixed = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return mixed ^ (mixed >> 16)


def _words128(values: list[int]) -> tuple[np.ndarray, ...]:
    """128-bit ints as uint64 columns: high words, low words, and the low words' 32-bit halves."""
    words = np.array(values, dtype=object)[:, None]
    high, low = (words >> 64).astype(np.uint64), (words & _MASK64).astype(np.uint64)
    columns = high, low, low >> _SHIFT32, low & _LOW32
    for column in columns:
        column.setflags(write=False)
    return columns


# one table per round a scan reaches; a few rounds settle every point
@functools.lru_cache(maxsize=64)
def _jump_table(first: int, count: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Multipliers that take a stream ``j`` LCG steps on, for ``first <= j < first + count``.

    From state ``s`` with increment ``c`` that state is
    ``M**j s + (1 + M + ... + M**(j-1)) c`` mod 2**128.  Returns the columns
    (:func:`_words128`) of ``M**j`` and of ``1 + M + ... + M**(j-1)``.
    """
    powers, sums, power, total = [], [], 1, 0
    for j in range(first + count):
        if j >= first:
            powers.append(power)
            sums.append(total)
        power, total = (power * _PCG_MULT) & _MASK128, (total * _PCG_MULT + 1) & _MASK128
    return _words128(powers), _words128(sums)


def _mul128(x_hi, x_lo, k_hi, k_lo, k_lo_hi, k_lo_lo):
    """``x * k mod 2**128`` as (high, low) words, for words ``x`` and columns ``k``.

    The high word of ``x_lo * k_lo`` comes from 32-bit partial products.
    """
    a_lo, a_hi = x_lo & _LOW32, x_lo >> _SHIFT32
    lo_lo, lo_hi, hi_lo = a_lo * k_lo_lo, a_lo * k_lo_hi, a_hi * k_lo_lo
    mid = (lo_lo >> _SHIFT32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    carry = a_hi * k_lo_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (mid >> _SHIFT32)
    return carry + x_hi * k_lo + x_lo * k_hi, x_lo * k_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    """``a + b mod 2**128`` as (high, low) uint64 words."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _point_streams(seed: int, n: int) -> np.ndarray:
    """PCG64 streams of ``PCG64(SeedSequence(entropy=seed, spawn_key=(i,)))``, i < n.

    Shape (2, 2, n): ``c + s`` and the increment ``c``, each as high and
    low uint64 words.  The SeedSequence entropy pool mixes the seed's words
    in Python ints, once; the point index and ``generate_state(4, uint64)``
    run on uint32 arrays with a row per point and a column per pool word.
    They give the seed ``s`` and increment, which
    ``pcg_setseq_128_srandom_r`` turns into ``c = 2 inc + 1`` and the state
    ``M (c + s) + c``, one step on from ``c + s``: a stream's first draw is
    at step 2.
    """
    # a seed below 2**64 is two uint32 words, zero-padded to the pool size
    # of four because a spawn key follows
    consts = iter(_HASH_SEED)
    pool = [_hash(word, *next(consts)) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(consts)))
    # a row per point and a column per pool word
    index = _hash(np.arange(n, dtype=np.uint32)[:, None], *_HASH_INDEX)
    pool = _mix(np.array(pool, dtype=np.uint32), index)
    # the eight state words, read as little-endian uint64 pairs: seed high,
    # seed low, then increment high, increment low
    (seed_hi, seed_lo), (inc_hi, inc_lo) = (
        _hash(pool, *half).astype("<u4", copy=False).view("<u8").T
        for half in (_HASH_STATE[:, :4], _HASH_STATE[:, 4:])
    )
    inc_hi = (inc_hi << np.uint64(1)) | (inc_lo >> np.uint64(63))
    inc_lo = (inc_lo << np.uint64(1)) | np.uint64(1)
    return np.array([_add128(seed_hi, seed_lo, inc_hi, inc_lo), (inc_hi, inc_lo)])


def _uniforms(streams: np.ndarray, first: int, count: int) -> np.ndarray:
    """Every stream's doubles at steps ``first .. first + count - 1``, shape (count, m).

    Each is numpy's PCG64 ``next_double``: the XSL-RR output of the state
    (its halves xored, rotated right by its top six bits), whose top 53
    bits are scaled by 2**-53.  The products for ``c + s`` and for ``c`` are
    taken apart, which keeps a dense scan's temporaries small: stacked, they
    passed glibc's 128 KiB mmap threshold and a 6001-point draw took about
    900 minor page faults instead of 370.
    """
    powers, sums = _jump_table(first, count)
    start, inc = streams
    hi, lo = _add128(*_mul128(*start, *powers), *_mul128(*inc, *sums))
    xored, rot = hi ^ lo, hi >> np.uint64(58)
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn``, a ``math`` function and so libm's, on each element of ``x``."""
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _poisson_mult(streams: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """numpy's ``random_poisson_mult`` for 0 < lam < 10, over arrays.

    Each point multiplies uniforms, in order, until the running product
    falls to ``exp(-lam)``; its count is the number of uniforms before the
    last one.  A round gives every point still drawing ``_ROUND_DRAWS`` more.
    """
    enlam = _libm(math.exp, -lam)
    counts = np.empty(lam.size, dtype=np.int64)
    rest, prod, first = np.arange(lam.size), np.ones(lam.size), 2
    while rest.size:
        draws = _uniforms(streams[..., rest], first, _ROUND_DRAWS)
        # one product after another, as the scalar loop rounds them
        prods = np.cumprod(np.vstack([prod, draws]), axis=0)[1:]
        stop = prods <= enlam[rest]
        done = stop.any(axis=0)
        counts[rest[done]] = first - 2 + stop.argmax(axis=0)[done]
        rest, prod, first = rest[~done], prods[-1, ~done], first + _ROUND_DRAWS
    return counts


def _loggam(x: np.ndarray) -> np.ndarray:
    """numpy's ``random_loggam``: log Gamma(x) for integers x >= 1.

    Stirling's series at ``x0 = max(x, 7)``; below 7, ``x0`` is 7 and
    ``log 6, log 5, ..., log x`` are subtracted in that order.
    """
    x0 = np.maximum(x, 7.0)
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = np.full(x.shape, _LOGGAM_COEFFS[9])
    for coeff in _LOGGAM_COEFFS[8::-1]:
        gl0 = gl0 * x2 + coeff
    gl = gl0 / x0 + 0.5 * _LOG_2PI + (x0 - 0.5) * _libm(math.log, x0) - x0
    for below in range(6, 2, -1):
        gl = np.where(x <= below, gl - math.log(below), gl)
    return np.where(x <= 2.0, 0.0, gl)


def _ptrs_pairs(draws: np.ndarray, params: np.ndarray):
    """PTRS's ``k``, quick accept, ``V`` and ``us`` for each (U, V) pair of ``draws``.

    Pairs run along axis 0, the points along axis 1.
    """
    lam, a, b, vr = params
    u, v = draws[0::2] - 0.5, draws[1::2]
    us = 0.5 - np.abs(u)
    # us == 0 only at u == -0.5, where k is -inf and rejected
    with np.errstate(divide="ignore"):
        k = np.floor((2 * a / us + b) * u + lam + 0.43)
    return k, (us >= 0.07) & (v <= vr), v, us


def _poisson_ptrs(streams: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """numpy's ``random_poisson_ptrs`` for lam >= 10, over arrays.

    Hoermann's transformed rejection (PTRS): each point draws ``U`` then
    ``V`` from its own stream until a pair accepts, and its count is that
    pair's ``k``.  Most points accept their first pair by the quick test
    alone (about 80 % of them at large means, 35 % at 10), so a first round
    applies only that.  The rest start over from their first pair with the
    full test, ``_ROUND_DRAWS / 2`` pairs a round; a point's pairs after
    the one it accepts are never read.  ``log(lam)`` and ``log(invalpha)``
    are taken only for the pairs that reach the slow test.
    """
    b = 0.931 + 2.53 * np.sqrt(lam)
    params = np.array([lam, -0.059 + 0.02483 * b, b, 0.9277 - 3.6224 / (b - 2)])
    k, accept = _ptrs_pairs(_uniforms(streams, 2, 2), params)[:2]
    counts = np.empty(lam.size, dtype=np.int64)
    counts[accept[0]] = k[0, accept[0]]
    rest, first = np.flatnonzero(~accept[0]), 2
    while rest.size:
        rest_params = params[:, rest]
        k, accept, v, us = _ptrs_pairs(
            _uniforms(streams[..., rest], first, _ROUND_DRAWS), rest_params
        )
        # the slow test, for pairs that no earlier pair's quick accept pre-empts
        slow = (k >= 0.0) & ((us >= 0.013) | (v <= us)) & ~np.logical_or.accumulate(accept)
        s_lam, s_a, s_b, _ = rest_params[:, slow.nonzero()[1]]
        s_v, s_us, s_k = v[slow], us[slow], k[slow]
        # C's log(0) is -inf, which always accepts
        log_v, log_invalpha, log_hat, loglam = _libm(math.log, np.array([
            np.where(s_v > 0.0, s_v, 1.0), 1.1239 + 1.1328 / (s_b - 3.4),
            s_a / (s_us * s_us) + s_b, s_lam,
        ]))
        accept[slow] = (s_v == 0.0) | (
            log_v + log_invalpha - log_hat <= -s_lam + s_k * loglam - _loggam(s_k + 1.0)
        )
        done = accept.any(axis=0)
        counts[rest[done]] = k[accept.argmax(axis=0), np.arange(rest.size)][done]
        rest, first = rest[~done], first + _ROUND_DRAWS
    return counts


def _poisson_counts(seed: int, means: np.ndarray) -> np.ndarray:
    """Draw ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,))).poisson(means[i])``.

    Every point's PCG64 stream is derived and stepped on uint64 arrays
    (:func:`_point_streams`, :func:`_uniforms`), and numpy's own
    ``random_poisson`` runs over all points at once: 0 at a mean of 0, the
    multiplication method below 10 and PTRS (Hoermann 1993) with
    ``random_loggam`` from 10 up.  Each point reads its own stream in the
    order the scalar call does, so the counts are the same bytes.

    Arithmetic that IEEE 754 rounds exactly (``+ - * /``, ``sqrt``,
    ``floor``, ``abs``, comparisons) runs in numpy; every ``log`` and
    ``exp`` goes through ``math``, which calls the libm that numpy's C
    sampler calls.  numpy's own vectorized ``log`` and ``exp`` may differ
    from libm in the last bit (numpy 2.4 with AVX-512: ``np.log`` on 0.35 %
    of uniforms in [0, 1), ``np.exp`` on 4.7 % of [-10, 0]), and one bit
    moves a count whenever it decides an acceptance test.
    """
    streams = _point_streams(seed, means.size)
    counts = np.zeros(means.size, dtype=np.int64)
    for sampler, pick in ((_poisson_mult, (means > 0.0) & (means < 10.0)),
                          (_poisson_ptrs, means >= 10.0)):
        counts[pick] = sampler(streams[..., pick], means[pick])
    return counts


def derive_stage_seed(seed: int, stage: int) -> int:
    """Derive an independent 64-bit seed for a named pipeline stage.

    Different stages of one scenario (the delay scan, the phase sweep) must
    not share count noise, so each draws its seed from a fixed substream of
    the scenario seed.  Deterministic in both arguments.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0xFFFF, stage))
    return int(ss.generate_state(1, np.uint64)[0])


def run_scan(
    config: ScanConfig, rate_fn: Callable[[np.ndarray], np.ndarray | float]
) -> ScanResult:
    """Draw Poisson counts at every coordinate of the scan.

    ``rate_fn`` is called once with the whole coordinate array and returns
    the rate at each coordinate, or one rate for all of them.  Point ``i``
    draws from its own substream seeded by ``(config.seed, i)``, so its
    count depends only on the seed, ``i`` and its mean, not on the order in
    which points are evaluated.

    Raises
    ------
    ValidationError
        If the rates do not broadcast to the coordinate shape.
    NumericalError
        If a rate is negative or non-finite, or a mean (rate times dwell)
        is above numpy's Poisson limit, ``2**63 - 1 - 10 sqrt(2**63 - 1)``;
        the message names the first such coordinate.
    """
    coords = config.coordinates
    rates = np.asarray(rate_fn(coords), dtype=np.float64)
    try:
        rates = np.broadcast_to(rates, coords.shape)
    except ValueError:
        raise ValidationError(
            f"rate function returned shape {rates.shape} for {coords.size} coordinates"
        ) from None
    bad = ~(np.isfinite(rates) & (rates >= 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"rate function returned {float(rates[i])!r} at coordinate {coords[i]:g}; "
            "expected a finite non-negative rate"
        )
    # a mean that overflows to inf is refused below, with its coordinate
    with np.errstate(over="ignore"):
        means = rates * config.dwell_s
    too_large = means > _POISSON_LAM_MAX
    if too_large.any():
        i = int(np.argmax(too_large))
        raise NumericalError(
            f"Poisson mean {float(means[i])!r} at coordinate {coords[i]:g} is above "
            f"{_POISSON_LAM_MAX:.6g}, the largest the count sampler accepts"
        )
    return ScanResult(coords, _poisson_counts(config.seed, means), means, config)


def run_phase_sweep(
    phases_rad: np.ndarray,
    contrast: float,
    counts_scale: float,
    noise_cps: float = 0.0,
    dwell_s: float = 1.0,
    seed: int = 0,
    decode_phase_rad: float = 0.0,
) -> ScanResult:
    """Sweep the analyzer phase and count the center time bin.

    The expected counts at phase ``phi`` are
    ``counts_scale * center_bin_expectation(phi - decode_phase_rad, contrast)
    + noise_cps * dwell_s``.  ``counts_scale`` is the total-counts scale of
    the fringe (rate times dwell), so the noiseless fringe maximum is
    ``counts_scale * (1 + contrast) / 3``.
    """
    config = ScanConfig(np.asarray(phases_rad, dtype=np.float64), dwell_s=dwell_s, seed=seed)
    fringe = center_bin_expectation(config.coordinates - decode_phase_rad, contrast)
    # a rate that overflows to inf is refused by run_scan, with its coordinate
    with np.errstate(over="ignore"):
        rates = (counts_scale * fringe) / dwell_s + noise_cps
    return run_scan(config, lambda _: rates)
