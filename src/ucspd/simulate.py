"""Monte Carlo photon-counting scans with reproducible noise.

A delay scan steps the signal arrival time against the gate and records
Poisson counts at each step; a phase sweep does the same against an
interferometer phase.  Counts at every scan point are drawn from a dedicated
random substream derived from ``(seed, point index)``, so results are
byte-identical across reruns and independent of evaluation order.

Rates are exact expectations built from the model modules; the only
randomness is the Poisson draw.
"""

from __future__ import annotations

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
    "overlap_fraction",
    "expected_rate",
    "delay_rate_function",
    "run_scan",
    "run_phase_sweep",
    "derive_stage_seed",
]

#: How per-point random substreams are constructed, recorded in results.
RNG_SCHEME = "pcg64 via SeedSequence(entropy=seed, spawn_key=(point_index,))"

_MAX_SEED = 2 ** 64


@dataclass(frozen=True)
class ScanConfig:
    """One counting scan: coordinates, source parameters, and the RNG seed.

    ``kind`` tags the coordinate axis: ``"delay"`` for femtosecond delay
    scans (coordinates must then be strictly increasing) or ``"phase"`` for
    interferometer phase sweeps in radians.  ``mean_photons_per_pulse`` and
    ``rep_rate_hz`` describe the source driving the scan; they are carried
    here so a result echoes the full experiment.
    """

    coordinates: np.ndarray
    dwell_s: float = 1.0
    mean_photons_per_pulse: float = 0.1
    rep_rate_hz: float = 76.3e6
    seed: int = 0
    kind: str = "delay"

    def __post_init__(self) -> None:
        coords = np.array(self.coordinates, dtype=np.float64, copy=True)
        if coords.ndim != 1 or coords.size < 1:
            raise ValidationError("scan coordinates must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(coords)):
            raise ValidationError("scan coordinates must be finite")
        if self.kind not in ("delay", "phase"):
            raise ValidationError(f"unknown scan kind {self.kind!r}")
        if self.kind == "delay" and coords.size > 1 and not np.all(np.diff(coords) > 0.0):
            raise ValidationError("delay coordinates must be strictly increasing")
        if not (math.isfinite(self.dwell_s) and self.dwell_s > 0.0):
            raise ValidationError(f"dwell time must be positive, got {self.dwell_s}")
        if not (math.isfinite(self.mean_photons_per_pulse) and self.mean_photons_per_pulse >= 0.0):
            raise ValidationError(
                f"mean photon number must be >= 0, got {self.mean_photons_per_pulse}"
            )
        if not (math.isfinite(self.rep_rate_hz) and self.rep_rate_hz > 0.0):
            raise ValidationError(f"repetition rate must be positive, got {self.rep_rate_hz}")
        if not isinstance(self.seed, int) or not (0 <= self.seed < _MAX_SEED):
            raise ValidationError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
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
    rng_scheme: str = RNG_SCHEME

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


def overlap_fraction(signal: SampledWaveform, resolution: SampledWaveform) -> SampledWaveform:
    """Peak-normalized convolution of signal and resolution function.

    The value at a given delay is the fraction of the maximum achievable
    up-conversion rate, so it multiplies directly onto the photon flux.
    """
    return convolve(signal, resolution).peak_normalized()


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
    zero outside the overlap grid.  The flux parameters are validated here,
    once, and the overlap and its sample times are computed once.
    """
    if not (math.isfinite(mean_photons_per_pulse) and mean_photons_per_pulse >= 0.0):
        raise ValidationError(
            f"mean photon number must be >= 0, got {mean_photons_per_pulse}"
        )
    if not (math.isfinite(external_eta) and 0.0 <= external_eta <= 1.0):
        raise ValidationError(f"external efficiency must be in [0, 1], got {external_eta}")
    if not (math.isfinite(rep_rate_hz) and rep_rate_hz > 0.0):
        raise ValidationError(f"repetition rate must be positive, got {rep_rate_hz}")
    if not (math.isfinite(noise_cps) and noise_cps >= 0.0):
        raise ValidationError(f"noise rate must be >= 0, got {noise_cps}")
    overlap = overlap_fraction(signal, resolution)
    times, fractions = overlap.times(), overlap.samples
    flux = rep_rate_hz * mean_photons_per_pulse * external_eta

    def rate(delays_fs: np.ndarray | float) -> np.ndarray:
        return flux * np.interp(delays_fs, times, fractions, left=0.0, right=0.0) + noise_cps

    return rate


def expected_rate(
    signal: SampledWaveform,
    resolution: SampledWaveform,
    delay_fs: float,
    mean_photons_per_pulse: float,
    external_eta: float,
    rep_rate_hz: float,
    noise_cps: float = 0.0,
) -> float:
    """Expected count rate at one gate delay, in counts per second.

    The rate of :func:`delay_rate_function` at ``delay_fs``.  For scans, build
    that function once and pass it all the delays instead of calling this per
    point.
    """
    rate = delay_rate_function(
        signal, resolution, mean_photons_per_pulse, external_eta, rep_rate_hz, noise_cps
    )
    return float(rate(delay_fs))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash step on uint32 arrays; also returns the next constant."""
    value = value ^ np.uint32(const)
    const = (const * mult) & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return mixed ^ (mixed >> np.uint32(16))


def _poisson_counts(seed: int, means: np.ndarray) -> np.ndarray:
    """Draw ``default_rng(SeedSequence(entropy=seed, spawn_key=(i,))).poisson(means[i])``.

    Building a ``SeedSequence`` and a ``Generator`` per point costs about
    20 us, so the points' seed states are derived together instead: the
    SeedSequence entropy pool and ``generate_state(4, uint64)`` run on uint32
    arrays over the point index ``i``, and each state becomes the PCG64
    ``(state, inc)`` that ``PCG64(seed_seq)`` would set.  Each point's stream
    then draws its one Poisson variate from a single reused generator, so
    the counts are the same bytes as the per-point construction.
    """
    # a seed below 2**64 is two uint32 words, zero-padded to the pool size
    # of four because a spawn key follows
    const = _INIT_A
    pool = []
    for word in (seed & _MASK32, seed >> 32, 0, 0):
        value, const = _hashmix(np.array([word], dtype=np.uint32), const, _MULT_A)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    index = np.arange(means.size, dtype=np.uint32)
    for dst in range(4):
        value, const = _hashmix(index, const, _MULT_A)
        pool[dst] = _mix(pool[dst], value)
    const = _INIT_B
    words = []
    for k in range(8):
        value, const = _hashmix(pool[k % 4], const, _MULT_B)
        words.append(value.astype(np.uint64))
    # little-endian word pairs: seed high, seed low, increment high, increment low
    halves = [(words[k] | (words[k + 1] << np.uint64(32))).tolist() for k in range(0, 8, 2)]

    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    counts = np.empty(means.size, dtype=np.int64)
    for i, (s_hi, s_lo, i_hi, i_lo, mean) in enumerate(zip(*halves, means.tolist())):
        # pcg_setseq_128_srandom_r: two LCG steps from state 0
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        counts[i] = gen.poisson(mean)
    return counts


def derive_stage_seed(seed: int, stage: int) -> int:
    """Derive an independent 64-bit seed for a named pipeline stage.

    Different stages of one scenario (the delay scan, the phase sweep) must
    not share count noise, so each draws its seed from a fixed substream of
    the scenario seed.  Deterministic in both arguments.
    """
    if not isinstance(seed, int) or not (0 <= seed < _MAX_SEED):
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
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
        If a rate is negative or non-finite; the message names the first
        such coordinate.
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
    means = rates * config.dwell_s
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
    if not (math.isfinite(counts_scale) and counts_scale > 0.0):
        raise ValidationError(f"counts scale must be positive, got {counts_scale}")
    if not (math.isfinite(noise_cps) and noise_cps >= 0.0):
        raise ValidationError(f"noise rate must be >= 0, got {noise_cps}")
    if not math.isfinite(decode_phase_rad):
        raise ValidationError("decode phase must be finite")
    config = ScanConfig(np.asarray(phases_rad, dtype=np.float64), dwell_s=dwell_s,
                        seed=seed, kind="phase")
    fringe = center_bin_expectation(config.coordinates - decode_phase_rad, contrast)
    return run_scan(config, lambda _: (counts_scale * fringe) / dwell_s + noise_cps)
