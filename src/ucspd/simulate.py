"""Monte Carlo photon-counting scans with reproducible noise.

A delay scan steps the signal arrival time against the gate and records
Poisson counts at each step; a phase sweep does the same against an
interferometer phase.  Counts at every scan point are drawn from a dedicated
random substream derived from ``(seed, point index)``, so results are
byte-identical across reruns, evaluation order, and worker thread counts.

Rates are exact expectations built from the model modules; the only
randomness is the Poisson draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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


def _rate_from_overlap(
    overlap: SampledWaveform,
    delay_fs: float,
    mean_photons_per_pulse: float,
    external_eta: float,
    rep_rate_hz: float,
    noise_cps: float,
) -> float:
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
    frac = float(overlap.sample_at(delay_fs))
    return rep_rate_hz * mean_photons_per_pulse * external_eta * frac + noise_cps


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

    ``rep_rate * mu * eta * O(delay) + noise`` with ``O`` the peak-normalized
    signal/resolution overlap, so the external efficiency applies at optimal
    overlap and ``O <= 1`` everywhere.  ``O`` is interpolated at the
    requested delay and is zero outside the overlap grid.

    For scans, precompute the overlap once with :func:`delay_rate_function`
    instead of calling this per point.
    """
    overlap = overlap_fraction(signal, resolution)
    return _rate_from_overlap(
        overlap, delay_fs, mean_photons_per_pulse, external_eta, rep_rate_hz, noise_cps
    )


def delay_rate_function(
    signal: SampledWaveform,
    resolution: SampledWaveform,
    mean_photons_per_pulse: float,
    external_eta: float,
    rep_rate_hz: float,
    noise_cps: float = 0.0,
) -> Callable[[float], float]:
    """Bind the overlap curve and flux parameters into ``rate(delay_fs)``."""
    overlap = overlap_fraction(signal, resolution)
    return lambda delay_fs: _rate_from_overlap(
        overlap, delay_fs, mean_photons_per_pulse, external_eta, rep_rate_hz, noise_cps
    )


def _point_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


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
    config: ScanConfig,
    rate_fn: Callable[[float], float],
    workers: int = 1,
) -> ScanResult:
    """Draw Poisson counts at every coordinate of the scan.

    Point ``i`` draws from its own substream seeded by ``(config.seed, i)``,
    which makes the result independent of evaluation order; ``workers > 1``
    evaluates points in a thread pool and is guaranteed to return the exact
    same counts as the serial path.

    Raises
    ------
    NumericalError
        If the rate function returns a negative or non-finite value.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")

    def point(i: int) -> tuple[int, float]:
        coord = float(config.coordinates[i])
        rate = float(rate_fn(coord))
        if not math.isfinite(rate) or rate < 0.0:
            raise NumericalError(
                f"rate function returned {rate!r} at coordinate {coord:g}; "
                "expected a finite non-negative rate"
            )
        mean = rate * config.dwell_s
        count = int(_point_rng(config.seed, i).poisson(mean))
        return count, mean

    indices = range(config.n_points)
    if workers == 1:
        results = [point(i) for i in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(point, indices))
    counts = np.array([r[0] for r in results], dtype=np.int64)
    expected = np.array([r[1] for r in results], dtype=np.float64)
    return ScanResult(config.coordinates, counts, expected, config)


def run_phase_sweep(
    phases_rad: np.ndarray,
    contrast: float,
    counts_scale: float,
    noise_cps: float = 0.0,
    dwell_s: float = 1.0,
    seed: int = 0,
    decode_phase_rad: float = 0.0,
    workers: int = 1,
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

    def rate(phi: float) -> float:
        fringe = center_bin_expectation(phi - decode_phase_rad, contrast)
        return (counts_scale * fringe) / dwell_s + noise_cps

    return run_scan(config, rate, workers=workers)
