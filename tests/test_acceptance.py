"""End-to-end acceptance checks, one per published claim.

Each test prints a single ``ACCEPTANCE n PASS/FAIL`` line (past pytest's
capture, so the lines always appear) and then asserts, so a red run names
exactly which claim broke.
"""

import math

import numpy as np
import pytest
from scipy.signal import find_peaks

from oracles import (
    DETECTION_LIMIT_BY_LENGTH,
    ETA_INT_BY_LENGTH,
    GATE_FWHM_BY_LENGTH,
    NOISE_CPS_BY_LENGTH,
    PUBLISHED_FWHM_BY_LENGTH,
    PUBLISHED_LIMIT_BY_LENGTH,
    analytic_response,
)
from ucspd.analysis import deconvolve, fit_sine
from ucspd.detector import detection_limit, external_efficiency
from ucspd.response import resolution_function
from ucspd.simulate import ScanConfig, run_phase_sweep, run_scan
from ucspd.timebin import (
    apply_interferometer,
    center_bin_expectation,
    slot_probabilities,
)
from ucspd.waveform import (
    SampledWaveform,
    TimeGrid,
    convolve,
    fwhm,
    gaussian_waveform,
)

PUMP_FWHM = 200.0
TAU_G = 204.3


@pytest.fixture
def announce(capsys):
    def report(number: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, detail
    return report


def test_acceptance_1_resolution_table(announce):
    parts = []
    ok = True
    for length in (1.0, 2.0, 3.0):
        gate = length * TAU_G
        half = 0.5 * gate + 3.0 * PUMP_FWHM
        grid = TimeGrid.symmetric(half, 0.25)
        measured = fwhm(resolution_function(PUMP_FWHM, gate, grid))
        oracle = GATE_FWHM_BY_LENGTH[length]
        published = PUBLISHED_FWHM_BY_LENGTH[length]
        ok &= abs(measured - oracle) <= 2.0
        ok &= abs(measured - published) / published <= 0.05
        parts.append(f"L={length:g}: {measured:.1f} fs (oracle {oracle:.1f}, published {published:g})")
    announce(1, ok, "resolution FWHM within 2 fs of oracle and 5% of published; " + "; ".join(parts))


def test_acceptance_2_convolution_matches_erf_form(announce):
    signal_fwhm = 240.0
    parts = []
    ok = True
    for length in (1.0, 2.0, 3.0):
        gate = length * TAU_G
        half = 0.5 * gate + 3.0 * max(PUMP_FWHM, signal_fwhm)
        n = 2000
        dt = 2.0 * half / (n - 1)
        grid = TimeGrid(-half, dt, n)
        resolution = resolution_function(PUMP_FWHM, gate, grid)
        signal = gaussian_waveform(signal_fwhm, grid)
        numeric = convolve(signal, resolution).peak_normalized()
        delays = numeric.times()
        analytic = analytic_response(delays, PUMP_FWHM, signal_fwhm, gate)
        analytic = analytic / analytic.max()
        worst = float(np.max(np.abs(numeric.samples - analytic)))
        ok &= worst <= 0.005
        parts.append(f"L={length:g}: max dev {worst:.2e} of peak at {n} points")
    announce(2, ok, "convolution vs closed-form response within 0.5% of peak; " + "; ".join(parts))


def test_acceptance_3_detection_limits(announce):
    parts = []
    ok = True
    for length in (1.0, 2.0, 3.0):
        eta_ext = external_efficiency(ETA_INT_BY_LENGTH[length], 0.41, 0.85, 0.94)
        limit = detection_limit(NOISE_CPS_BY_LENGTH[length], 1.0, eta_ext, 76.3e6)
        oracle = DETECTION_LIMIT_BY_LENGTH[length]
        published = PUBLISHED_LIMIT_BY_LENGTH[length]
        ok &= abs(limit - oracle) / oracle <= 1e-9
        ok &= abs(limit - published) / published <= 0.03
        parts.append(f"L={length:g}: {limit:.3e} (published {published:.1e})")
    announce(3, ok, "detection limits match published values within 3%; " + "; ".join(parts))


def test_acceptance_4_external_efficiency(announce):
    eta = external_efficiency(0.101, 0.41, 0.85, 0.94)
    exact = 0.101 * 0.41 * 0.85 * 0.94
    ok = abs(eta - exact) <= 1e-15 and f"{eta * 100.0:.1f}" == "3.3"
    announce(4, ok, f"0.101*0.41*0.85*0.94 = {eta * 100.0:.2f}% rounds to 3.3%")


def test_acceptance_5_cascade_ratio_property(announce):
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(100):
        phi, phi_prime = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=2)
        amplitudes = np.ones(1, dtype=np.complex128)
        amplitudes = apply_interferometer(amplitudes, phi, 1.0)
        amplitudes = apply_interferometer(amplitudes, phi_prime, 1.0)
        probs = slot_probabilities(amplitudes)
        expected = 4.0 * math.cos(0.5 * (phi - phi_prime)) ** 2
        worst = max(worst, abs(probs[1] / probs[0] - expected))
        worst = max(worst, abs(probs[1] / probs[2] - expected))
    ok = worst <= 1e-12
    announce(5, ok, f"1 : 4cos^2((phi-phi')/2) : 1 over 100 random pairs, worst dev {worst:.2e}")


def test_acceptance_6_visibility_recovery(announce):
    phases = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    sweep = run_phase_sweep(phases, contrast=0.982, counts_scale=2.0e6, seed=6)
    peak = float(sweep.expected.max())
    fit = fit_sine(phases, sweep.counts)
    noiseless = fit_sine(
        phases, np.array([center_bin_expectation(p, 1.0) for p in phases]) * 2.0e6
    )
    ok = (
        peak >= 1e6
        and abs(fit.visibility - 0.982) <= 0.002
        and abs(noiseless.visibility - 1.0) < 1e-9
    )
    announce(
        6,
        ok,
        f"simulated sweep V = {fit.visibility:.4f} (target 0.982 +/- 0.002, "
        f"peak {peak:.2e} counts); noiseless V - 1 = {noiseless.visibility - 1.0:.1e}",
    )


def test_acceptance_7_deconvolution_round_trip(announce):
    gate = 2.0 * TAU_G
    kernel_grid = TimeGrid.symmetric(0.5 * gate + 3.0 * PUMP_FWHM, 1.0)
    kernel = resolution_function(PUMP_FWHM, gate, kernel_grid)
    grid = TimeGrid.symmetric(2400.0, 1.0)
    comb = (
        0.25 * gaussian_waveform(240.0, grid, center_fs=-800.0).samples
        + gaussian_waveform(240.0, grid).samples
        + 0.25 * gaussian_waveform(240.0, grid, center_fs=800.0).samples
    )
    blurred = convolve(SampledWaveform(grid.t0_fs, grid.dt_fs, comb), kernel)
    scale = 1e5 / blurred.peak_value
    counts = np.random.default_rng(424242).poisson(blurred.samples * scale)
    measured = SampledWaveform(blurred.t0_fs, blurred.dt_fs, counts.astype(np.float64))
    estimate = deconvolve(measured, kernel).estimate
    idx, _ = find_peaks(estimate.samples, prominence=0.05 * estimate.peak_value)
    times = estimate.times()[idx] if idx.size else np.array([])
    spacings = np.diff(times)
    heights = estimate.samples[idx] if idx.size else np.array([1.0])
    ok = idx.size == 3
    if ok:
        ok &= bool(np.all(np.abs(spacings - 800.0) <= 40.0))
        for side in (heights[0], heights[2]):
            ok &= abs(heights[1] / side - 4.0) <= 0.4
    detail = (
        f"{idx.size} peaks, spacings {np.array2string(spacings, precision=1)} fs, "
        f"center/side ratios "
        + (
            f"{heights[1] / heights[0]:.2f} and {heights[1] / heights[2]:.2f}"
            if idx.size == 3
            else "n/a"
        )
    )
    announce(7, ok, "1:4:1 pulse train recovered at 1e5 peak counts; " + detail)


def test_acceptance_8_poisson_statistics_and_determinism(announce):
    coordinates = np.arange(10000, dtype=np.float64)
    config = ScanConfig(coordinates=coordinates, dwell_s=1.0, seed=20260815)
    first = run_scan(config, 1000.0)
    again = run_scan(config, 1000.0)
    # point i alone from its own (seed, i) stream, points visited in shuffled order
    shuffled = np.empty(config.n_points, dtype=np.int64)
    for i in np.random.default_rng(8).permutation(config.n_points).tolist():
        stream = np.random.SeedSequence(entropy=config.seed, spawn_key=(i,))
        shuffled[i] = np.random.default_rng(stream).poisson(first.expected[i])
    mean = float(first.counts.mean())
    ratio = float(first.counts.var() / mean)
    ok = (
        990.0 <= mean <= 1010.0
        and 0.95 <= ratio <= 1.05
        and first.counts.tobytes() == again.counts.tobytes()
        and first.counts.tobytes() == shuffled.tobytes()
    )
    announce(
        8,
        ok,
        f"10000-point scan mean {mean:.2f} (target 1000 +/- 1%), variance/mean "
        f"{ratio:.4f} (0.95-1.05), reruns and shuffled per-point draws byte-identical",
    )
