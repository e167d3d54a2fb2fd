"""Deconvolution and fitting: recover pulse shapes and fringe visibility."""

import inspect
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import scipy.special
from scipy.signal import find_peaks

from convolution_paths import PATHS, both_paths, forced_path
from oracles import erf_gate_curve_fit
from scenario_edits import edited
from waveform_measures import area, peak_time_fs
from ucspd import analysis, cli
from ucspd.analysis import (
    deconvolve,
    erf_gate_model_and_jacobian,
    fit_erf_gate,
    fit_sine,
)
from ucspd.errors import (
    FitConvergenceError, GridMismatchError, NumericalError, ScenarioError, ValidationError,
)
from ucspd.response import resolution_function
from ucspd.scenario import parse_scenario
from ucspd.simulate import (
    ScanConfig,
    delay_rate_function,
    run_phase_sweep,
    run_scan,
)
from ucspd.timebin import center_bin_expectation
from ucspd.waveform import SampledWaveform, TimeGrid, convolve, fwhm, gaussian_waveform

# where _erf changes branch (|u| = 6) and where floats are special
TINY = np.finfo(np.float64).tiny
ERF_EDGES = st.sampled_from([
    s * x for s in (1.0, -1.0) for x in (
        0.0, 5e-324, TINY, np.nextafter(TINY, 0.0),
        np.nextafter(6.0, 0.0), 6.0, np.nextafter(6.0, 7.0), math.inf,
    )
])

PUMP_FWHM = 200.0
SIGNAL_FWHM = 240.0
TAU_G = 204.3


def reference_kernel(length_mm=2.0, dt_fs=1.0):
    gate = length_mm * TAU_G
    grid = TimeGrid.symmetric(0.5 * gate + 3.0 * PUMP_FWHM, dt_fs)
    return resolution_function(PUMP_FWHM, gate, grid)


def simulate_delay_scan(length_mm, peak_counts, seed, noise_cps=0.0, step_fs=25.0):
    """Poisson delay scan of a 240 fs Gaussian through the gate."""
    gate = length_mm * TAU_G
    grid = TimeGrid.symmetric(0.5 * gate + 3.0 * max(PUMP_FWHM, SIGNAL_FWHM), 1.0)
    resolution = resolution_function(PUMP_FWHM, gate, grid)
    signal = gaussian_waveform(SIGNAL_FWHM, grid)
    span = 1.6 * (0.5 * gate + SIGNAL_FWHM)
    delays = np.arange(-span, span + step_fs / 2, step_fs)
    rate = delay_rate_function(
        signal,
        resolution,
        mean_photons_per_pulse=0.1,
        external_eta=0.0331,
        rep_rate_hz=76.3e6,
        noise_cps=noise_cps,
    )
    rates = rate(delays)
    config = ScanConfig(coordinates=delays, dwell_s=peak_counts / rates.max(), seed=seed)
    return run_scan(config, rates)


class TestDeconvolveRoundTrip:
    def test_noiseless_gaussian_recovers_its_width(self):
        kernel = reference_kernel()
        grid = TimeGrid.symmetric(1500.0, 1.0)
        truth = gaussian_waveform(SIGNAL_FWHM, grid)
        measured = convolve(truth, kernel)
        result = deconvolve(measured, kernel)
        assert abs(fwhm(result.estimate) - SIGNAL_FWHM) <= 0.05 * SIGNAL_FWHM
        assert abs(peak_time_fs(result.estimate)) <= 2.0
        assert result.max_flux_drift < 1e-6

    def test_recovered_scale_matches_truth(self):
        # the estimate carries physical units, not just shape
        kernel = reference_kernel()
        grid = TimeGrid.symmetric(1500.0, 1.0)
        truth = gaussian_waveform(SIGNAL_FWHM, grid)
        truth = SampledWaveform(truth.t0_fs, truth.dt_fs, 3.7e4 * truth.samples)
        measured = convolve(truth, kernel)
        result = deconvolve(measured, kernel)
        assert result.estimate.peak_value == pytest.approx(truth.peak_value, rel=5e-3)
        assert area(result.estimate) == pytest.approx(area(truth), rel=1e-6)

    def test_estimate_convolves_back_to_measurement(self):
        kernel = reference_kernel()
        grid = TimeGrid.symmetric(1500.0, 1.0)
        truth = gaussian_waveform(SIGNAL_FWHM, grid)
        measured = convolve(truth, kernel)
        result = deconvolve(measured, kernel)
        replay = convolve(result.estimate, kernel)
        assert replay.sample_at(0.0) == pytest.approx(measured.sample_at(0.0), rel=1e-3)

    def test_delta_input_collapses_to_grid_resolution(self, monkeypatch):
        # a delta blurred by the gate deconvolves back to a spike; on a
        # coarse grid the limit is a few samples wide
        dt = 20.0
        kernel = reference_kernel(dt_fs=dt)
        grid = TimeGrid.symmetric(1200.0, dt)
        spike = np.zeros(grid.n)
        spike[grid.n // 2] = 1.0
        truth = SampledWaveform(grid.t0_fs, dt, spike)
        measured = convolve(truth, kernel)
        monkeypatch.setattr(analysis, "RL_MAX_ITERATIONS", 2000)
        result = deconvolve(measured, kernel)
        assert fwhm(result.estimate) <= 3.0 * dt
        assert abs(peak_time_fs(result.estimate)) <= dt

    def test_nonnegative_output_and_flux_conservation(self):
        kernel = reference_kernel()
        grid = TimeGrid.symmetric(1500.0, 1.0)
        truth = gaussian_waveform(SIGNAL_FWHM, grid)
        measured = convolve(truth, kernel)
        result = deconvolve(measured, kernel)
        assert np.all(result.estimate.samples >= 0.0)
        assert result.max_flux_drift < 1e-6
        assert result.iterations_run <= 500


class TestDeconvolveThreePulse:
    def seeded_three_pulse(self, seed=424242):
        kernel = reference_kernel()
        grid = TimeGrid.symmetric(2400.0, 1.0)
        comb = (
            0.25 * gaussian_waveform(SIGNAL_FWHM, grid, center_fs=-800.0).samples
            + gaussian_waveform(SIGNAL_FWHM, grid).samples
            + 0.25 * gaussian_waveform(SIGNAL_FWHM, grid, center_fs=800.0).samples
        )
        truth = SampledWaveform(grid.t0_fs, grid.dt_fs, comb)
        blurred = convolve(truth, kernel)
        scale = 1e5 / blurred.peak_value
        rng = np.random.default_rng(seed)
        noisy = rng.poisson(blurred.samples * scale).astype(np.float64)
        measured = SampledWaveform(blurred.t0_fs, blurred.dt_fs, noisy)
        return measured, kernel

    def test_poisson_counts_recover_peak_ratio_and_spacing(self):
        measured, kernel = self.seeded_three_pulse()
        result = deconvolve(measured, kernel)
        est = result.estimate
        idx, _ = find_peaks(est.samples, prominence=0.05 * est.peak_value)
        assert idx.size == 3
        times = est.times()[idx]
        spacings = np.diff(times)
        assert np.all(np.abs(spacings - 800.0) <= 40.0)
        heights = est.samples[idx]
        for side in (heights[0], heights[2]):
            assert heights[1] / side == pytest.approx(4.0, rel=0.10)

    def test_flux_drift_stays_small_under_noise(self):
        measured, kernel = self.seeded_three_pulse()
        result = deconvolve(measured, kernel)
        assert result.max_flux_drift < 1e-6

    def test_known_zero_background_stops_at_the_noise_level(self):
        measured, kernel = self.seeded_three_pulse()
        result = deconvolve(measured, kernel, background=0.0)
        assert result.stop_reason == "discrepancy" and result.converged
        assert result.iterations_run <= 100
        assert result.deviance_per_point <= 1.0 + 2.0 * math.sqrt(2.0 / measured.n)
        est = result.estimate
        idx, _ = find_peaks(est.samples, prominence=0.05 * est.peak_value)
        assert idx.size == 3
        assert np.all(np.abs(np.diff(est.times()[idx]) - 800.0) <= 40.0)
        heights = est.samples[idx]
        for side in (heights[0], heights[2]):
            assert heights[1] / side == pytest.approx(4.0, rel=0.10)


class TestDeconvolvePaths:
    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("n,m", [(50, 7), (50, 8), (145, 69), (145, 70), (30, 41), (30, 40)])
    def test_operators_are_an_exact_adjoint_pair(self, path, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        kn = rng.random(m)
        kn /= kn.sum()
        with forced_path(path):
            forward, adjoint = analysis._rl_operators(kn, n)
        u = rng.random(n)
        v = rng.random(n)
        lhs = float(np.dot(forward(u), v))
        rhs = float(np.dot(u, adjoint(v)))
        assert forward(u).shape == adjoint(v).shape == (n,)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("trim", [0, 1])
    def test_direct_and_fft_paths_give_the_same_estimate(self, trim, monkeypatch):
        measured, kernel = TestDeconvolveThreePulse().seeded_three_pulse()
        kernel = SampledWaveform(kernel.t0_fs, kernel.dt_fs, kernel.samples[trim:])
        monkeypatch.setattr(analysis, "RL_MAX_ITERATIONS", 100)
        results = both_paths(deconvolve, measured, kernel)
        direct, fft = (result.estimate for result in results)
        assert fft.t0_fs == direct.t0_fs
        assert np.abs(fft.samples - direct.samples).max() <= 1e-12 * direct.peak_value
        for result in results:
            assert result.iterations_run == 100
            assert result.max_flux_drift <= 1e-12


@st.composite
def _poisson_problem(draw):
    """Random kernel, length and background, with counts drawn from the model."""
    m = draw(st.integers(2, 25))
    n = draw(st.integers(2, 120))
    kernel = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)))
    scale = draw(st.floats(1.0, 1e4))
    background = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))) * scale
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    forward, _ = analysis._rl_operators(kernel / kernel.sum(), n)
    counts = rng.poisson(forward(scale * rng.random(n)) + background).astype(np.float64)
    assume(counts.sum() > n * background)
    return SampledWaveform(0.0, 1.0, counts), SampledWaveform(0.0, 1.0, kernel), background


class TestDeconvolveWithBackground:
    @settings(max_examples=40, deadline=None)
    @given(problem=_poisson_problem())
    def test_em_identity_and_stop_agree_on_both_paths(self, problem):
        measured, kernel, background = problem
        results = both_paths(deconvolve, measured, kernel, background=background)
        noise_level = 1.0 + 2.0 * math.sqrt(2.0 / measured.n)
        for result in results:
            assert result.max_flux_drift <= 1e-12
            assert np.all(result.estimate.samples >= 0.0)
            if result.stop_reason == "discrepancy":
                assert result.deviance_per_point <= noise_level
            else:
                assert result.stop_reason == "cap"
                assert result.iterations_run == analysis.RL_MAX_ITERATIONS
        direct, fft = results
        assert (direct.stop_reason, direct.iterations_run) == (fft.stop_reason, fft.iterations_run)

    def test_start_holds_the_counts_above_the_background(self):
        # flat counts at twice the background: the flat start already fits
        kernel = SampledWaveform(0.0, 1.0, np.ones(5))
        measured = SampledWaveform(0.0, 1.0, np.full(40, 200.0))
        result = deconvolve(measured, kernel, background=100.0)
        assert (result.stop_reason, result.iterations_run) == ("discrepancy", 0)
        assert area(result.estimate) == pytest.approx(40 * 100.0 / 5.0, rel=1e-12)

    def test_counts_not_above_the_background_are_a_numerical_error(self):
        measured = SampledWaveform(0.0, 1.0, np.full(16, 3.0))
        with pytest.raises(NumericalError, match=r"total 48, not above the background total 48"):
            deconvolve(measured, SampledWaveform(0.0, 1.0, np.ones(3)), background=3.0)

    @pytest.mark.parametrize("background", [0.0, 1e-321])
    def test_zero_counts_are_a_numerical_error(self, background):
        # all-zero exact data are refused as input; zero counts are an outcome
        measured = SampledWaveform(0.0, 1.0, np.zeros(16))
        with pytest.raises(NumericalError, match=r"total 0, not above the background total"):
            deconvolve(measured, SampledWaveform(0.0, 1.0, np.ones(3)), background=background)


def plain_em(measured, kernel, iterations):
    """Unaccelerated Richardson-Lucy on exact data, as the module documents it."""
    d = measured.samples
    k_sum = kernel.samples.sum()
    forward, adjoint = analysis._rl_operators(kernel.samples / k_sum, d.size)
    u = np.full(d.size, d.sum() / d.size)
    for _ in range(iterations):
        u = u * adjoint(d / np.maximum(forward(u), 1e-12 * d.sum()))
    return np.maximum(u / (k_sum * measured.dt_fs), 0.0)


def traced_deconvolve(measured, kernel, background):
    """Run ``deconvolve`` and record the points the blur is evaluated at.

    Returns the result, the points ``y_k`` handed to the forward operator and
    the plain EM value ``y_k * K^T(d / (K y_k + b))`` computed from each.
    """
    points, em_values = [], []
    real_operators = analysis._rl_operators

    def operators(kn, n):
        forward, adjoint = real_operators(kn, n)

        def traced_forward(y):
            points.append(y.copy())
            return forward(y)

        def traced_adjoint(r):
            out = adjoint(r)
            em_values.append(points[-1] * out)
            return out

        return traced_forward, traced_adjoint

    with mock.patch.object(analysis, "_rl_operators", operators):
        result = deconvolve(measured, kernel, background=background)
    return result, points, em_values


class TestAcceleratedPath:
    """Biggs-Andrews extrapolation on counts; exact data stays plain EM."""

    @settings(max_examples=40, deadline=None)
    @given(problem=_poisson_problem())
    def test_reported_deviance_is_that_of_the_returned_estimate(self, problem):
        measured, kernel, background = problem
        result = deconvolve(measured, kernel, background=background)
        d, k = measured.samples, kernel.samples
        u = result.estimate.samples * k.sum() * measured.dt_fs
        m = k.size
        mu = np.convolve(u, k / k.sum())[m // 2:m // 2 + d.size] + background
        mu = np.maximum(mu, 1e-12 * d.sum())
        terms = np.where(d > 0.0, d * np.log(np.where(d > 0.0, d, 1.0) / mu), 0.0) - (d - mu)
        assert 2.0 * terms.sum() / d.size == pytest.approx(result.deviance_per_point, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(problem=_poisson_problem())
    def test_extrapolation_never_zeroes_a_positive_em_sample(self, problem):
        measured, kernel, background = problem
        _, points, em_values = traced_deconvolve(measured, kernel, background)
        for em, following in zip(em_values, points[1:]):
            assert np.all(following[em > 0.0] > 0.0)

    def test_extrapolation_moves_ahead_of_em_on_counts(self):
        measured, kernel = TestDeconvolveThreePulse().seeded_three_pulse()
        result, points, em_values = traced_deconvolve(measured, kernel, 0.0)
        assert result.stop_reason == "discrepancy"
        ahead = [not np.array_equal(y, em) for em, y in zip(em_values, points[1:])]
        assert ahead[0] is False and any(ahead)
        for em, following in zip(em_values, points[1:]):
            assert np.all(following[em > 0.0] > 0.0)

    @pytest.mark.parametrize("path", PATHS)
    def test_exact_data_is_plain_em_bit_for_bit(self, path, monkeypatch):
        kernel = reference_kernel()
        grid = TimeGrid.symmetric(600.0, 1.0)
        truth = gaussian_waveform(SIGNAL_FWHM, grid, center_fs=-90.0)
        measured = convolve(truth, kernel)
        monkeypatch.setattr(analysis, "RL_MAX_ITERATIONS", 60)
        with forced_path(path):
            result = deconvolve(measured, kernel)
            reference = plain_em(measured, kernel, 60)
        assert (result.stop_reason, result.iterations_run) == ("cap", 60)
        assert result.estimate.samples.tobytes() == reference.tobytes()


class TestDeconvolveValidation:
    def test_grid_step_must_match(self):
        a = SampledWaveform(0.0, 1.0, np.ones(32))
        b = SampledWaveform(0.0, 2.0, np.ones(32))
        with pytest.raises(GridMismatchError):
            deconvolve(a, b)

    def test_negative_samples_rejected(self):
        # the deconvolution is a counts algorithm; the waveform type refuses
        # negative samples before either input can reach it
        good = SampledWaveform(0.0, 1.0, np.ones(3))
        with pytest.raises(ValidationError, match="cannot be negative"):
            deconvolve(SampledWaveform(0.0, 1.0, [1.0, -0.5, 1.0]), good)
        with pytest.raises(ValidationError, match="cannot be negative"):
            deconvolve(good, SampledWaveform(0.0, 1.0, [1.0, -0.5, 1.0]))

    def test_zero_measurement_rejected(self):
        kernel = reference_kernel()
        zero = SampledWaveform(kernel.t0_fs, kernel.dt_fs, np.zeros(kernel.n))
        with pytest.raises(ValidationError, match="measured waveform is all zero"):
            deconvolve(zero, kernel)


class TestFitSine:
    def phases(self, n=12):
        return np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)

    def test_exact_fringe_gives_unit_visibility(self):
        phases = self.phases()
        fit = fit_sine(phases, 1.0 + np.cos(phases))
        assert abs(fit.visibility - 1.0) < 1e-9
        assert fit.visibility_sigma < 1e-9
        assert abs(fit.phase0_rad) < 1e-9
        assert fit.offset == pytest.approx(1.0, abs=1e-12)

    def test_exact_fit_has_zero_reduced_chi2(self):
        phases = self.phases()
        fit = fit_sine(phases, 1000.0 * (1.0 + 0.5 * np.cos(phases - 0.8)))
        assert fit.reduced_chi2 < 1e-18
        assert fit.visibility == pytest.approx(0.5, abs=1e-12)
        assert fit.phase0_rad == pytest.approx(0.8, abs=1e-12)

    def test_phase_shift_equivariance(self):
        phases = self.phases()
        counts = 5e5 * (1.0 + 0.7 * np.cos(phases - 0.3)) + 100.0
        base = fit_sine(phases, counts)
        shifted = fit_sine(phases + 1.234, counts)
        assert abs(shifted.visibility - base.visibility) < 1e-9
        assert shifted.phase0_rad - base.phase0_rad == pytest.approx(1.234, abs=1e-9)

    def test_count_scale_equivariance(self):
        phases = self.phases()
        counts = 5e5 * (1.0 + 0.7 * np.cos(phases - 0.3)) + 100.0
        base = fit_sine(phases, counts)
        scaled = fit_sine(phases, counts * 7.5)
        assert abs(scaled.visibility - base.visibility) < 1e-9
        assert scaled.offset == pytest.approx(7.5 * base.offset, rel=1e-12)
        assert scaled.amplitude == pytest.approx(7.5 * base.amplitude, rel=1e-12)

    def test_noiseless_ideal_sweep_fits_to_exactly_one(self):
        phases = self.phases(24)
        expected = np.array([2e6 * center_bin_expectation(p, 1.0) for p in phases])
        fit = fit_sine(phases, expected)
        assert abs(fit.visibility - 1.0) < 1e-9

    def test_simulated_sweep_recovers_interferometer_contrast(self):
        phases = self.phases(24)
        sweep = run_phase_sweep(phases, contrast=0.982, counts_scale=2.0e6, seed=5)
        assert sweep.expected.max() >= 1e6
        fit = fit_sine(phases, sweep.counts)
        assert fit.visibility == pytest.approx(0.982, abs=0.002)
        assert fit.visibility_sigma < 0.002

    def test_constant_counts_report_no_fringe(self):
        phases = self.phases()
        fit = fit_sine(phases, np.full(phases.size, 1000.0))
        assert fit.visibility <= max(3.0 * fit.visibility_sigma, 1e-12)
        rng = np.random.default_rng(7)
        noisy = fit_sine(phases, rng.poisson(1000.0, phases.size).astype(float))
        assert noisy.visibility <= 3.0 * noisy.visibility_sigma



class TestErfGateFit:
    def test_noiseless_scan_recovers_gate_width(self):
        scan = simulate_delay_scan(2.0, 1e9, seed=1)
        fit = fit_erf_gate(scan.coordinates, np.round(scan.expected), PUMP_FWHM, SIGNAL_FWHM)
        assert fit.gate_width_fs == pytest.approx(408.6, rel=0.01)
        assert fit.residual < 1e-4

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_poisson_scan_recovers_gate_width(self, seed):
        scan = simulate_delay_scan(1.0, 1e5, seed=seed, noise_cps=800.0)
        fit = fit_erf_gate(scan.coordinates, scan.counts, PUMP_FWHM, SIGNAL_FWHM)
        assert fit.gate_width_fs == pytest.approx(204.3, rel=0.03)
        assert fit.gate_width_sigma_fs < 5.0

    @pytest.mark.parametrize("length_mm,model_fwhm_fs", [
        (1.0, 252.0),
        (2.0, 412.0),
        (3.0, 613.0),
    ])
    def test_fitted_width_reproduces_model_resolution(self, length_mm, model_fwhm_fs):
        # round trip: simulate a scan, fit the gate width, rebuild the
        # resolution function from the fitted width, compare its FWHM with
        # the directly computed model value
        scan = simulate_delay_scan(length_mm, 2e5, seed=int(length_mm))
        fit = fit_erf_gate(scan.coordinates, scan.counts, PUMP_FWHM, SIGNAL_FWHM)
        grid = TimeGrid.symmetric(0.5 * fit.gate_width_fs + 3.0 * PUMP_FWHM, 0.5)
        recovered = fwhm(resolution_function(PUMP_FWHM, fit.gate_width_fs, grid))
        assert recovered == pytest.approx(model_fwhm_fs, rel=0.03)

    def test_pure_noise_scan_is_not_a_gate(self):
        delays = np.arange(-800.0, 801.0, 50.0)
        config = ScanConfig(coordinates=delays, dwell_s=1.0, seed=99)
        flat = run_scan(config, 800.0)
        with pytest.raises(FitConvergenceError, match="no significant gate signature"):
            fit_erf_gate(flat.coordinates, flat.counts, PUMP_FWHM, SIGNAL_FWHM)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", ["l1_300mw", "l3_300mw"])
    @pytest.mark.parametrize("dense", [False, True], ids=["bundled", "6001-point"])
    def test_agrees_with_curve_fit(self, name, dense, seed):
        edits = {"seed": seed}
        if dense:
            edits.update({"experiment.scan.start_fs": -3000.0,
                          "experiment.scan.stop_fs": 3000.0, "experiment.scan.step_fs": 1.0})
        scenario = parse_scenario(edited(edits, name))
        scan = cli._run_delay_scan(scenario, 1, cli._resolution_kernel(scenario))
        widths = scenario.pump_fwhm_fs, scenario.signal_fwhm_fs
        fit = fit_erf_gate(scan.coordinates, scan.counts, *widths)
        popt, sigma = erf_gate_curve_fit(scan.coordinates, scan.counts, *widths)
        assert abs(fit.gate_width_fs - popt[0]) <= 1e-4 * sigma[0]
        assert abs(fit.center_fs - popt[2]) <= 1e-4 * sigma[2]
        assert fit.gate_width_sigma_fs == pytest.approx(sigma[0], rel=1e-6)
        assert fit.amplitude_sigma == pytest.approx(sigma[1], rel=1e-6)

    def test_evaluation_cap_names_the_residual(self, monkeypatch):
        scan = simulate_delay_scan(2.0, 1e5, seed=5, noise_cps=800.0)
        monkeypatch.setattr(analysis, "_ERF_FIT_MAX_EVALUATIONS", 2)
        with pytest.raises(FitConvergenceError,
                           match=r"did not converge in 2 evaluations, relative residual \d"):
            fit_erf_gate(scan.coordinates, scan.counts, PUMP_FWHM, SIGNAL_FWHM)

    @pytest.mark.parametrize("pump,signal", [(0.0, 240.0), (200.0, -1.0), (math.nan, 240.0)])
    def test_width_arguments_validated(self, pump, signal):
        # the widths come from the scenario, whose schema refuses these
        widths = {"source.pump_fwhm_fs": pump, "source.signal_fwhm_fs": signal}
        with pytest.raises(ScenarioError, match=r"source\.(pump|signal)_fwhm_fs: must be "):
            parse_scenario(edited(widths, name="l1_300mw"))

    def test_jacobian_matches_finite_differences(self):
        q = math.sqrt(math.log(2.0) / (200.0 ** 2 + 240.0 ** 2))
        delays = np.linspace(-700.0, 700.0, 29)
        params = np.array([408.6, 5.0e4, 12.0, 800.0])
        # the evaluator the gate fit runs on: model and Jacobian from one erf
        _, analytic = erf_gate_model_and_jacobian(delays, *params, q)
        step = 1e-5 * np.maximum(np.abs(params), 1.0)
        for j in range(4):
            hi = params.copy()
            lo = params.copy()
            hi[j] += step[j]
            lo[j] -= step[j]
            numeric = (
                erf_gate_model_and_jacobian(delays, *hi, q)[0]
                - erf_gate_model_and_jacobian(delays, *lo, q)[0]
            ) / (2.0 * step[j])
            scale = np.max(np.abs(analytic[:, j])) or 1.0
            assert np.max(np.abs(analytic[:, j] - numeric)) / scale < 1e-6

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(ERF_EDGES, st.floats(-8.0, 8.0), st.floats(allow_nan=False)),
                    max_size=40))
    def test_erf_is_libms_and_within_4_ulp_of_scipys(self, values):
        u = np.array(values, dtype=np.float64)
        got = analysis._erf(u)
        libm = np.array([math.erf(x) for x in values], dtype=np.float64)
        # bit for bit, so the sign of a zero counts too
        assert got.view(np.uint64).tolist() == libm.view(np.uint64).tolist()
        ref = scipy.special.erf(u)
        ulp = np.spacing(np.maximum(np.abs(got), np.abs(ref)))
        assert np.all(np.abs(got - ref) <= 4.0 * ulp)


class TestRecords:
    def test_records_are_read_only_and_validate_by_keyword(self):
        scan = simulate_delay_scan(2.0, 1e5, seed=1)
        phases = np.linspace(0.0, 2.0 * math.pi, 24)
        sweep = run_phase_sweep(phases, contrast=0.9, counts_scale=1.0e5, seed=2)
        kernel = reference_kernel(dt_fs=5.0)
        measured = convolve(gaussian_waveform(SIGNAL_FWHM, TimeGrid.symmetric(1500.0, 5.0)), kernel)
        records = [
            TimeGrid(0.0, 1.0, 3), kernel, scan.config, scan, sweep,
            deconvolve(SampledWaveform(0.0, 5.0, 1e4 * measured.samples), kernel, background=0.0),
            fit_sine(phases, sweep.counts),
            fit_erf_gate(scan.coordinates, scan.counts, PUMP_FWHM, SIGNAL_FWHM),
        ]
        assert {type(record).__name__ for record in records} == {
            "TimeGrid", "SampledWaveform", "ScanConfig", "ScanResult",
            "DeconvolutionResult", "SineFit", "ErfGateFit",
        }
        for record in records:
            for name in inspect.signature(type(record)).parameters:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
        arrays = [kernel.samples, scan.config.coordinates, sweep.config.coordinates]
        arrays += [getattr(result, name) for result in (scan, sweep)
                   for name in ("coordinates", "counts", "expected")]
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValidationError, match="at least two samples"):
            SampledWaveform(t0_fs=0.0, dt_fs=1.0, samples=[1.0])
