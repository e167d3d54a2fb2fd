"""Gate response model: sampled convolution path against the erf closed form."""

import numpy as np
import pytest
from scipy.signal import find_peaks

from oracles import (
    GATE_FWHM_BY_LENGTH,
    PEAK_2ERF_L2,
    PUBLISHED_FWHM_BY_LENGTH,
    SCAN_FWHM_L2_SIGNAL240,
    gauss_rect_fwhm_oracle,
)
from scenario_edits import edited
from ucspd.errors import ScenarioError, ValidationError
from ucspd.response import CrystalSpec, analytic_response, resolution_function
from ucspd.scenario import parse_scenario
from ucspd.waveform import (
    PulseSpec, SampledWaveform, TimeGrid, convolve, fwhm, gaussian_waveform, rect_waveform,
)

PUMP = PulseSpec(200.0)
SIGNAL_FWHM = 240.0


def make_resolution(length_mm, dt=1.0):
    crystal = CrystalSpec(length_mm)
    half = 0.5 * crystal.gate_width_fs + 3.0 * PUMP.fwhm_fs
    return resolution_function(PUMP, crystal, TimeGrid.symmetric(half + 50.0, dt))


class TestCrystalSpec:
    def test_gate_width(self):
        assert CrystalSpec(2.0).gate_width_fs == pytest.approx(408.6)
        assert CrystalSpec(1.5, tau_g_fs_per_mm=100.0).gate_width_fs == pytest.approx(150.0)

    def test_rejects_nonpositive_parameters(self):
        # the scenario schema refuses them, naming the key
        for key, value in (("length_mm", 0.0), ("tau_g_fs_per_mm", -1.0)):
            with pytest.raises(ScenarioError,
                               match=rf"detector\.crystal\.{key}: must be positive"):
                parse_scenario(edited({f"detector.crystal.{key}": value}))


class TestResolutionFunction:
    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_fwhm_matches_cdf_oracle(self, length):
        t = make_resolution(length)
        oracle = gauss_rect_fwhm_oracle(PUMP.fwhm_fs, 204.3 * length)
        assert oracle == pytest.approx(GATE_FWHM_BY_LENGTH[length], abs=1e-6)
        assert fwhm(t) == pytest.approx(oracle, abs=2.0)

    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_fwhm_within_five_percent_of_measured_values(self, length):
        assert fwhm(make_resolution(length)) == pytest.approx(
            PUBLISHED_FWHM_BY_LENGTH[length], rel=0.05
        )

    def test_normalized_peak_is_one(self):
        assert make_resolution(2.0).peak_value == pytest.approx(1.0, abs=1e-12)

    def test_fwhm_strictly_increasing_in_length(self):
        widths = [fwhm(make_resolution(length)) for length in (1.0, 2.0, 3.0)]
        assert widths[0] < widths[1] < widths[2]

    def test_unnormalized_peak_saturates_with_length(self):
        # the raw pump (x) gate convolution, before resolution_function peak-normalizes it
        grid = TimeGrid.symmetric(1000.0, 1.0)
        pump = gaussian_waveform(PUMP, grid)
        peaks = [convolve(pump, rect_waveform(CrystalSpec(length).gate_width_fs, grid)).peak_value
                 for length in (1.0, 2.0, 3.0)]
        assert peaks[0] < peaks[1] < peaks[2]
        # each extra millimeter of gate adds less peak than the one before
        assert peaks[2] / peaks[1] < peaks[1] / peaks[0]

    def test_truncated_grid_rejected(self):
        crystal = CrystalSpec(2.0)
        with pytest.raises(ValidationError):
            resolution_function(PUMP, crystal, TimeGrid.symmetric(400.0, 1.0))

    def test_margin_accounts_for_pump_center(self):
        crystal = CrystalSpec(1.0)
        shifted = PulseSpec(200.0, center_fs=500.0)
        with pytest.raises(ValidationError):
            resolution_function(shifted, crystal, TimeGrid.symmetric(900.0, 1.0))
        ok = resolution_function(shifted, crystal, TimeGrid(-400.0, 1.0, 1801))
        assert ok.peak_time_fs == pytest.approx(500.0, abs=2.0)


class TestPredictMeasured:
    def test_delta_signal_returns_resolution_shape(self):
        t = make_resolution(2.0)
        spike = np.zeros(21)
        spike[10] = 1.0 / t.dt_fs
        delta = SampledWaveform(-10.0 * t.dt_fs, t.dt_fs, spike)
        out = convolve(delta, t).peak_normalized()
        assert fwhm(out) == pytest.approx(fwhm(t), rel=1e-3)

    def test_gaussian_scan_width_matches_closed_form(self):
        t = make_resolution(2.0)
        grid = TimeGrid.symmetric(1200.0, 1.0)
        signal = gaussian_waveform(PulseSpec(SIGNAL_FWHM), grid)
        out = convolve(signal, t)
        assert fwhm(out) == pytest.approx(SCAN_FWHM_L2_SIGNAL240, rel=0.01)

    def test_three_pulse_train_resolved(self):
        t = make_resolution(2.0)
        grid = TimeGrid.symmetric(2400.0, 1.0)
        tt = grid.times()
        shape = np.zeros(grid.n)
        for center, weight in ((-800.0, 0.25), (0.0, 1.0), (800.0, 0.25)):
            u = (2.0 * np.sqrt(np.log(2.0)) / SIGNAL_FWHM) * (tt - center)
            shape += weight * np.exp(-u * u)
        out = convolve(SampledWaveform(grid.t0_fs, grid.dt_fs, shape), t)
        peaks, _ = find_peaks(out.samples, prominence=0.05 * out.peak_value)
        assert len(peaks) == 3
        locs = out.t0_fs + out.dt_fs * peaks
        assert np.all(np.diff(locs) >= 700.0)


class TestAnalyticResponse:
    def test_zero_delay_value(self):
        got = analytic_response(0.0, 200.0, 240.0, CrystalSpec(2.0))
        assert got == pytest.approx(PEAK_2ERF_L2, rel=1e-12)

    def test_symmetric_in_delay(self):
        crystal = CrystalSpec(2.0)
        t = np.linspace(0.0, 1500.0, 301)
        plus = analytic_response(t, 200.0, 240.0, crystal)
        minus = analytic_response(-t, 200.0, 240.0, crystal)
        assert np.allclose(plus, minus, rtol=0, atol=1e-14)

    def test_vanishes_far_from_overlap(self):
        crystal = CrystalSpec(2.0)
        assert abs(analytic_response(5000.0, 200.0, 240.0, crystal)) < 1e-12
        assert abs(analytic_response(-5000.0, 200.0, 240.0, crystal)) < 1e-12

    def test_scalar_and_array_shapes(self):
        crystal = CrystalSpec(1.0)
        scalar = analytic_response(10.0, 200.0, 240.0, crystal)
        arr = analytic_response(np.array([10.0, 20.0]), 200.0, 240.0, crystal)
        assert isinstance(scalar, float)
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(scalar)

    def test_rejects_nonpositive_widths(self):
        with pytest.raises(ValidationError):
            analytic_response(0.0, 0.0, 240.0, CrystalSpec(1.0))
        with pytest.raises(ValidationError):
            analytic_response(0.0, 200.0, -5.0, CrystalSpec(1.0))

    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_agrees_with_convolution_path(self, length):
        """The sampled and closed-form scans are the same curve."""
        t = make_resolution(length)
        grid = TimeGrid.symmetric(1500.0, 1.0)
        signal = gaussian_waveform(PulseSpec(SIGNAL_FWHM), grid)
        sampled = convolve(signal, t).peak_normalized()
        closed = analytic_response(sampled.times(), 200.0, SIGNAL_FWHM, CrystalSpec(length))
        closed /= closed.max()
        assert sampled.n >= 2000
        assert np.abs(sampled.samples - closed).max() <= 0.005
