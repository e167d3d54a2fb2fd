"""Gate response model: sampled convolution path against the erf closed form."""

import re

import numpy as np
import pytest
from scipy.signal import find_peaks

from oracles import (
    GATE_FWHM_BY_LENGTH,
    PEAK_2ERF_L2,
    PUBLISHED_FWHM_BY_LENGTH,
    SCAN_FWHM_L2_SIGNAL240,
    analytic_response,
    gauss_rect_fwhm_oracle,
)
from scenario_edits import edited, range_refusal
from waveform_measures import peak_time_fs
from ucspd.errors import ScenarioError
from ucspd.response import resolution_function
from ucspd.scenario import parse_scenario
from ucspd.waveform import (
    SampledWaveform, TimeGrid, convolve, fwhm, gaussian_waveform, rect_waveform,
)

PUMP_FWHM = 200.0
SIGNAL_FWHM = 240.0
TAU_G = 204.3


def make_resolution(length_mm, dt=1.0):
    gate = TAU_G * length_mm
    half = 0.5 * gate + 3.0 * PUMP_FWHM
    return resolution_function(PUMP_FWHM, gate, TimeGrid.symmetric(half + 50.0, dt))


class TestCrystalSpec:
    """The scenario's ``detector.crystal`` section and the gate it sets."""

    def test_gate_width(self):
        assert parse_scenario(edited({})).gate_width_fs == pytest.approx(408.6)
        crystal = {"detector.crystal.length_mm": 1.5, "detector.crystal.tau_g_fs_per_mm": 100.0}
        assert parse_scenario(edited(crystal)).gate_width_fs == pytest.approx(150.0)

    def test_rejects_nonpositive_parameters(self):
        # the scenario schema refuses them, naming the key
        for key, value in (("length_mm", 0.0), ("tau_g_fs_per_mm", -1.0)):
            path = f"detector.crystal.{key}"
            with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, value))):
                parse_scenario(edited({path: value}))


class TestResolutionFunction:
    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_fwhm_matches_cdf_oracle(self, length):
        t = make_resolution(length)
        oracle = gauss_rect_fwhm_oracle(PUMP_FWHM, TAU_G * length)
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
        pump = gaussian_waveform(PUMP_FWHM, grid)
        peaks = [convolve(pump, rect_waveform(TAU_G * length, grid)).peak_value
                 for length in (1.0, 2.0, 3.0)]
        assert peaks[0] < peaks[1] < peaks[2]
        # each extra millimeter of gate adds less peak than the one before
        assert peaks[2] / peaks[1] < peaks[1] / peaks[0]

    def test_grid_off_center_is_taken_as_given(self):
        # the pump is centred on zero; a grid reaching further to one side
        # gets the same samples, to round-off, where the two grids overlap
        off = resolution_function(PUMP_FWHM, TAU_G, TimeGrid(-800.0, 1.0, 2601))
        on = resolution_function(PUMP_FWHM, TAU_G, TimeGrid.symmetric(800.0, 1.0))
        assert peak_time_fs(off) == 0.0
        np.testing.assert_allclose(off.samples[:on.n], on.samples, rtol=0, atol=1e-12)


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
        signal = gaussian_waveform(SIGNAL_FWHM, grid)
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
        got = analytic_response(0.0, 200.0, 240.0, 2.0 * TAU_G)
        assert got == pytest.approx(PEAK_2ERF_L2, rel=1e-12)

    def test_symmetric_in_delay(self):
        t = np.linspace(0.0, 1500.0, 301)
        plus = analytic_response(t, 200.0, 240.0, 2.0 * TAU_G)
        minus = analytic_response(-t, 200.0, 240.0, 2.0 * TAU_G)
        assert np.allclose(plus, minus, rtol=0, atol=1e-14)

    def test_vanishes_far_from_overlap(self):
        assert abs(analytic_response(5000.0, 200.0, 240.0, 2.0 * TAU_G)) < 1e-12
        assert abs(analytic_response(-5000.0, 200.0, 240.0, 2.0 * TAU_G)) < 1e-12

    def test_scalar_and_array_shapes(self):
        scalar = analytic_response(10.0, 200.0, 240.0, TAU_G)
        arr = analytic_response(np.array([10.0, 20.0]), 200.0, 240.0, TAU_G)
        assert isinstance(scalar, float)
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(scalar)

    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_agrees_with_convolution_path(self, length):
        """The sampled and closed-form scans are the same curve."""
        t = make_resolution(length)
        grid = TimeGrid.symmetric(1500.0, 1.0)
        signal = gaussian_waveform(SIGNAL_FWHM, grid)
        sampled = convolve(signal, t).peak_normalized()
        closed = analytic_response(sampled.times(), 200.0, SIGNAL_FWHM, TAU_G * length)
        closed /= closed.max()
        assert sampled.n >= 2000
        assert np.abs(sampled.samples - closed).max() <= 0.005
