"""Time-bin state algebra, interferometer passes, and slot statistics."""

import math

import numpy as np
import pytest

from scenario_edits import edited
from ucspd.errors import ScenarioError, ValidationError
from ucspd.scenario import parse_scenario
from ucspd.timebin import (
    InterferometerSpec,
    TimeBinState,
    apply_interferometer,
    center_bin_expectation,
    slot_probabilities,
    synthesize_waveform,
)
from ucspd.waveform import TimeGrid, fwhm

SLOT_FS = 800.0


def cascade(phi, phi_prime, contrast=1.0):
    state = TimeBinState.single(SLOT_FS)
    state = apply_interferometer(state, InterferometerSpec(phi, contrast))
    return apply_interferometer(state, InterferometerSpec(phi_prime, contrast))


class TestTimeBinState:
    def test_amplitudes_read_only_and_copied(self):
        src = np.array([1.0 + 0j, 0.0])
        state = TimeBinState(src, SLOT_FS)
        src[0] = 9.0
        assert state.amplitudes[0] == 1.0
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            TimeBinState([], SLOT_FS)
        with pytest.raises(ValidationError):
            TimeBinState([math.inf], SLOT_FS)


class TestInterferometer:
    def test_single_pass_splits_equally(self):
        out = apply_interferometer(TimeBinState.single(SLOT_FS), InterferometerSpec(0.0))
        assert out.n_slots == 2
        assert np.allclose(out.amplitudes, [1.0 / math.sqrt(2)] * 2)

    def test_single_pass_phase_on_delayed_slot(self):
        phi = 0.7
        out = apply_interferometer(TimeBinState.single(SLOT_FS), InterferometerSpec(phi))
        assert out.amplitudes[1] == pytest.approx(np.exp(1j * phi) / math.sqrt(2))

    def test_single_slot_norm_preserved_at_full_contrast(self):
        out = apply_interferometer(TimeBinState.single(SLOT_FS), InterferometerSpec(1.3))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_double_pass_amplitudes(self):
        phi, phi_p = 0.9, -1.7
        out = cascade(phi, phi_p)
        expected = 0.5 * np.array([
            1.0,
            np.exp(1j * phi) + np.exp(1j * phi_p),
            np.exp(1j * (phi + phi_p)),
        ])
        assert np.allclose(out.amplitudes, expected, atol=1e-14)

    def test_contrast_scales_delayed_amplitude(self):
        out = apply_interferometer(TimeBinState.single(SLOT_FS),
                                   InterferometerSpec(0.0, contrast=0.5))
        assert abs(out.amplitudes[1]) == pytest.approx(0.5 / math.sqrt(2))

    def test_contrast_range_enforced(self):
        # the scenario schema holds the contrast to (0, 1], naming the key
        for contrast in (0.0, 1.2):
            with pytest.raises(ScenarioError,
                               match=r"experiment\.timebin\.contrast: must be in \(0, 1\]"):
                parse_scenario(edited({"experiment.timebin.contrast": contrast}))



class TestSlotProbabilities:
    @pytest.mark.parametrize("delta,expected", [
        (0.0, (1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0)),
        (math.pi, (0.5, 0.0, 0.5)),
        (math.pi / 2.0, (0.25, 0.5, 0.25)),
    ])
    def test_reference_phase_differences(self, delta, expected):
        p = slot_probabilities(cascade(0.0, delta))
        assert np.allclose(p, expected, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            state = TimeBinState(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                                 SLOT_FS)
            assert slot_probabilities(state).sum() == pytest.approx(1.0, abs=1e-12)

    def test_center_to_side_ratio_follows_half_angle(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            phi, phi_p = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=2)
            p = slot_probabilities(cascade(phi, phi_p))
            ratio = 4.0 * math.cos(0.5 * (phi - phi_p)) ** 2
            assert p[1] == pytest.approx(ratio * p[0], abs=1e-12)
            assert p[0] == pytest.approx(p[2], abs=1e-12)

    def test_common_phase_offset_is_invisible(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            phi, phi_p, c = rng.uniform(-math.pi, math.pi, size=3)
            a = slot_probabilities(cascade(phi, phi_p))
            b = slot_probabilities(cascade(phi + c, phi_p + c))
            assert np.allclose(a, b, atol=1e-12)

    def test_zero_state_rejected(self):
        with pytest.raises(ValidationError):
            slot_probabilities(TimeBinState([0.0, 0.0], SLOT_FS))


class TestSynthesizeWaveform:
    GRID = TimeGrid(-1200.0, 1.0, 4001)  # covers slots at 0, 800, 1600 with margin

    def test_constructive_center_to_side_ratio(self):
        w = synthesize_waveform(cascade(0.0, 0.0), 240.0, self.GRID)
        side = w.sample_at(0.0)
        center = w.sample_at(SLOT_FS)
        assert center / side == pytest.approx(4.0, rel=0.01)

    def test_destructive_center_suppressed(self):
        w = synthesize_waveform(cascade(0.0, math.pi), 240.0, self.GRID)
        assert w.sample_at(SLOT_FS) < 0.01 * w.sample_at(0.0)

    def test_single_slot_keeps_pulse_width(self):
        state = TimeBinState.single(SLOT_FS)
        w = synthesize_waveform(state, 240.0, TimeGrid.symmetric(1200.0, 1.0))
        assert fwhm(w) == pytest.approx(240.0, abs=1.0)

    def test_area_tracks_total_weight(self):
        state = cascade(0.3, 1.1)
        w = synthesize_waveform(state, 240.0, self.GRID)
        weight = float(np.sum(np.abs(state.amplitudes) ** 2))
        gauss_area = 240.0 * math.sqrt(math.pi) / (2.0 * math.sqrt(math.log(2.0)))
        assert w.area == pytest.approx(weight * gauss_area, rel=1e-3)

    def test_narrow_grid_rejected(self):
        with pytest.raises(ValidationError):
            synthesize_waveform(cascade(0.0, 0.0), 240.0, TimeGrid.symmetric(900.0, 1.0))


class TestCenterBinExpectation:
    def test_reference_points(self):
        assert center_bin_expectation(0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert center_bin_expectation(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert center_bin_expectation(math.pi / 2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_fringe_visibility_equals_contrast(self):
        for contrast in (1.0, 0.982, 0.5, 0.07):
            deltas = np.linspace(0.0, 2.0 * math.pi, 721)
            vals = np.array([center_bin_expectation(d, contrast) for d in deltas])
            vis = (vals.max() - vals.min()) / (vals.max() + vals.min())
            assert vis == pytest.approx(contrast, abs=1e-12)

    def test_agrees_with_cascade_at_reference_phases(self):
        # the fringe model and the explicit state agree where postselection
        # and raw rates coincide
        for delta in (0.0, math.pi):
            p = slot_probabilities(cascade(0.0, delta))
            assert center_bin_expectation(delta) == pytest.approx(p[1], abs=1e-12)

    def test_parameter_validation(self):
        # the contrast is checked by the scenario schema; the phase difference
        # is computed, and two finite phases can differ by inf
        with pytest.raises(ValidationError):
            center_bin_expectation(math.nan)
        with pytest.raises(ValidationError):
            center_bin_expectation(1.0e308 - -1.0e308)

    def test_array_equals_scalar_fringe(self):
        deltas = np.linspace(-7.0, 7.0, 301)
        scalar = np.array([center_bin_expectation(float(d), 0.982) for d in deltas])
        assert center_bin_expectation(deltas, 0.982).tobytes() == scalar.tobytes()
        with pytest.raises(ValidationError):
            center_bin_expectation(np.array([0.0, math.inf]))
