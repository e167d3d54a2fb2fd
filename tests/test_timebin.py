"""Time-bin state algebra, interferometer passes, and slot statistics."""

import math
import re

import numpy as np
import pytest

from scenario_edits import RANGES, edited, range_refusal
from waveform_measures import area
from ucspd.errors import ScenarioError
from ucspd.scenario import parse_scenario
from ucspd.timebin import (
    apply_interferometer,
    center_bin_expectation,
    slot_probabilities,
    synthesize_waveform,
)
from ucspd.waveform import TimeGrid, fwhm

SLOT_FS = 800.0
SINGLE = np.ones(1, dtype=np.complex128)  # one photon in one slot


def cascade(phi, phi_prime, contrast=1.0):
    amplitudes = apply_interferometer(SINGLE, phi, contrast)
    return apply_interferometer(amplitudes, phi_prime, contrast)


class TestInterferometer:
    def test_single_pass_splits_equally(self):
        out = apply_interferometer(SINGLE, 0.0, 1.0)
        assert out.size == 2
        assert np.allclose(out, [1.0 / math.sqrt(2)] * 2)

    def test_single_pass_phase_on_delayed_slot(self):
        phi = 0.7
        out = apply_interferometer(SINGLE, phi, 1.0)
        assert out[1] == pytest.approx(np.exp(1j * phi) / math.sqrt(2))

    def test_single_slot_norm_preserved_at_full_contrast(self):
        out = apply_interferometer(SINGLE, 1.3, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_double_pass_amplitudes(self):
        phi, phi_p = 0.9, -1.7
        out = cascade(phi, phi_p)
        expected = 0.5 * np.array([
            1.0,
            np.exp(1j * phi) + np.exp(1j * phi_p),
            np.exp(1j * (phi + phi_p)),
        ])
        assert np.allclose(out, expected, atol=1e-14)

    def test_contrast_scales_delayed_amplitude(self):
        out = apply_interferometer(SINGLE, 0.0, 0.5)
        assert abs(out[1]) == pytest.approx(0.5 / math.sqrt(2))

    def test_contrast_range_enforced(self):
        # the scenario schema holds the contrast to its range, naming the key
        path = "experiment.timebin.contrast"
        for contrast in (0.0, 1.2):
            with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, contrast))):
                parse_scenario(edited({path: contrast}))



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
            amplitudes = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert slot_probabilities(amplitudes).sum() == pytest.approx(1.0, abs=1e-12)

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


class TestSynthesizeWaveform:
    GRID = TimeGrid(-1200.0, 1.0, 4001)  # covers slots at 0, 800, 1600 with margin

    def test_constructive_center_to_side_ratio(self):
        w = synthesize_waveform(cascade(0.0, 0.0), SLOT_FS, 240.0, self.GRID)
        side = w.sample_at(0.0)
        center = w.sample_at(SLOT_FS)
        assert center / side == pytest.approx(4.0, rel=0.01)

    def test_destructive_center_suppressed(self):
        w = synthesize_waveform(cascade(0.0, math.pi), SLOT_FS, 240.0, self.GRID)
        assert w.sample_at(SLOT_FS) < 0.01 * w.sample_at(0.0)

    def test_single_slot_keeps_pulse_width(self):
        w = synthesize_waveform(SINGLE, SLOT_FS, 240.0, TimeGrid.symmetric(1200.0, 1.0))
        assert fwhm(w) == pytest.approx(240.0, abs=1.0)

    def test_area_tracks_total_weight(self):
        amplitudes = cascade(0.3, 1.1)
        w = synthesize_waveform(amplitudes, SLOT_FS, 240.0, self.GRID)
        weight = float(np.sum(np.abs(amplitudes) ** 2))
        gauss_area = 240.0 * math.sqrt(math.pi) / (2.0 * math.sqrt(math.log(2.0)))
        assert area(w) == pytest.approx(weight * gauss_area, rel=1e-3)


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
        # the contrast and both phases are checked by the scenario schema: a
        # phase difference would overflow to inf only from phases outside their
        # range, and the widest difference in range has a finite fringe
        path = "experiment.timebin.phase_rad"
        with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, 1.0e308))):
            parse_scenario(edited({path: 1.0e308, "experiment.timebin.phase_prime_rad": -1.0e308}))
        widest = RANGES[path].high - RANGES["experiment.timebin.phase_prime_rad"].low
        assert 0.0 <= center_bin_expectation(widest) <= 2.0 / 3.0

    def test_array_equals_scalar_fringe(self):
        deltas = np.linspace(-7.0, 7.0, 301)
        scalar = np.array([center_bin_expectation(float(d), 0.982) for d in deltas])
        assert center_bin_expectation(deltas, 0.982).tobytes() == scalar.tobytes()
