"""Efficiency chain, pump saturation, noise growth, and detection limits."""

import math
import re

import numpy as np
import pytest

from oracles import (
    DETECTION_LIMIT_BY_LENGTH,
    ETA_EXT_BY_LENGTH,
    ETA_INT_BY_LENGTH,
    NOISE_CPS_BY_LENGTH,
    PUBLISHED_LIMIT_BY_LENGTH,
)
from scenario_edits import edited
from ucspd.detector import (
    EfficiencyChain,
    NoiseModel,
    PumpEfficiencyModel,
    detection_limit,
    efficiency_at_power,
    external_efficiency,
    noise_cps,
)
from ucspd.errors import NumericalError, ScenarioError, ValidationError
from ucspd.scenario import parse_scenario

REP_RATE_HZ = 76.3e6


class TestEfficiencyChain:
    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_external_efficiency_product(self, length):
        chain = EfficiencyChain(internal_upconversion=ETA_INT_BY_LENGTH[length])
        assert external_efficiency(chain) == pytest.approx(
            ETA_EXT_BY_LENGTH[length], rel=1e-12
        )

    def test_reference_point_rounds_to_published_percentage(self):
        chain = EfficiencyChain(internal_upconversion=0.101)
        assert round(100.0 * external_efficiency(chain), 1) == 3.3

    def test_unit_factors_pass_through(self):
        chain = EfficiencyChain(1.0, 1.0, 1.0, 1.0)
        assert external_efficiency(chain) == 1.0

    @pytest.mark.parametrize("field", [
        "internal_upconversion", "apd_efficiency", "fiber_coupling", "filter_transmittance",
    ])
    def test_factors_must_be_fractions(self, field):
        # each factor is held to its range where it enters, by the scenario
        # schema: the chain keys directly, the internal efficiency through
        # its pump calibration (the pump model then keeps eta_max <= 1)
        path = ("detector.pump.calibration_eta" if field == "internal_upconversion"
                else f"detector.chain.{field}")
        for value in (1.5, -0.1):
            with pytest.raises(ScenarioError, match=re.escape(f"{path}: must be in ")):
                parse_scenario(edited({path: value}))


class TestPumpEfficiencyModel:
    def test_zero_power_gives_zero(self):
        model = PumpEfficiencyModel(eta_max=0.13, p_sat_mw=200.0)
        assert efficiency_at_power(model, 0.0) == 0.0

    def test_negative_power_rejected(self):
        # every power the model is evaluated at comes from these two keys
        for path in ("source.pump_power_mw", "experiment.limits.power_start_mw"):
            with pytest.raises(ScenarioError, match=re.escape(f"{path}: must be positive")):
                parse_scenario(edited({path: -1.0}))

    def test_calibrated_curve_reproduces_anchor(self):
        model = PumpEfficiencyModel.from_calibration(300.0, 0.101, p_sat_mw=200.0)
        assert efficiency_at_power(model, 300.0) == pytest.approx(0.101, rel=1e-12)

    def test_two_saturation_constants_value(self):
        model = PumpEfficiencyModel(eta_max=0.13, p_sat_mw=200.0)
        expected = 0.13 * (1.0 - math.exp(-2.0))
        assert efficiency_at_power(model, 400.0) == pytest.approx(expected, rel=1e-12)

    def test_slope_strictly_decreasing(self):
        model = PumpEfficiencyModel.from_calibration(300.0, 0.101, p_sat_mw=200.0)
        powers = np.arange(0.0, 501.0, 1.0)
        etas = np.array([efficiency_at_power(model, p) for p in powers])
        slopes = np.diff(etas)
        assert np.all(np.diff(slopes) < 0.0)
        assert np.all(etas <= model.eta_max)

    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            PumpEfficiencyModel(eta_max=0.0, p_sat_mw=200.0)
        with pytest.raises(ValidationError):
            PumpEfficiencyModel(eta_max=1.2, p_sat_mw=200.0)
        with pytest.raises(ScenarioError, match=r"detector\.pump\.p_sat_mw: must be positive"):
            parse_scenario(edited({"detector.pump.p_sat_mw": 0.0}))


class TestNoiseModel:
    def make_model(self, length=2.0, dark=100.0, growth=40.0):
        return NoiseModel.from_calibration(
            dark_cps=dark,
            growth_per_unit_eta=growth,
            eta_ref=ETA_INT_BY_LENGTH[length],
            noise_cps_ref=NOISE_CPS_BY_LENGTH[length],
        )

    def test_zero_efficiency_gives_dark_floor(self):
        model = self.make_model()
        assert noise_cps(model, 0.0) == pytest.approx(100.0)

    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_calibration_point_reproduced(self, length):
        model = self.make_model(length)
        assert noise_cps(model, ETA_INT_BY_LENGTH[length]) == pytest.approx(
            NOISE_CPS_BY_LENGTH[length], rel=1e-12
        )

    def test_monotone_and_above_dark(self):
        model = self.make_model()
        etas = np.linspace(0.0, 0.2, 101)
        rates = np.array([noise_cps(model, e) for e in etas])
        assert np.all(np.diff(rates) > 0.0)
        assert np.all(rates >= model.dark_cps)

    def test_eta_outside_unit_interval_rejected(self):
        # the model is evaluated at its calibration efficiency and at pump
        # efficiencies up to eta_max <= 1; the schema refuses the former
        path = "detector.noise.calibration_eta"
        for value in (0.0, 1.1):
            with pytest.raises(ScenarioError, match=re.escape(f"{path}: must be in (0, 1]")):
                parse_scenario(edited({path: value}))

    def test_reference_below_dark_rejected(self):
        with pytest.raises(ValidationError):
            NoiseModel.from_calibration(100.0, 40.0, 0.1, 50.0)

    @pytest.mark.parametrize("growth", [0.0, 1e300])
    def test_calibration_without_a_finite_rising_curve_rejected(self, growth):
        with pytest.raises(ValidationError, match="cannot fix n0_cps"):
            NoiseModel.from_calibration(100.0, growth, 0.1, 800.0)

    def test_overflowing_noise_rate_rejected(self):
        model = NoiseModel.from_calibration(100.0, 7000.0, 0.1, 800.0)
        assert noise_cps(model, 0.1) == pytest.approx(800.0, rel=1e-12)
        with pytest.raises(ValidationError, match="overflows"):
            noise_cps(model, 0.2)


class TestDetectionLimit:
    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_measured_operating_points(self, length):
        limit = detection_limit(
            noise_rate_cps=NOISE_CPS_BY_LENGTH[length],
            integration_s=1.0,
            external_eta=ETA_EXT_BY_LENGTH[length],
            rep_rate_hz=REP_RATE_HZ,
        )
        assert limit == pytest.approx(DETECTION_LIMIT_BY_LENGTH[length], rel=1e-12)
        assert limit == pytest.approx(PUBLISHED_LIMIT_BY_LENGTH[length], rel=0.03)

    def test_no_noise_means_no_limit(self):
        assert detection_limit(0.0, 1.0, 0.03, REP_RATE_HZ) == 0.0

    def test_quadrupling_time_halves_limit(self):
        base = detection_limit(800.0, 1.0, 0.033, REP_RATE_HZ)
        assert detection_limit(800.0, 4.0, 0.033, REP_RATE_HZ) == pytest.approx(base / 2.0)

    def test_doubling_efficiency_halves_limit(self):
        base = detection_limit(800.0, 1.0, 0.02, REP_RATE_HZ)
        assert detection_limit(800.0, 1.0, 0.04, REP_RATE_HZ) == pytest.approx(base / 2.0)

    def test_zero_efficiency_rejected(self):
        with pytest.raises(NumericalError, match="underflows to 0"):
            detection_limit(800.0, 1.0, 0.0, REP_RATE_HZ)

    def test_nonpositive_time_and_rate_rejected(self):
        # the schema refuses both keys at 0; the product of positive values
        # can still be 0, which leaves no detected pulse
        with pytest.raises(NumericalError, match="underflows to 0"):
            detection_limit(800.0, 0.0, 0.033, REP_RATE_HZ)
        with pytest.raises(NumericalError, match="underflows to 0"):
            detection_limit(800.0, 1.0e-300, 0.033, 1.0e-30)
