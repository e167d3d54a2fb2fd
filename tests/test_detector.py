"""Efficiency chain, pump saturation, noise growth, and detection limits."""

import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from oracles import (
    DETECTION_LIMIT_BY_LENGTH,
    ETA_EXT_BY_LENGTH,
    ETA_INT_BY_LENGTH,
    NOISE_CPS_BY_LENGTH,
    PUBLISHED_LIMIT_BY_LENGTH,
)
from scenario_edits import RANGES, edited, range_refusal
from ucspd.detector import (
    detection_limit,
    efficiency_at_power,
    external_efficiency,
    noise_cps,
    noise_n0,
    pump_eta_max,
)
from ucspd.errors import NumericalError, ScenarioError, ValidationError
from ucspd.scenario import parse_scenario

REP_RATE_HZ = 76.3e6


def assert_within_4_ulp(limit, noise, integration_s, eta, rate):
    """``limit`` against ``3 sqrt(noise T) / (T R eta)`` taken to 50 digits."""
    with localcontext() as context:
        context.prec = 50
        t = Decimal(integration_s)
        exact = 3 * (Decimal(noise) * t).sqrt() / (t * Decimal(rate) * Decimal(eta))
    assert abs(Decimal(limit) - exact) <= 4 * Decimal(math.ulp(float(exact)))


class TestEfficiencyChain:
    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_external_efficiency_product(self, length):
        eta = external_efficiency(ETA_INT_BY_LENGTH[length], 0.41, 0.85, 0.94)
        assert eta == pytest.approx(ETA_EXT_BY_LENGTH[length], rel=1e-12)

    def test_reference_point_rounds_to_published_percentage(self):
        assert round(100.0 * external_efficiency(0.101, 0.41, 0.85, 0.94), 1) == 3.3

    def test_unit_factors_pass_through(self):
        assert external_efficiency(1.0, 1.0, 1.0, 1.0) == 1.0

    @pytest.mark.parametrize("field", [
        "internal_upconversion", "apd_efficiency", "fiber_coupling", "filter_transmittance",
    ])
    def test_factors_must_be_fractions(self, field):
        # each factor is held to its range where it enters, by the scenario
        # schema: the chain keys directly, the internal efficiency through
        # its pump calibration (pump_eta_max then keeps eta_max <= 1)
        path = ("detector.pump.calibration_eta" if field == "internal_upconversion"
                else f"detector.chain.{field}")
        for value in (1.5, -0.1):
            with pytest.raises(ScenarioError, match=re.escape(f"{path}: must be in ")):
                parse_scenario(edited({path: value}))


class TestPumpEfficiencyModel:
    def test_zero_power_gives_zero(self):
        assert efficiency_at_power(0.13, 200.0, 0.0) == 0.0

    def test_negative_power_rejected(self):
        # every power the model is evaluated at comes from these two keys
        for path in ("source.pump_power_mw", "experiment.limits.power_start_mw"):
            with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, -1.0))):
                parse_scenario(edited({path: -1.0}))

    def test_calibrated_curve_reproduces_anchor(self):
        eta_max = pump_eta_max(300.0, 0.101, p_sat_mw=200.0)
        assert efficiency_at_power(eta_max, 200.0, 300.0) == pytest.approx(0.101, rel=1e-12)

    def test_two_saturation_constants_value(self):
        expected = 0.13 * (1.0 - math.exp(-2.0))
        assert efficiency_at_power(0.13, 200.0, 400.0) == pytest.approx(expected, rel=1e-12)

    def test_slope_strictly_decreasing(self):
        eta_max = pump_eta_max(300.0, 0.101, p_sat_mw=200.0)
        powers = np.arange(0.0, 501.0, 1.0)
        etas = np.array([efficiency_at_power(eta_max, 200.0, p) for p in powers])
        slopes = np.diff(etas)
        assert np.all(np.diff(slopes) < 0.0)
        assert np.all(etas <= eta_max)

    def test_parameter_ranges(self):
        # positive inputs cannot make eta_max 0, but a calibration point
        # above the curve's reach makes it exceed 1
        with pytest.raises(ValidationError, match=r"eta_max must be in \(0, 1\], got 1\.2"):
            pump_eta_max(200.0, 1.2 * -math.expm1(-1.0), p_sat_mw=200.0)
        path = "detector.pump.p_sat_mw"
        with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, 0.0))):
            parse_scenario(edited({path: 0.0}))


class TestNoiseModel:
    def make_curve(self, length=2.0, dark=100.0, growth=40.0):
        """``(dark_cps, n0_cps, growth_per_unit_eta)`` through the length's anchor."""
        n0 = noise_n0(
            dark_cps=dark,
            growth_per_unit_eta=growth,
            eta_ref=ETA_INT_BY_LENGTH[length],
            noise_cps_ref=NOISE_CPS_BY_LENGTH[length],
        )
        return dark, n0, growth

    def test_zero_efficiency_gives_dark_floor(self):
        assert noise_cps(*self.make_curve(), 0.0) == pytest.approx(100.0)

    @pytest.mark.parametrize("length", [1.0, 2.0, 3.0])
    def test_calibration_point_reproduced(self, length):
        curve = self.make_curve(length)
        assert noise_cps(*curve, ETA_INT_BY_LENGTH[length]) == pytest.approx(
            NOISE_CPS_BY_LENGTH[length], rel=1e-12
        )

    def test_monotone_and_above_dark(self):
        curve = self.make_curve()
        etas = np.linspace(0.0, 0.2, 101)
        rates = np.array([noise_cps(*curve, e) for e in etas])
        assert np.all(np.diff(rates) > 0.0)
        assert np.all(rates >= 100.0)

    def test_eta_outside_unit_interval_rejected(self):
        # the model is evaluated at its calibration efficiency and at pump
        # efficiencies up to eta_max <= 1; the schema refuses the former
        path = "detector.noise.calibration_eta"
        for value in (0.0, 1.1):
            with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, value))):
                parse_scenario(edited({path: value}))

    def test_reference_below_dark_rejected(self):
        with pytest.raises(ValidationError):
            noise_n0(100.0, 40.0, 0.1, 50.0)

    @pytest.mark.parametrize("growth", [0.0, 1e300])
    def test_calibration_without_a_finite_rising_curve_rejected(self, growth):
        # a growth of 0 fixes no curve; one whose exp(growth * eta_ref)
        # overflows is outside the key's range
        path = "detector.noise.growth_per_unit_eta"
        cause = ("detector.noise: .* which cannot fix n0_cps" if growth == 0.0
                 else re.escape(range_refusal(path, growth)))
        with pytest.raises(ScenarioError, match=cause):
            parse_scenario(edited({path: growth}))

    def test_overflowing_noise_rate_rejected(self):
        # exp(growth * eta) overflows at an efficiency of 1 or less only for a
        # growth outside the key's range; at its top the rate is finite
        path = "detector.noise.growth_per_unit_eta"
        with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, 7000.0))):
            parse_scenario(edited({path: 7000.0}))
        growth = RANGES[path].high
        n0 = noise_n0(100.0, growth, 0.1, 800.0)
        assert noise_cps(100.0, n0, growth, 0.1) == pytest.approx(800.0, rel=1e-12)
        assert math.isfinite(noise_cps(100.0, n0, growth, 1.0))


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
        with pytest.raises(NumericalError, match=r"\* 0\.0 is 0, so the limit"):
            detection_limit(800.0, 1.0, 0.0, REP_RATE_HZ)

    def test_nonpositive_time_and_rate_rejected(self):
        # the schema refuses both keys at 0, and below the ends of their
        # ranges, where the product of positive values could underflow to 0
        with pytest.raises(NumericalError, match=r"= 0\.0 \* .* is 0, so the limit"):
            detection_limit(800.0, 0.0, 0.033, REP_RATE_HZ)
        for path, value in (("experiment.limits.integration_s", 1.0e-300),
                            ("source.rep_rate_hz", 1.0e-30)):
            with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, value))):
                parse_scenario(edited({path: value}))

    @pytest.mark.parametrize("integration_s", [5.0e-324, 1.0e-320, 1.0e-315])
    def test_subnormal_products_lose_no_digits(self, integration_s):
        # on l2 these times would make the detected pulses T * R * eta subnormal:
        # they are outside the key's range, and at its low end both products
        # are normal and the limit is exact to 4 ulp
        path = "experiment.limits.integration_s"
        with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, integration_s))):
            parse_scenario(edited({path: integration_s}))
        lowest = RANGES[path].low
        _, eta, noise = parse_scenario(edited({path: lowest})).operating_point()
        assert min(noise * lowest, lowest * REP_RATE_HZ * eta) >= sys.float_info.min
        assert_within_4_ulp(detection_limit(noise, lowest, eta, REP_RATE_HZ),
                            noise, lowest, eta, REP_RATE_HZ)

    @pytest.mark.parametrize("eta", [0.01, 0.0123, 0.0177])
    def test_subnormal_reduced_product_loses_no_digits(self, eta):
        # a 5e-324 Hz rate would make sqrt(T) * R * eta subnormal: it is outside the
        # key's range, and at the lowest noise, time and rate in range the
        # limit is exact to 4 ulp
        path = "source.rep_rate_hz"
        with pytest.raises(ScenarioError, match=re.escape(range_refusal(path, 5e-324))):
            parse_scenario(edited({path: 5.0e-324}))
        args = (RANGES["detector.noise.dark_cps"].low,
                RANGES["experiment.limits.integration_s"].low, eta, RANGES[path].low)
        assert_within_4_ulp(detection_limit(*args), *args)

    # each product the limit is formed from, and the limit itself, would
    # overflow only for an integration time outside its key's range, which names it
    @pytest.mark.parametrize("edits", [
        {"experiment.limits.integration_s": 1.7976931348623157e308},
        {"experiment.limits.integration_s": 1.0e300, "detector.noise.dark_cps": 1.0e9,
         "detector.noise.calibration_noise_cps": 1.0e9},
        {"experiment.limits.integration_s": 1.0e300, "source.rep_rate_hz": 1.0e10},
        {"experiment.limits.integration_s": 1.0e300, "source.rep_rate_hz": 1.0e10,
         "detector.chain.apd_efficiency": 0.0},
        {"experiment.limits.integration_s": 5.0e-324},
    ], ids=["noise-counts", "noise-counts-from-noise", "pulses", "pulses-times-zero", "limit"])
    def test_overflow_is_named(self, edits):
        path = "experiment.limits.integration_s"
        with pytest.raises(ScenarioError) as raised:
            parse_scenario(edited(edits))
        assert str(raised.value) == range_refusal(path, edits[path])
