"""Detection efficiency, noise, and sensitivity of the up-conversion detector.

The signal photon is up-converted inside the crystal and then has to survive
fiber re-coupling, spectral filtering, and the silicon APD, so the external
efficiency is a plain product of those factors.  The internal conversion
step saturates with pump power, and the dominant noise background grows
roughly exponentially alongside it, which is why there is an optimum
operating point at all.

The detection limit follows counting statistics: with a noise rate N over an
integration time T the count fluctuation is sqrt(N T), and a signal is
called detectable at three such standard deviations.  Expressed per incident
pulse that is ``3 sqrt(N T) / (T R eta)`` for repetition rate R and external
efficiency eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalError, ValidationError

__all__ = [
    "EfficiencyChain",
    "PumpEfficiencyModel",
    "NoiseModel",
    "external_efficiency",
    "efficiency_at_power",
    "noise_cps",
    "detection_limit",
]

def _check_fraction(name: str, value: float) -> None:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must be a fraction in [0, 1], got {value}")


@dataclass(frozen=True)
class EfficiencyChain:
    """Multiplicative efficiency budget from crystal to counted click.

    Defaults hold for the reference setup: a silicon APD at 41 %, single-mode
    fiber re-coupling of the up-converted light at 85 %, and 94 % through the
    pump/background rejection filters.
    """

    internal_upconversion: float
    apd_efficiency: float = 0.41
    fiber_coupling: float = 0.85
    filter_transmittance: float = 0.94

    def __post_init__(self) -> None:
        _check_fraction("internal_upconversion", self.internal_upconversion)
        _check_fraction("apd_efficiency", self.apd_efficiency)
        _check_fraction("fiber_coupling", self.fiber_coupling)
        _check_fraction("filter_transmittance", self.filter_transmittance)


def external_efficiency(chain: EfficiencyChain) -> float:
    """Overall probability that an incident signal photon is counted."""
    return (
        chain.internal_upconversion
        * chain.apd_efficiency
        * chain.fiber_coupling
        * chain.filter_transmittance
    )


@dataclass(frozen=True)
class PumpEfficiencyModel:
    """Saturating internal conversion efficiency versus average pump power.

    ``eta(P) = eta_max * (1 - exp(-P / p_sat_mw))``: linear at low power,
    flattening once the pump depletes the available conversion bandwidth.
    """

    eta_max: float
    p_sat_mw: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta_max) and 0.0 < self.eta_max <= 1.0):
            raise ValidationError(f"eta_max must be in (0, 1], got {self.eta_max}")
        if not (math.isfinite(self.p_sat_mw) and self.p_sat_mw > 0.0):
            raise ValidationError(f"saturation power must be positive, got {self.p_sat_mw}")

    @classmethod
    def from_calibration(
        cls, power_mw: float, eta: float, p_sat_mw: float
    ) -> "PumpEfficiencyModel":
        """Anchor the curve so it passes exactly through one measured point."""
        if not (math.isfinite(power_mw) and power_mw > 0.0):
            raise ValidationError(f"calibration power must be positive, got {power_mw}")
        _check_fraction("calibration efficiency", eta)
        if eta <= 0.0:
            raise ValidationError("calibration efficiency must be positive")
        if not (math.isfinite(p_sat_mw) and p_sat_mw > 0.0):
            raise ValidationError(f"saturation power must be positive, got {p_sat_mw}")
        saturation = -math.expm1(-power_mw / p_sat_mw)
        if saturation == 0.0:
            raise ValidationError(
                f"calibration power {power_mw} mW against saturation power {p_sat_mw} mW "
                "gives 1 - exp(-P / p_sat) = 0, which cannot fix eta_max"
            )
        eta_max = eta / saturation
        return cls(eta_max, p_sat_mw)


def efficiency_at_power(model: PumpEfficiencyModel, power_mw: float) -> float:
    """Internal conversion efficiency at the given average pump power."""
    if not (math.isfinite(power_mw) and power_mw >= 0.0):
        raise ValidationError(f"pump power must be >= 0, got {power_mw}")
    return model.eta_max * -math.expm1(-power_mw / model.p_sat_mw)


@dataclass(frozen=True)
class NoiseModel:
    """Noise count rate versus internal conversion efficiency.

    ``noise(eta) = dark_cps + n0_cps * (exp(growth * eta) - 1)``.  The dark
    term is the APD floor (about 100 cps for the silicon devices used here);
    the second term captures pump-induced backgrounds, which rise much faster
    than the conversion efficiency itself.
    """

    dark_cps: float
    n0_cps: float
    growth_per_unit_eta: float

    def __post_init__(self) -> None:
        for name in ("dark_cps", "n0_cps", "growth_per_unit_eta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValidationError(f"{name} must be >= 0, got {value}")

    @classmethod
    def from_calibration(
        cls,
        dark_cps: float,
        growth_per_unit_eta: float,
        eta_ref: float,
        noise_cps_ref: float,
    ) -> "NoiseModel":
        """Fix ``n0`` so the curve passes through one measured noise rate."""
        _check_fraction("eta_ref", eta_ref)
        if eta_ref <= 0.0:
            raise ValidationError("reference efficiency must be positive")
        if noise_cps_ref < dark_cps:
            raise ValidationError(
                f"reference noise {noise_cps_ref} cps is below the dark floor {dark_cps} cps"
            )
        try:
            scale = math.expm1(growth_per_unit_eta * eta_ref)
        except OverflowError:
            scale = math.inf
        if scale == 0.0 or math.isinf(scale):
            raise ValidationError(
                f"growth_per_unit_eta {growth_per_unit_eta} with eta_ref {eta_ref} gives "
                f"exp(growth * eta_ref) - 1 = {scale}, which cannot fix n0_cps"
            )
        n0 = (noise_cps_ref - dark_cps) / scale
        return cls(dark_cps, n0, growth_per_unit_eta)


def noise_cps(model: NoiseModel, internal_eta: float) -> float:
    """Noise rate at the given internal efficiency operating point."""
    _check_fraction("internal_eta", internal_eta)
    try:
        growth = math.expm1(model.growth_per_unit_eta * internal_eta)
    except OverflowError:
        growth = math.inf
    noise = model.dark_cps + model.n0_cps * growth
    if not math.isfinite(noise):
        raise ValidationError(f"noise rate overflows at internal efficiency {internal_eta}")
    return noise


def detection_limit(
    noise_rate_cps: float,
    integration_s: float,
    external_eta: float,
    rep_rate_hz: float,
) -> float:
    """Smallest detectable mean photon number per pulse.

    Three standard deviations of the integrated noise counts, referred back
    to the source through the external efficiency and repetition rate:
    ``3 sqrt(noise * T) / (T * R * eta)``.  Scales as ``1 / sqrt(T)`` and as
    ``1 / eta``, so halving the efficiency doubles the limit.
    """
    if not (math.isfinite(noise_rate_cps) and noise_rate_cps >= 0.0):
        raise ValidationError(f"noise rate must be >= 0, got {noise_rate_cps}")
    if not (math.isfinite(integration_s) and integration_s > 0.0):
        raise ValidationError(f"integration time must be positive, got {integration_s}")
    if not (math.isfinite(external_eta) and 0.0 < external_eta <= 1.0):
        raise ValidationError(
            f"external efficiency must be in (0, 1], got {external_eta}"
        )
    if not (math.isfinite(rep_rate_hz) and rep_rate_hz > 0.0):
        raise ValidationError(f"repetition rate must be positive, got {rep_rate_hz}")
    sigma = math.sqrt(noise_rate_cps * integration_s)
    pulses_detected = integration_s * rep_rate_hz * external_eta
    if pulses_detected == 0.0:
        raise NumericalError(
            f"integration_s * rep_rate_hz * external_eta = {integration_s} * {rep_rate_hz} * "
            f"{external_eta} underflows to 0, so the limit per pulse is undefined"
        )
    return 3.0 * sigma / pulses_detected
