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
efficiency eta.  The scenario schema checks the arguments; this module
refuses only what it computes from them.
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

    @classmethod
    def from_calibration(
        cls, power_mw: float, eta: float, p_sat_mw: float
    ) -> "PumpEfficiencyModel":
        """Anchor the curve so it passes exactly through one measured point."""
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
        # from_calibration's n0 overflows when the term it divides by is subnormal
        if not (math.isfinite(self.n0_cps) and self.n0_cps >= 0.0):
            raise ValidationError(f"n0_cps must be >= 0, got {self.n0_cps}")

    @classmethod
    def from_calibration(
        cls,
        dark_cps: float,
        growth_per_unit_eta: float,
        eta_ref: float,
        noise_cps_ref: float,
    ) -> "NoiseModel":
        """Fix ``n0`` so the curve passes through one measured noise rate."""
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
    ``1 / eta``, so halving the efficiency doubles the limit.  When
    ``T * R * eta`` is 0 no pulse is detected and NumericalError says so.
    """
    sigma = math.sqrt(noise_rate_cps * integration_s)
    pulses_detected = integration_s * rep_rate_hz * external_eta
    if pulses_detected == 0.0:
        raise NumericalError(
            f"integration_s * rep_rate_hz * external_eta = {integration_s} * {rep_rate_hz} * "
            f"{external_eta} underflows to 0, so the limit per pulse is undefined"
        )
    return 3.0 * sigma / pulses_detected
