"""Detection efficiency, noise, and sensitivity of the up-conversion detector.

The signal photon is up-converted inside the crystal and then has to survive
fiber re-coupling, spectral filtering, and the silicon APD, so the external
efficiency is a plain product of those factors.  The internal conversion
step saturates with pump power, and the dominant noise background grows
roughly exponentially alongside it, which is why there is an optimum
operating point at all.  Each curve is a few numbers: ``pump_eta_max`` and
``noise_n0`` fix its scale from one calibration point, and
``efficiency_at_power`` and ``noise_cps`` evaluate it.

The detection limit follows counting statistics: with a noise rate N over an
integration time T the count fluctuation is sqrt(N T), and a signal is
called detectable at three such standard deviations.  Expressed per incident
pulse that is ``3 sqrt(N T) / (T R eta)`` for repetition rate R and external
efficiency eta.  The scenario schema checks the arguments, and its ranges
keep every value computed here finite and normal; this module refuses only
calibrations the curves cannot pass through and a limit with no detected
pulse.
"""

from __future__ import annotations

import math

from .errors import NumericalError, ValidationError

__all__ = [
    "external_efficiency",
    "pump_eta_max",
    "efficiency_at_power",
    "noise_n0",
    "noise_cps",
    "detection_limit",
]


def external_efficiency(
    internal_eta: float, apd_efficiency: float, fiber_coupling: float, filter_transmittance: float
) -> float:
    """Overall probability that an incident signal photon is counted."""
    return internal_eta * apd_efficiency * fiber_coupling * filter_transmittance


def pump_eta_max(calibration_power_mw: float, calibration_eta: float, p_sat_mw: float) -> float:
    """``eta_max`` of the saturating curve through one measured efficiency.

    ``eta(P) = eta_max * (1 - exp(-P / p_sat_mw))``: linear at low power,
    flattening once the pump depletes the available conversion bandwidth.
    """
    eta_max = calibration_eta / -math.expm1(-calibration_power_mw / p_sat_mw)
    if eta_max > 1.0:
        raise ValidationError(f"eta_max must be in (0, 1], got {eta_max}")
    return eta_max


def efficiency_at_power(eta_max: float, p_sat_mw: float, power_mw: float) -> float:
    """Internal conversion efficiency at the given average pump power."""
    return eta_max * -math.expm1(-power_mw / p_sat_mw)


def noise_n0(dark_cps: float, growth_per_unit_eta: float, eta_ref: float,
             noise_cps_ref: float) -> float:
    """``n0_cps`` of the noise curve through one measured noise rate.

    ``noise(eta) = dark_cps + n0_cps * (exp(growth * eta) - 1)``.  The dark
    term is the APD floor (about 100 cps for the silicon devices used here);
    the second term captures pump-induced backgrounds, which rise much faster
    than the conversion efficiency itself.
    """
    if noise_cps_ref < dark_cps:
        raise ValidationError(
            f"reference noise {noise_cps_ref} cps is below the dark floor {dark_cps} cps"
        )
    scale = math.expm1(growth_per_unit_eta * eta_ref)
    if scale == 0.0:
        raise ValidationError(
            f"growth_per_unit_eta {growth_per_unit_eta} with eta_ref {eta_ref} gives "
            f"exp(growth * eta_ref) - 1 = {scale}, which cannot fix n0_cps"
        )
    return (noise_cps_ref - dark_cps) / scale


def noise_cps(dark_cps: float, n0_cps: float, growth_per_unit_eta: float,
              internal_eta: float) -> float:
    """Noise rate at the given internal efficiency operating point."""
    return dark_cps + n0_cps * math.expm1(growth_per_unit_eta * internal_eta)


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
    ``T * R * eta`` is 0, because a chain factor is 0, no pulse is detected
    and NumericalError says so.
    """
    pulses_detected = integration_s * rep_rate_hz * external_eta
    if pulses_detected == 0.0:
        raise NumericalError(
            f"integration_s * rep_rate_hz * external_eta = {integration_s} * {rep_rate_hz} * "
            f"{external_eta} is 0, so the limit per pulse is undefined"
        )
    return 3.0 * math.sqrt(noise_rate_cps * integration_s) / pulses_detected
