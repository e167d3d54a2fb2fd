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
efficiency eta.  The scenario schema checks the arguments; this module
refuses only what it computes from them.
"""

from __future__ import annotations

import math
import sys

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
    saturation = -math.expm1(-calibration_power_mw / p_sat_mw)
    if saturation == 0.0:
        raise ValidationError(
            f"calibration power {calibration_power_mw} mW against saturation power {p_sat_mw} mW "
            "gives 1 - exp(-P / p_sat) = 0, which cannot fix eta_max"
        )
    eta_max = calibration_eta / saturation
    if not (math.isfinite(eta_max) and 0.0 < eta_max <= 1.0):
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
    # n0 overflows when the term it divides by is subnormal
    if not (math.isfinite(n0) and n0 >= 0.0):
        raise ValidationError(f"n0_cps must be >= 0, got {n0}")
    return n0


def noise_cps(dark_cps: float, n0_cps: float, growth_per_unit_eta: float,
              internal_eta: float) -> float:
    """Noise rate at the given internal efficiency operating point."""
    try:
        growth = math.expm1(growth_per_unit_eta * internal_eta)
    except OverflowError:
        growth = math.inf
    noise = dark_cps + n0_cps * growth
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
    ``noise * T`` or ``T * R * eta`` is subnormal, and so holds fewer digits
    than a float, the limit is ``3 sqrt(noise) / (sqrt(T) * R * eta)``
    instead, divided factor by factor if that denominator is subnormal too.
    When ``T * R * eta`` is 0 (a factor is 0, or the product underflows) no
    pulse is detected, and when ``noise * T``, ``T * R * eta`` or the limit
    itself overflows there is no finite limit; NumericalError says which.
    """
    noise_counts = noise_rate_cps * integration_s
    pulses_detected = integration_s * rep_rate_hz * external_eta
    if not math.isfinite(noise_counts):
        problem = f"noise_rate_cps * integration_s = {noise_rate_cps} * {integration_s} overflows"
    elif not math.isfinite(pulses_detected) or pulses_detected == 0.0:
        zero = 0.0 in (integration_s, rep_rate_hz, external_eta)
        outcome = ("overflows" if not math.isfinite(pulses_detected)
                   else "is 0" if zero else "underflows to 0")
        problem = (f"integration_s * rep_rate_hz * external_eta = {integration_s} * "
                   f"{rep_rate_hz} * {external_eta} {outcome}")
    else:
        limit = 3.0 * math.sqrt(noise_counts) / pulses_detected
        if 0.0 < noise_counts < sys.float_info.min or pulses_detected < sys.float_info.min:
            root_t = math.sqrt(integration_s)
            sigma, reduced = 3.0 * math.sqrt(noise_rate_cps), root_t * rep_rate_hz * external_eta
            # a subnormal reduced product has R * eta < 1: no quotient overflows before the limit
            limit = (sigma / reduced if reduced >= sys.float_info.min
                     else sigma / root_t / rep_rate_hz / external_eta)
        if not math.isinf(limit):
            return limit
        problem = (f"3 * sqrt(noise_rate_cps * integration_s) / (integration_s * rep_rate_hz * "
                   f"external_eta) = 3 * sqrt({noise_counts}) / {pulses_detected} overflows")
    raise NumericalError(f"{problem}, so the limit per pulse is undefined")
