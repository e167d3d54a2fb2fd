"""Temporal response of a sum-frequency gate driven by a Gaussian pump.

Inside a periodically poled crystal the pump and the signal walk off at a
fixed group-delay difference per unit length, so the crystal acts as a
rectangular time gate whose full width is ``tau_g * L``.  The detector's
temporal resolution function is the peak-normalized pump intensity profile
convolved with that gate, and a measured delay scan is the incoming signal
convolved with it (:func:`waveform.convolve`).

For a Gaussian pump and a Gaussian signal the whole chain collapses to a
difference of error functions, which :func:`analytic_response` evaluates
directly.  Keeping the sampled convolution path and the closed form separate
gives two independent routes to the same curve; the test suite holds them
against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import erf_gate_model, erf_gate_q
from .errors import ValidationError
from .waveform import (
    PulseSpec,
    SampledWaveform,
    TimeGrid,
    convolve,
    gaussian_waveform,
    rect_waveform,
)

__all__ = [
    "DEFAULT_GROUP_DELAY_FS_PER_MM",
    "CrystalSpec",
    "resolution_function",
    "analytic_response",
]

#: Pump/signal group-delay difference in PPMgSLT at the operating wavelengths.
DEFAULT_GROUP_DELAY_FS_PER_MM = 204.3


@dataclass(frozen=True)
class CrystalSpec:
    """Nonlinear crystal acting as a rectangular time gate.

    ``tau_g_fs_per_mm`` is the pump/signal group-delay mismatch per unit
    length; the gate width is that value times the crystal length.  ``label``
    names the crystal on plots and never enters any calculation.
    """

    length_mm: float
    tau_g_fs_per_mm: float = DEFAULT_GROUP_DELAY_FS_PER_MM
    label: str = ""

    @property
    def gate_width_fs(self) -> float:
        """Full width of the rectangular time gate."""
        return self.length_mm * self.tau_g_fs_per_mm


def resolution_function(
    pump: PulseSpec,
    crystal: CrystalSpec,
    grid: TimeGrid,
) -> SampledWaveform:
    """Temporal resolution function: pump profile convolved with the gate, peak-normalized.

    Parameters
    ----------
    pump : PulseSpec
        Gaussian pump intensity profile.
    crystal : CrystalSpec
        Sets the rectangular gate width.
    grid : TimeGrid
        Output grid.  It must extend at least ``gate/2 + 3 * pump.fwhm_fs``
        on both sides of the pump center so the response is not truncated.

    Raises
    ------
    ValidationError
        If the grid is too short for an untruncated response.
    """
    gate_fs = crystal.gate_width_fs
    margin = 0.5 * gate_fs + 3.0 * pump.fwhm_fs
    tol = 1e-9 * grid.dt_fs
    if grid.t0_fs > pump.center_fs - margin + tol or grid.t_max_fs < pump.center_fs + margin - tol:
        raise ValidationError(
            f"grid [{grid.t0_fs:g}, {grid.t_max_fs:g}] fs truncates the response; "
            f"need at least +/-{margin:g} fs around the pump center {pump.center_fs:g} fs"
        )
    pump_wave = gaussian_waveform(pump, grid)
    half_steps = math.ceil(0.5 * gate_fs / grid.dt_fs)
    gate_grid = TimeGrid(-half_steps * grid.dt_fs, grid.dt_fs, 2 * half_steps + 1)
    gate = rect_waveform(gate_fs, gate_grid)
    conv = convolve(pump_wave, gate)
    # the gate grid is symmetric, so dropping half_steps samples on each side
    # puts the result back on the requested grid
    return SampledWaveform(
        grid.t0_fs, grid.dt_fs,
        conv.samples[half_steps:half_steps + grid.n],
    ).peak_normalized()


def analytic_response(t_fs, pump_fwhm_fs: float, signal_fwhm_fs: float, crystal: CrystalSpec):
    """Closed-form delay scan of a Gaussian signal through the gate.

    For Gaussian pump and signal intensity profiles the measured curve is

        erf(q * (w - 2 t)) - erf(q * (-w - 2 t)),

    with ``w`` the gate width and ``q = sqrt(ln 2 / (dp^2 + ds^2))`` built
    from the two FWHM values.  The result is symmetric in ``t`` and peaks at
    zero delay; it carries the natural amplitude of the erf difference (peak
    ``2 erf(q w)``), not a normalized one: it is
    :func:`analysis.erf_gate_model` at amplitude 1, center 0 and floor 0.

    Accepts a scalar or array of delays and returns the same shape.
    """
    if not (math.isfinite(pump_fwhm_fs) and pump_fwhm_fs > 0.0):
        raise ValidationError(f"pump FWHM must be positive, got {pump_fwhm_fs}")
    if not (math.isfinite(signal_fwhm_fs) and signal_fwhm_fs > 0.0):
        raise ValidationError(f"signal FWHM must be positive, got {signal_fwhm_fs}")
    q = erf_gate_q(pump_fwhm_fs, signal_fwhm_fs)
    out = erf_gate_model(t_fs, crystal.gate_width_fs, 1.0, 0.0, 0.0, q)
    if np.ndim(t_fs) == 0:
        return float(out)
    return out
