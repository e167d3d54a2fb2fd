"""Temporal response of a sum-frequency gate driven by a Gaussian pump.

Inside a periodically poled crystal the pump and the signal walk off at a
fixed group-delay difference per unit length, so the crystal acts as a
rectangular time gate whose full width is ``tau_g * L``.  The detector's
temporal resolution function is the peak-normalized pump intensity profile
convolved with that gate, and a measured delay scan is the incoming signal
convolved with it (:func:`waveform.convolve`).

For a Gaussian pump and a Gaussian signal the whole chain collapses to a
difference of error functions, the shape ``analysis.fit_erf_gate`` fits to
a delay scan.  The test suite holds the sampled convolution path
against that closed form, two independent routes to the same curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        Output grid, taken as given.  Unless it extends at least
        ``gate/2 + 3 * pump.fwhm_fs`` on both sides of the pump center, the
        response is truncated.
    """
    gate_fs = crystal.gate_width_fs
    pump_wave = gaussian_waveform(pump, grid)
    # when half the gate width underflows to 0 steps, the gate is one sample wide
    half_steps = max(1, math.ceil(0.5 * gate_fs / grid.dt_fs))
    gate_grid = TimeGrid(-half_steps * grid.dt_fs, grid.dt_fs, 2 * half_steps + 1)
    gate = rect_waveform(gate_fs, gate_grid)
    conv = convolve(pump_wave, gate)
    # the gate grid is symmetric, so dropping half_steps samples on each side
    # puts the result back on the requested grid
    return SampledWaveform(
        grid.t0_fs, grid.dt_fs,
        conv.samples[half_steps:half_steps + grid.n],
    ).peak_normalized()
