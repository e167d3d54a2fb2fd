"""Temporal response of a sum-frequency gate driven by a Gaussian pump.

Inside a periodically poled crystal the pump and the signal walk off at a
fixed group-delay difference per unit length, so the crystal acts as a
rectangular time gate whose full width is ``tau_g * L``.  The detector's
temporal resolution function is the peak-normalized pump intensity profile
convolved with that gate, and a measured delay scan is the incoming signal
convolved with it (:func:`waveform.convolve`).  The function takes two
numbers, the pump FWHM and the gate width ``tau_g * L``.

For a Gaussian pump and a Gaussian signal the whole chain collapses to a
difference of error functions, the shape ``analysis.fit_erf_gate`` fits to
a delay scan.  The test suite holds the sampled convolution path
against that closed form, two independent routes to the same curve.
"""

from __future__ import annotations

from .waveform import SampledWaveform, TimeGrid, convolve, gaussian_waveform, rect_waveform

__all__ = ["resolution_function"]


def resolution_function(
    pump_fwhm_fs: float, gate_width_fs: float, grid: TimeGrid
) -> SampledWaveform:
    """Temporal resolution function: pump profile convolved with the gate, peak-normalized.

    Parameters
    ----------
    pump_fwhm_fs : float
        FWHM of the Gaussian pump intensity profile, centred on zero.
    gate_width_fs : float
        Full width of the rectangular gate, ``tau_g * L``.
    grid : TimeGrid
        Output grid, taken as given.  Unless it extends at least
        ``gate/2 + 3 * pump_fwhm_fs`` on both sides of zero, the response is
        truncated.
    """
    pump_wave = gaussian_waveform(pump_fwhm_fs, grid)
    # TimeGrid.symmetric gives the gate at least one step on each side of
    # zero, so a gate narrower than a step is the one sample at zero
    gate = rect_waveform(gate_width_fs, TimeGrid.symmetric(0.5 * gate_width_fs, grid.dt_fs))
    conv = convolve(pump_wave, gate)
    # the gate grid is symmetric, so dropping half_steps samples on each side
    # puts the result back on the requested grid
    half_steps = gate.n // 2
    return SampledWaveform(
        grid.t0_fs, grid.dt_fs,
        conv.samples[half_steps:half_steps + grid.n],
    ).peak_normalized()
