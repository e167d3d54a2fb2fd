"""Time-bin qubit states and their passage through delay interferometers.

A state is a complex array of amplitudes over equally spaced time slots;
the functions here take the array, and only ``synthesize_waveform``, which
places slot ``k`` at ``k`` times the spacing, takes the spacing as well.
Every sequence used here starts from one photon in one slot,
``np.ones(1, dtype=np.complex128)``.  An unbalanced interferometer whose path
difference equals the slot spacing splits each amplitude, phase-shifts the
delayed copy, and recombines:

    |n>  ->  (|n> + e^{i phi} |n + 1>) / sqrt(2).

Two passes through such interferometers turn a single occupied slot into
three, with the center slot carrying the interference of the two
single-delay paths.  Detection happens slot by slot, so all predictions here
reduce to slot occupation probabilities; an overall normalization drops out
through postselection, so states are never renormalized.

An interferometer pass is its phase and its ``contrast``, which scales the
delayed amplitude and models reduced interference visibility from imperfect
mode overlap.  At contrast 1 the center-to-side probability ratio of the
double-pass state is ``4 cos^2((phi - phi') / 2) : 1`` exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .waveform import SampledWaveform, TimeGrid, gaussian_waveform, libm

__all__ = [
    "apply_interferometer",
    "slot_probabilities",
    "synthesize_waveform",
    "center_bin_expectation",
]


def apply_interferometer(amplitudes: np.ndarray, phase_rad: float, contrast: float) -> np.ndarray:
    """Propagate a state through one unbalanced interferometer pass.

    The path difference is one slot.  Each amplitude splits into an
    undelayed copy and a copy one slot later that picks up the long arm's
    ``phase_rad``, both scaled by 1/sqrt(2); the delayed copy is
    additionally scaled by the ``contrast`` (1 means perfect overlap).  The
    output is one slot longer than the input.  The 1/sqrt(2) factors are
    kept so splitting losses stay explicit; with contrast 1 a single
    occupied slot keeps unit total probability.
    """
    out = np.zeros(amplitudes.size + 1, dtype=np.complex128)
    shift = contrast * np.exp(1j * phase_rad)
    out[:-1] += amplitudes
    out[1:] += shift * amplitudes
    return out / math.sqrt(2.0)


def slot_probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """Occupation probabilities per slot, normalized to sum to one."""
    p = np.abs(amplitudes) ** 2
    return p / p.sum()


def synthesize_waveform(
    amplitudes: np.ndarray,
    slot_spacing_fs: float,
    pulse_fwhm_fs: float,
    grid: TimeGrid,
) -> SampledWaveform:
    """Intensity profile of the state: one Gaussian per occupied slot.

    Slot ``k`` contributes a unit-peak :func:`gaussian_waveform` of the given
    FWHM at ``k * slot_spacing_fs``, times ``|a_k|^2``.  The slot weights are
    used as-is (no normalization), so the returned area tracks the total
    probability in the state.  The grid is taken as given, so a pulse that
    reaches past its ends is clipped there.
    """
    centers = slot_spacing_fs * np.arange(amplitudes.size)
    weights = np.abs(amplitudes) ** 2
    total = np.zeros(grid.n)
    for center, weight in zip(centers, weights):
        total += weight * gaussian_waveform(pulse_fwhm_fs, grid, center).samples
    return SampledWaveform(grid.t0_fs, grid.dt_fs, total)


def center_bin_expectation(phase_diff_rad, contrast: float = 1.0):
    """Interference fringe model for the center time slot.

    The center bin of the double-pass state collects the two single-delay
    paths, so its count rate is proportional to ``1 + contrast * cos(delta)``
    with ``delta`` the phase difference between the two passes; the contrast
    scales only the interference cross-term, which is how dephasing shows up.
    The returned value is that fringe scaled by one third, so it coincides
    with the postselected center-slot probability at ``delta = 0`` (2/3) and
    at ``delta = pi`` (0).  Sweeping ``delta`` gives a fringe whose
    visibility ``(max - min) / (max + min)`` equals the contrast exactly.

    ``phase_diff_rad`` is a scalar, giving a float, or a 1-d array, giving
    the fringe at each phase.  The cosine is taken with ``math.cos`` element
    by element, so the values are the same bytes on every CPU.
    """
    cos = libm(math.cos, np.asarray(phase_diff_rad, dtype=np.float64))
    # arithmetic on a 0-d array gives an np.float64, which is a float
    return (1.0 + contrast * cos) / 3.0
