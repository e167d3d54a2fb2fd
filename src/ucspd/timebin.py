"""Time-bin qubit states and their passage through delay interferometers.

A state is a vector of complex amplitudes over equally spaced time slots.
An unbalanced interferometer whose path difference equals the slot spacing
splits each amplitude, phase-shifts the delayed copy, and recombines:

    |n>  ->  (|n> + e^{i phi} |n + 1>) / sqrt(2).

Two passes through such interferometers turn a single occupied slot into
three, with the center slot carrying the interference of the two
single-delay paths.  Detection happens slot by slot, so all predictions here
reduce to slot occupation probabilities; an overall normalization drops out
through postselection, so states are never renormalized.

The ``contrast`` parameter scales the delayed amplitude and models reduced
interference visibility from imperfect mode overlap.  At contrast 1 the
center-to-side probability ratio of the double-pass state is
``4 cos^2((phi - phi') / 2) : 1`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .waveform import PulseSpec, SampledWaveform, TimeGrid, gaussian_waveform

__all__ = [
    "TimeBinState",
    "InterferometerSpec",
    "apply_interferometer",
    "slot_probabilities",
    "synthesize_waveform",
    "center_bin_expectation",
]


@dataclass(frozen=True)
class TimeBinState:
    """Complex amplitudes over uniformly spaced time slots.

    Slot ``k`` sits at time ``k * slot_spacing_fs`` relative to the first
    slot.  Amplitudes are stored as a read-only complex copy and need not be
    normalized; probabilities are always formed relative to the total.
    """

    amplitudes: np.ndarray
    slot_spacing_fs: float

    def __post_init__(self) -> None:
        arr = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ValidationError("amplitudes must be a non-empty one-dimensional sequence")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("amplitudes must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_slots(self) -> int:
        return int(self.amplitudes.size)

    @classmethod
    def single(cls, slot_spacing_fs: float) -> "TimeBinState":
        """One photon in one slot, the input of every sequence used here."""
        return cls(np.array([1.0 + 0.0j]), slot_spacing_fs)


@dataclass(frozen=True)
class InterferometerSpec:
    """Unbalanced interferometer whose path difference is one slot.

    ``phase_rad`` is the relative phase picked up in the long arm and
    ``contrast`` scales the delayed amplitude (1 means perfect overlap).
    """

    phase_rad: float
    contrast: float = 1.0


def apply_interferometer(state: TimeBinState, ifm: InterferometerSpec) -> TimeBinState:
    """Propagate a state through one interferometer pass.

    Each amplitude splits into an undelayed copy and a phase-shifted copy
    one slot later, both scaled by 1/sqrt(2); the delayed copy is
    additionally scaled by the contrast.  The output is one slot longer
    than the input.  The 1/sqrt(2) factors are kept so splitting losses stay
    explicit; with contrast 1 a single occupied slot keeps unit total
    probability.
    """
    a = state.amplitudes
    out = np.zeros(a.size + 1, dtype=np.complex128)
    shift = ifm.contrast * np.exp(1j * ifm.phase_rad)
    out[:-1] += a
    out[1:] += shift * a
    return TimeBinState(out / math.sqrt(2.0), state.slot_spacing_fs)


def slot_probabilities(state: TimeBinState) -> np.ndarray:
    """Occupation probabilities per slot, normalized to sum to one."""
    p = np.abs(state.amplitudes) ** 2
    total = p.sum()
    if total <= 0.0:
        raise ValidationError("state has zero total probability")
    return p / total


def synthesize_waveform(
    state: TimeBinState,
    pulse_fwhm_fs: float,
    grid: TimeGrid,
) -> SampledWaveform:
    """Intensity profile of the state: one Gaussian per occupied slot.

    Slot ``k`` contributes a :func:`gaussian_waveform` of the given FWHM at
    ``k * slot_spacing_fs``, weighted by ``|a_k|^2``.  The slot weights are
    used as-is (no normalization), so the returned area tracks the total
    probability in the state.

    Raises
    ------
    ValidationError
        If the grid does not cover every slot center with a three-FWHM
        margin on both sides; a narrower grid would clip the profile.
    """
    centers = state.slot_spacing_fs * np.arange(state.n_slots)
    margin = 3.0 * pulse_fwhm_fs
    if grid.t0_fs > centers.min() - margin or grid.t_max_fs < centers.max() + margin:
        raise ValidationError(
            f"grid [{grid.t0_fs:g}, {grid.t_max_fs:g}] fs clips the slot profile; "
            f"need [{centers.min() - margin:g}, {centers.max() + margin:g}] fs"
        )
    weights = np.abs(state.amplitudes) ** 2
    total = np.zeros(grid.n)
    for center, weight in zip(centers, weights):
        if weight > 0.0:
            total += gaussian_waveform(PulseSpec(pulse_fwhm_fs, center, weight), grid).samples
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
    phases = np.asarray(phase_diff_rad, dtype=np.float64)
    # a difference of two finite phases can overflow, and math.cos refuses inf
    if not np.all(np.isfinite(phases)):
        raise ValidationError("phase difference must be finite")
    if phases.ndim == 0:
        return (1.0 + contrast * math.cos(phase_diff_rad)) / 3.0
    cos = np.fromiter(map(math.cos, phases.tolist()), np.float64, phases.size)
    return (1.0 + contrast * cos) / 3.0
