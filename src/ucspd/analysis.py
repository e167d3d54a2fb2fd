"""Recover physics from count data: deconvolution and model fits.

Three estimators live here.  ``deconvolve`` inverts the gate blur with
Richardson-Lucy iterations, the natural choice for nonnegative Poisson
counts; its blur operator and that operator's adjoint are built once per
call (sliced direct convolution for short inputs, kernel spectra computed
up front for long ones), so each iteration pays only for the two
convolutions.  ``fit_sine`` extracts interference visibility from a phase
sweep; the fringe model ``offset * (1 + V cos(phi - phase0))`` is linear in
``(offset, offset*V*cos(phase0), offset*V*sin(phase0))``, so the fit is a
closed-form weighted least squares with no iteration and no starting guess.
``fit_erf_gate`` estimates the gate width by fitting the erf-difference
delay-scan shape; that one is genuinely nonlinear and uses a bounded
Levenberg-Marquardt-type solver with an analytic Jacobian.

Uncertainties come from the fit covariance scaled by the reduced chi-square,
so exact model data reports (correctly) vanishing error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import FitConvergenceError, GridMismatchError, ValidationError
from .simulate import ScanResult
from .waveform import DT_MATCH_RTOL, FFT_THRESHOLD, SampledWaveform, fast_fft_len

__all__ = [
    "DeconvolutionSettings",
    "DeconvolutionResult",
    "deconvolve",
    "SineFit",
    "fit_sine",
    "ErfGateFit",
    "fit_erf_gate",
    "erf_gate_model",
    "erf_gate_jacobian",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Richardson-Lucy deconvolution


@dataclass(frozen=True)
class DeconvolutionSettings:
    """Iteration budget and stop rule for the deconvolution."""

    algorithm: str = "richardson-lucy"
    iterations: int = 500
    stop_threshold: float = 1e-6

    def __post_init__(self) -> None:
        if self.algorithm != "richardson-lucy":
            raise ValidationError(
                f"unknown deconvolution algorithm {self.algorithm!r}; "
                "only 'richardson-lucy' is implemented"
            )
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise ValidationError(f"iterations must be a positive integer, got {self.iterations!r}")
        if not (math.isfinite(self.stop_threshold) and self.stop_threshold > 0.0):
            raise ValidationError(f"stop threshold must be positive, got {self.stop_threshold}")


@dataclass(frozen=True)
class DeconvolutionResult:
    """Estimate plus the numbers needed to judge it."""

    estimate: SampledWaveform
    residual: float
    iterations_run: int
    converged: bool
    max_flux_drift: float
    settings: DeconvolutionSettings


def _rl_operators(kn: np.ndarray, n: int):
    """Blur ``u -> K u`` and its exact adjoint for length-``n`` signals.

    ``K u`` is the full convolution ``u * kn`` cut to the ``n`` samples that
    center the kernel (index ``m // 2`` of an ``m``-sample kernel lands on
    each output sample); the adjoint is the correlation with ``kn`` cut the
    matching way, so ``<K u, v> == <u, K^T v>`` for odd and even ``m``.
    Short problems use direct summation and long ones multiply by kernel
    spectra computed here once, with the same threshold as ``convolve``.
    """
    m = kn.size
    lo_fwd, lo_adj = m // 2, (m - 1) // 2
    full = n + m - 1
    kn_rev = kn[::-1]
    if full < FFT_THRESHOLD:
        def forward(u):
            return np.convolve(u, kn)[lo_fwd:lo_fwd + n]

        def adjoint(r):
            return np.convolve(r, kn_rev)[lo_adj:lo_adj + n]
    else:
        nfft = fast_fft_len(full)
        k_hat = np.fft.rfft(kn, nfft)
        k_rev_hat = np.fft.rfft(kn_rev, nfft)

        def forward(u):
            return np.fft.irfft(np.fft.rfft(u, nfft) * k_hat, nfft)[lo_fwd:lo_fwd + n]

        def adjoint(r):
            return np.fft.irfft(np.fft.rfft(r, nfft) * k_rev_hat, nfft)[lo_adj:lo_adj + n]
    return forward, adjoint


def deconvolve(
    measured: SampledWaveform,
    kernel: SampledWaveform,
    settings: DeconvolutionSettings | None = None,
) -> DeconvolutionResult:
    """Richardson-Lucy estimate of the waveform blurred by ``kernel``.

    Iterates ``u <- u * K~(d / (K u))`` starting from a flat nonnegative
    field, which keeps the estimate nonnegative and preserves total counts
    at every step (drift is tracked and reported).  Iteration stops at the
    settings cap or when the relative L2 change of the estimate falls below
    the stop threshold.

    The returned estimate lives on the measured grid and is scaled so that
    ``convolve(estimate, kernel)`` (the dt-scaled convolution used
    everywhere in this package) reproduces the measured curve within the
    reported relative L2 residual.

    Raises
    ------
    ValidationError
        On mismatched sample spacings, negative inputs, or an all-zero
        kernel or measurement.
    """
    settings = settings or DeconvolutionSettings()
    if abs(measured.dt_fs - kernel.dt_fs) > DT_MATCH_RTOL * max(measured.dt_fs, kernel.dt_fs):
        raise GridMismatchError(
            f"deconvolution requires equal sample spacings, got "
            f"{measured.dt_fs!r} and {kernel.dt_fs!r}"
        )
    d = np.asarray(measured.samples, dtype=np.float64)
    k = np.asarray(kernel.samples, dtype=np.float64)
    if d.min() < 0.0 or k.min() < 0.0:
        raise ValidationError("deconvolution inputs must be nonnegative")
    k_sum = k.sum()
    if k_sum <= 0.0:
        raise ValidationError("deconvolution kernel is all zero")
    if d.sum() <= 0.0:
        raise ValidationError("measured waveform is all zero")
    n = d.size
    forward_op, adjoint_op = _rl_operators(k / k_sum, n)
    total = d.sum()
    u = np.full(n, total / n)
    floor = 1e-12 * total
    max_drift = 0.0
    converged = False
    iterations_run = 0
    for iterations_run in range(1, settings.iterations + 1):
        forward = forward_op(u)
        ratio = d / np.maximum(forward, floor)
        u_new = u * adjoint_op(ratio)
        drift = abs(u_new.sum() - total) / total
        max_drift = max(max_drift, drift)
        change = np.linalg.norm(u_new - u) / max(np.linalg.norm(u), floor)
        u = u_new
        if change < settings.stop_threshold:
            converged = True
            break
    forward = forward_op(u)
    residual = float(np.linalg.norm(forward - d) / np.linalg.norm(d))

    dt = measured.dt_fs
    # u solves d = u (discrete*) kn; rescale so that the dt-scaled
    # convolution with the raw kernel reproduces the measurement
    estimate_samples = np.maximum(u / (k_sum * dt), 0.0)
    offset = k.size // 2
    t0 = measured.t0_fs - kernel.t0_fs - offset * dt
    estimate = SampledWaveform(t0, dt, estimate_samples)
    return DeconvolutionResult(
        estimate=estimate,
        residual=residual,
        iterations_run=iterations_run,
        converged=converged,
        max_flux_drift=float(max_drift),
        settings=settings,
    )


# ---------------------------------------------------------------------------
# Sinusoidal visibility fit


@dataclass(frozen=True)
class SineFit:
    """Fringe fit ``counts = offset * (1 + visibility * cos(phase - phase0))``."""

    offset: float
    amplitude: float
    phase0_rad: float
    visibility: float
    offset_sigma: float
    amplitude_sigma: float
    phase0_sigma_rad: float
    visibility_sigma: float
    reduced_chi2: float
    n_points: int
    dwell_s: float

    def __post_init__(self) -> None:
        if not (self.offset > 0.0):
            raise ValidationError(f"fitted offset must be positive, got {self.offset}")
        if self.visibility < 0.0 or self.visibility > 1.0 + 3.0 * self.visibility_sigma + 1e-12:
            raise ValidationError(
                f"fitted visibility {self.visibility} outside [0, 1 + 3 sigma]"
            )


def fit_sine(phases_rad, counts, dwell_s: float = 1.0) -> SineFit:
    """Weighted least-squares fringe fit with Poisson count weights.

    The model ``offset * (1 + V cos(phi - phase0))`` is reparametrized as
    ``A0 + A1 cos(phi) + A2 sin(phi)`` and solved in closed form, so the
    result is deterministic with no iteration or starting values.  Weights
    are ``1 / max(counts, 1)`` (Poisson variance); parameter covariance is
    the usual ``(X^T W X)^{-1}`` scaled by the reduced chi-square, and the
    derived quantities (amplitude, phase, visibility) get their one-sigma
    values by linear propagation.

    Raises
    ------
    ValidationError
        Fewer than 5 points, negative counts, or phases spanning less than
        half a period.
    FitConvergenceError
        The fitted fringe is unphysical (non-positive offset, or visibility
        beyond 1 by more than three sigma).
    """
    phases = np.asarray(phases_rad, dtype=np.float64)
    y = np.asarray(counts, dtype=np.float64)
    if phases.ndim != 1 or phases.size < 5:
        raise ValidationError(f"need at least 5 phase points, got {phases.size}")
    if y.shape != phases.shape:
        raise ValidationError("phases and counts must have the same length")
    if not (np.all(np.isfinite(phases)) and np.all(np.isfinite(y))):
        raise ValidationError("phases and counts must be finite")
    if y.min() < 0.0:
        raise ValidationError("counts must be nonnegative")
    if not (math.isfinite(dwell_s) and dwell_s > 0.0):
        raise ValidationError(f"dwell time must be positive, got {dwell_s}")
    span = phases.max() - phases.min()
    if span < math.pi:
        raise ValidationError(
            f"phases span {span:.3f} rad, less than half a period; "
            "the fringe parameters are degenerate"
        )

    x = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    w = 1.0 / np.maximum(y, 1.0)
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(x * sw[:, None], y * sw, rcond=None)
    a0, a1, a2 = coef

    resid = y - x @ coef
    chi2 = float(np.sum(w * resid ** 2))
    dof = phases.size - 3
    red_chi2 = chi2 / dof
    xtwx = x.T @ (x * w[:, None])
    try:
        cov = np.linalg.inv(xtwx) * red_chi2
    except np.linalg.LinAlgError as exc:
        raise FitConvergenceError(f"singular normal equations in fringe fit: {exc}") from exc

    amp = math.hypot(a1, a2)
    if a0 <= 0.0:
        raise FitConvergenceError(f"fringe fit produced non-positive offset {a0:g}")
    vis = amp / a0
    if amp > 1e-12 * a0:
        phase0 = math.atan2(a2, a1)
        g_amp = np.array([0.0, a1 / amp, a2 / amp])
        g_phase = np.array([0.0, -a2 / amp ** 2, a1 / amp ** 2])
        g_vis = np.array([-vis / a0, a1 / (amp * a0), a2 / (amp * a0)])
        amp_sigma = math.sqrt(max(g_amp @ cov @ g_amp, 0.0))
        phase_sigma = math.sqrt(max(g_phase @ cov @ g_phase, 0.0))
        vis_sigma = math.sqrt(max(g_vis @ cov @ g_vis, 0.0))
    else:
        # no measurable modulation: the phase is undefined and the amplitude
        # uncertainty is bounded by the two quadrature components
        phase0 = 0.0
        amp_sigma = math.sqrt(max(cov[1, 1] + cov[2, 2], 0.0))
        phase_sigma = math.pi
        vis_sigma = amp_sigma / a0
    offset_sigma = math.sqrt(max(cov[0, 0], 0.0))

    if vis > 1.0 + 3.0 * vis_sigma + 1e-12:
        raise FitConvergenceError(
            f"fitted visibility {vis:.4f} exceeds 1 by more than three sigma "
            f"({vis_sigma:.2e}); the fringe model does not describe this data"
        )
    return SineFit(
        offset=float(a0),
        amplitude=float(amp),
        phase0_rad=float(phase0),
        visibility=float(vis),
        offset_sigma=float(offset_sigma),
        amplitude_sigma=float(amp_sigma),
        phase0_sigma_rad=float(phase_sigma),
        visibility_sigma=float(vis_sigma),
        reduced_chi2=float(red_chi2),
        n_points=int(phases.size),
        dwell_s=float(dwell_s),
    )


# ---------------------------------------------------------------------------
# erf gate-width fit


def _erf_args(delay_fs, gate_width_fs, center_fs, q):
    tau = np.asarray(delay_fs, dtype=np.float64) - center_fs
    return q * (gate_width_fs - 2.0 * tau), q * (-gate_width_fs - 2.0 * tau)


def erf_gate_model(delay_fs, gate_width_fs, amplitude, center_fs, floor, q):
    """Delay-scan model: scaled erf-difference of the gated Gaussian pair.

    ``q`` bundles the pump and signal widths, ``sqrt(ln 2 / (dp^2 + ds^2))``,
    and is held fixed during fitting.
    """
    u1, u2 = _erf_args(delay_fs, gate_width_fs, center_fs, q)
    return amplitude * (erf(u1) - erf(u2)) + floor


def erf_gate_jacobian(delay_fs, gate_width_fs, amplitude, center_fs, floor, q):
    """Analytic Jacobian of :func:`erf_gate_model`.

    Columns are the partial derivatives with respect to
    ``(gate_width_fs, amplitude, center_fs, floor)`` in that order.
    """
    u1, u2 = _erf_args(delay_fs, gate_width_fs, center_fs, q)
    e1 = np.exp(-u1 ** 2)
    e2 = np.exp(-u2 ** 2)
    d_width = amplitude * q * _TWO_OVER_SQRT_PI * (e1 + e2)
    d_amp = erf(u1) - erf(u2)
    d_center = amplitude * 2.0 * q * _TWO_OVER_SQRT_PI * (e1 - e2)
    d_floor = np.ones_like(e1)
    return np.column_stack([d_width, d_amp, d_center, d_floor])


@dataclass(frozen=True)
class ErfGateFit:
    """Gate width recovered from a delay scan, with fit diagnostics."""

    gate_width_fs: float
    gate_width_sigma_fs: float
    amplitude: float
    amplitude_sigma: float
    center_fs: float
    floor: float
    residual: float
    n_evaluations: int


def fit_erf_gate(
    scan: ScanResult,
    pump_fwhm_fs: float,
    signal_fwhm_fs: float,
) -> ErfGateFit:
    """Estimate the gate width from a delay scan of Gaussian pulses.

    Fits ``amplitude * [erf(q (w - 2 tau)) - erf(q (-w - 2 tau))] + floor``
    to the counts with Poisson weights, ``q`` fixed by the pump and signal
    FWHM values; ``w`` is the gate width.  Initial values come from the data
    (peak, baseline, half-maximum span), so the fit is deterministic.

    Raises
    ------
    FitConvergenceError
        If the solver does not converge within its evaluation budget or the
        fitted amplitude is not significant at three sigma (a scan of pure
        noise has no gate to measure); the message includes the residual.
    """
    if not (math.isfinite(pump_fwhm_fs) and pump_fwhm_fs > 0.0):
        raise ValidationError(f"pump FWHM must be positive, got {pump_fwhm_fs}")
    if not (math.isfinite(signal_fwhm_fs) and signal_fwhm_fs > 0.0):
        raise ValidationError(f"signal FWHM must be positive, got {signal_fwhm_fs}")
    if scan.config.kind != "delay":
        raise ValidationError(f"gate fit needs a delay scan, got kind {scan.config.kind!r}")
    delays = scan.coordinates
    y = scan.counts.astype(np.float64)
    if delays.size < 8:
        raise ValidationError(f"need at least 8 scan points, got {delays.size}")
    q = math.sqrt(math.log(2.0) / (pump_fwhm_fs ** 2 + signal_fwhm_fs ** 2))

    floor0 = float(y.min())
    peak = float(y.max())
    span = float(delays[-1] - delays[0])
    if peak <= floor0:
        raise FitConvergenceError("scan has no peak above its baseline")
    center0 = float(delays[int(np.argmax(y))])
    above = np.nonzero(y - floor0 >= 0.5 * (peak - floor0))[0]
    width0 = max(float(delays[above[-1]] - delays[above[0]]), float(span) / 50.0)
    amp0 = (peak - floor0) / 2.0
    p0 = (width0, amp0, center0, floor0)
    bounds = (
        [1e-6, 0.0, delays[0] - span, 0.0],
        [2.0 * span, np.inf, delays[-1] + span, np.inf],
    )
    sigma = np.sqrt(np.maximum(y, 1.0))

    def model(t, w, a, c, f):
        return erf_gate_model(t, w, a, c, f, q)

    def jac(t, w, a, c, f):
        return erf_gate_jacobian(t, w, a, c, f, q)

    # imported here so that importing this module (and the CLI) does not
    # pay for loading scipy.optimize
    from scipy.optimize import curve_fit

    try:
        popt, pcov, info, *_ = curve_fit(
            model, delays, y, p0=p0, sigma=sigma, bounds=bounds, jac=jac,
            maxfev=2000, full_output=True,
        )
    except RuntimeError as exc:
        raise FitConvergenceError(f"gate fit did not converge: {exc}") from exc
    fitted = model(delays, *popt)
    residual = float(np.linalg.norm(fitted - y) / np.linalg.norm(y))
    perr = np.sqrt(np.abs(np.diag(pcov)))
    w_fit, a_fit, c_fit, f_fit = popt
    if not np.all(np.isfinite(perr)) or a_fit <= 3.0 * perr[1]:
        raise FitConvergenceError(
            f"no significant gate signature: amplitude {a_fit:.3g} "
            f"+/- {perr[1]:.3g}, relative residual {residual:.3g}"
        )
    return ErfGateFit(
        gate_width_fs=float(w_fit),
        gate_width_sigma_fs=float(perr[0]),
        amplitude=float(a_fit),
        amplitude_sigma=float(perr[1]),
        center_fs=float(c_fit),
        floor=float(f_fit),
        residual=residual,
        n_evaluations=int(info["nfev"]),
    )
