"""Shared independent oracles and frozen expected values.

Everything here is computed from closed forms and scipy routines that do not
touch the package code paths under test: the Gaussian-CDF expression for a
Gaussian convolved with a rectangle, the erf difference of a Gaussian
delay scan, direct quadrature for convolution peaks, scipy's ``curve_fit``
as the reference for the gate fit, a stable sort as the reference for the
plots' per-column reduction, a loop over the powers as the reference for the
power list, PyYAML's safe loader as the reference for the scenario reader,
and plain arithmetic for rates and limits.
The frozen numbers were evaluated once with the helpers in this module and
are asserted against the library.
"""

import math
import re

import numpy as np
import yaml
from scipy.optimize import brentq, curve_fit
from scipy.special import erf
from scipy.stats import norm

SQRT8LN2 = 2.3548200450309493


def gauss_rect_fwhm_oracle(gauss_fwhm: float, rect_width: float) -> float:
    """Width of Gaussian (x) rect from the Gaussian CDF closed form.

    The convolution of a unit Gaussian with a rectangle of full width w is
    proportional to Phi((t + w/2)/s) - Phi((t - w/2)/s) with s the Gaussian
    standard deviation.  The peak sits at t = 0, so the FWHM follows from a
    root bracket on the right half-axis.
    """
    s = gauss_fwhm / SQRT8LN2
    half_w = 0.5 * rect_width

    def profile(t):
        return norm.cdf((t + half_w) / s) - norm.cdf((t - half_w) / s)

    target = 0.5 * profile(0.0)
    right = brentq(lambda t: profile(t) - target, 0.0, half_w + 6.0 * s, xtol=1e-12)
    return 2.0 * right


def analytic_response(t_fs, pump_fwhm_fs, signal_fwhm_fs, gate_width_fs):
    """Closed-form delay scan of a Gaussian signal through the gate.

    For Gaussian pump and signal intensity profiles the measured curve is

        erf(q * (w - 2 t)) - erf(q * (-w - 2 t)),

    with ``w`` the gate width and ``q = sqrt(ln 2 / (dp^2 + ds^2))``
    built from the two FWHM values.  The result is symmetric in ``t`` and
    peaks at zero delay at ``2 erf(q w)``.  A scalar delay gives a float, an
    array of delays an array of the same shape.
    """
    q = math.sqrt(math.log(2.0) / (pump_fwhm_fs ** 2 + signal_fwhm_fs ** 2))
    t = np.asarray(t_fs, dtype=np.float64)
    w = gate_width_fs
    out = erf(q * (w - 2.0 * t)) - erf(q * (-w - 2.0 * t))
    return float(out) if out.ndim == 0 else out


def erf_gate_curve_fit(delays, counts, pump_fwhm_fs, signal_fwhm_fs):
    """Reference gate fit: scipy's bounded ``curve_fit`` (trust region reflective).

    Fits ``a [erf(q (w - 2 (t - c))) - erf(q (-w - 2 (t - c)))] + f`` with
    Poisson weights ``1 / max(counts, 1)`` and an analytic Jacobian, from
    the peak, baseline and half-maximum span of the counts, within the
    bounds ``fit_erf_gate`` uses.  Returns ``(popt, sigma)`` for
    ``(w, a, c, f)``, sigma from the covariance scaled by the reduced
    chi-square.
    """
    t = np.asarray(delays, dtype=np.float64)
    y = np.asarray(counts, dtype=np.float64)
    q = math.sqrt(math.log(2.0) / (pump_fwhm_fs ** 2 + signal_fwhm_fs ** 2))

    def args(w, c):
        return q * (w - 2.0 * (t - c)), q * (-w - 2.0 * (t - c))

    def model(_, w, a, c, f):
        u1, u2 = args(w, c)
        return a * (erf(u1) - erf(u2)) + f

    def jacobian(_, w, a, c, f):
        u1, u2 = args(w, c)
        e1, e2 = np.exp(-u1 ** 2), np.exp(-u2 ** 2)
        slope = a * q * 2.0 / math.sqrt(math.pi)
        return np.column_stack(
            [slope * (e1 + e2), erf(u1) - erf(u2), 2.0 * slope * (e1 - e2), np.ones_like(t)]
        )

    floor, peak, span = y.min(), y.max(), t[-1] - t[0]
    above = np.nonzero(y - floor >= 0.5 * (peak - floor))[0]
    p0 = (max(t[above[-1]] - t[above[0]], span / 50.0), (peak - floor) / 2.0,
          t[np.argmax(y)], floor)
    bounds = ([1e-6, 0.0, t[0] - span, 0.0], [2.0 * span, np.inf, t[-1] + span, np.inf])
    popt, pcov = curve_fit(model, t, y, p0=p0, sigma=np.sqrt(np.maximum(y, 1.0)),
                           bounds=bounds, jac=jacobian, maxfev=2000)
    return popt, np.sqrt(np.diag(pcov))


def power_list_loop(start_mw, stop_mw, step_mw):
    """Reference power list: ``start + k * step`` for k = 0, 1, ... up to the stop.

    Each power is kept while it is at most 1e-12 relative past the stop, so
    the rounded power itself decides where the list ends.
    """
    out = []
    k = 0
    while True:
        p = start_mw + k * step_mw
        if p > stop_mw * (1.0 + 1e-12):
            return out
        out.append(p)
        k += 1


class ScenarioLoader(yaml.SafeLoader):
    """PyYAML's safe loader, refusing duplicate keys and reading exponent floats such as ``1e20``.

    The scenario reader gives this loader's tree or refuses.  PyYAML keeps
    the last of two equal keys in a mapping; this loader refuses the second
    with its line.  PyYAML also follows YAML 1.1, whose floats need a dot in
    the mantissa and a sign in the exponent, so ``1e20`` and ``1.0e20`` would
    load as strings.  The added resolver is tried after the YAML 1.1 ones and
    only matches plain scalars that were strings before.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode):
                if (key.tag, key.value) in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key.value!r}", key.start_mark,
                    )
                seen.add((key.tag, key.value))
        return super().construct_mapping(node, deep)


ScenarioLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def m4_lexsort(x, y, x_lo, x_hi, plot_w):
    """Reference M4: each pixel column's first, last, lowest and highest vertex.

    The columns' lowest and highest vertices come from a stable sort by
    column, then y (``np.lexsort``), so of tied vertices, ``-0.0`` and
    ``0.0`` included, a column keeps its first lowest and its last highest.
    Keeps every vertex when a column is not finite or x decreases anywhere.
    Returns the kept vertices in their original order.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        col = np.floor((x - x_lo) / (x_hi - x_lo) * plot_w)
    if not np.isfinite(col).all() or (x[1:] < x[:-1]).any():
        return x, y
    col = np.minimum(col, plot_w - 1)
    # x does not decrease, so each column is one run, at the same positions
    # in the lexsort order (by column, then y) as in the series itself
    first = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    last = np.r_[first[1:] - 1, col.size - 1]
    by_y = np.lexsort((y, col))
    keep = np.zeros(col.size, dtype=bool)
    keep[first] = keep[last] = keep[by_y[first]] = keep[by_y[last]] = True
    return x[keep], y[keep]

# FWHM of a 200 fs Gaussian pump gated by 204.3 fs/mm rectangles of 1/2/3 mm.
GATE_FWHM_BY_LENGTH = {
    1.0: 252.16220473472413,
    2.0: 412.03873225053655,
    3.0: 612.9656479896663,
}

# Published resolution values the model has to stay within 5 percent of.
PUBLISHED_FWHM_BY_LENGTH = {1.0: 255.0, 2.0: 415.0, 3.0: 591.0}

# FWHM of the closed-form delay scan: 200 fs pump, 240 fs signal, 2 mm gate.
SCAN_FWHM_L2_SIGNAL240 = 449.45022991351004

# erf difference at zero delay for the same configuration:
# q = sqrt(ln 2 / (200^2 + 240^2)), peak = 2 erf(q * 408.6).
Q_200_240 = 0.002664942369659426
ERF_QW_L2 = 0.8764227574873554
PEAK_2ERF_L2 = 1.7528455149747109

# Peak of Gaussian(hypot(200, 240)) (x) rect(408.6): sqrt(pi/a) erf(sqrt(a) w/2)
# with a = 4 ln 2 / fwhm^2, from direct quadrature.
GAUSS312_RECT408_PEAK = 291.45449995757656

# External efficiency chains: eta_int * 0.41 * 0.85 * 0.94.
ETA_EXT_BY_LENGTH = {
    1.0: 0.019982989999999996,  # eta_int = 6.1 %
    2.0: 0.03308659,            # eta_int = 10.1 %
    3.0: 0.033414179999999995,  # eta_int = 10.2 %
}

# Detection limits 3 sqrt(N T) / (T R eta_ext) at T = 1 s, R = 76.3 MHz for
# the measured noise rates {1910, 800, 700} cps, and the published values
# they must match within 3 percent.
DETECTION_LIMIT_BY_LENGTH = {
    1.0: 8.599098612037491e-05,
    2.0: 3.361163977494053e-05,
    3.0: 3.1132566825476956e-05,
}
PUBLISHED_LIMIT_BY_LENGTH = {1.0: 8.6e-05, 2.0: 3.3e-05, 3.0: 3.1e-05}

NOISE_CPS_BY_LENGTH = {1.0: 1910.0, 2.0: 800.0, 3.0: 700.0}
ETA_INT_BY_LENGTH = {1.0: 0.061, 2.0: 0.101, 3.0: 0.102}

# 76.3e6 * 0.1 * 0.0331, the example operating point rate.
RATE_AT_PEAK_CPS = 252552.99999999997
