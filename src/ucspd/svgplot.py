"""Minimal static SVG line plots.

The command line emits small vector plots next to its CSV artifacts so a run
can be eyeballed without any plotting stack installed.  Output is plain SVG
text with deterministic number formatting, so identical data produces
identical bytes.  This is intentionally not a charting library: one panel,
shared axes, straight polylines.
"""

from __future__ import annotations

import numpy as np

__all__ = ["line_plot"]

_WIDTH = 640
_HEIGHT = 400
_MARGIN_LEFT = 78
_MARGIN_RIGHT = 24
_MARGIN_TOP = 42
_MARGIN_BOTTOM = 58
_PALETTE = ("#1f6feb", "#d73a49", "#1a7f37", "#8250df", "#bf8700")


def _finite_range(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        return 0.0, 1.0
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        # a unit pad where a tenth of the value is zero or underflows to it
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    return lo, hi


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def line_plot(
    path,
    series,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    comment: str = "",
) -> None:
    """Write one SVG panel with the given ``(x, y, label)`` series.

    ``comment`` is embedded verbatim as an XML comment (used to tag plots
    with the scenario hash).  Silently clips non-finite points.  Raises only
    on I/O problems; callers that must never fail on plotting should wrap
    this themselves.
    """
    if not series:
        raise ValueError("line_plot needs at least one series")
    xs = np.concatenate([np.asarray(s[0], dtype=np.float64) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=np.float64) for s in series])
    x_lo, x_hi = _finite_range(xs)
    y_lo, y_hi = _finite_range(ys)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    # px and py map single ticks and whole series alike: float64 array
    # arithmetic rounds as Python float arithmetic does, so the vertices
    # match the per-vertex expression byte for byte
    def px(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
    ]
    if comment:
        lines.append(f"<!-- {_escape(comment)} -->")
    lines += [
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{_escape(title)}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = px(xv)
        yp = py(yv)
        lines.append(
            f'<line x1="{xp:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{xp:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="#444"/>'
        )
        lines.append(
            f'<text x="{xp:.2f}" y="{_MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{_fmt(xv)}</text>'
        )
        lines.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{yp:.2f}" x2="{_MARGIN_LEFT}" '
            f'y2="{yp:.2f}" stroke="#444"/>'
        )
        lines.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt(yv)}</text>'
        )
    if x_label:
        lines.append(
            f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
            f'text-anchor="middle" font-family="monospace" font-size="12">'
            f"{_escape(x_label)}</text>"
        )
    if y_label:
        cx = 20
        cy = _MARGIN_TOP + plot_h / 2
        lines.append(
            f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
            f'font-family="monospace" font-size="12" '
            f'transform="rotate(-90 {cx} {cy:.1f})">{_escape(y_label)}</text>'
        )
    for index, (x, y, label) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        keep = np.isfinite(x) & np.isfinite(y)
        with np.errstate(over="ignore", invalid="ignore"):
            vertices = px(x[keep]).tolist(), py(y[keep]).tolist()
        pts = " ".join(map("{:.2f},{:.2f}".format, *vertices))
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            ly = _MARGIN_TOP + 16 + 16 * index
            lx = _MARGIN_LEFT + plot_w - 10
            lines.append(
                f'<text x="{lx}" y="{ly}" text-anchor="end" font-family="monospace" '
                f'font-size="11" fill="{color}">{_escape(label)}</text>'
            )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
