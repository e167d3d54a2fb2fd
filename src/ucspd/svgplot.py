"""Minimal static SVG line plots.

The command line emits small vector plots next to its CSV artifacts so a run
can be eyeballed without any plotting stack installed.  Output is plain SVG
text with deterministic number formatting, so identical data produces
identical bytes.  This is intentionally not a charting library: one panel,
shared axes, straight polylines, and every plot has a title, two axis
labels and a label per series.

A polyline with more than ``4 * plot_w`` (2,152) finite points is reduced per
pixel column of the plot area: each column keeps its first, last, lowest and
highest vertex, in their original order (M4; Jugel et al., PVLDB 7(10), 2014).
Of tied vertices it keeps the first lowest and the last highest, ``-0.0``
tying ``0.0``.  That draws the same pixels at the SVG's own width.  The CSV
artifacts next to each plot carry every sample, and identical data still
gives identical bytes.  Each vertex is ``.2f`` of its exact binary value,
rounded half to even, as ``"{:.2f}".format`` writes it: a series whose
vertices all lie in [0, 1000) is written from one byte buffer, and any other
(an overflowing span) one vertex at a time.
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


def _m4(x, y, x_lo: float, x_hi: float, plot_w: int):
    """Keep the first, last, lowest and highest vertex of each pixel column.

    Of tied vertices a column keeps its first lowest and its last highest,
    as a stable sort by y does.  Returns the kept vertices in their
    original order.  Keeps every vertex when a column is not finite (an
    overflowing span) or x decreases anywhere, since a column's vertices
    then need not form one run.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        col = np.floor((x - x_lo) / (x_hi - x_lo) * plot_w)
    if not np.isfinite(col).all() or (x[1:] < x[:-1]).any():
        return x, y
    col = np.minimum(col, plot_w - 1)
    # x does not decrease, so each column is one run of the series
    first = np.flatnonzero(np.r_[True, col[1:] != col[:-1]])
    last = np.r_[first[1:] - 1, col.size - 1]
    size, index = last - first + 1, np.arange(col.size)
    lowest = np.where(y == np.repeat(np.minimum.reduceat(y, first), size), index, col.size)
    highest = np.where(y == np.repeat(np.maximum.reduceat(y, first), size), index, -1)
    keep = np.zeros(col.size, dtype=bool)
    keep[first] = keep[last] = True
    keep[np.minimum.reduceat(lowest, first)] = True
    keep[np.maximum.reduceat(highest, first)] = True
    return x[keep], y[keep]


# .2f in two 4-byte cells whose 0 bytes are dropped: the integer part without
# leading zeros; "." and two fraction digits, then "," after x or " " after y
_digits = np.indices((10, 10, 10)).reshape(3, 1000).T + 48
_integer = np.zeros((1001, 4), dtype=np.uint8)
_integer[:1000, 1:], _integer[1000] = _digits, (49, 48, 48, 48)
_integer[:100, 1] = _integer[:10, 2] = 0
_fraction = np.empty((100, 2, 4), dtype=np.uint8)
_fraction[..., 0], _fraction[..., 1:3], _fraction[..., 3] = 46, _digits[:100, None, 1:], (44, 32)
_INTEGER, _FRACTION = _integer.view(np.uint32)[:, 0], _fraction.view(np.uint32)[..., 0]


def _points(x, y) -> str:
    """``"{:.2f},{:.2f}"`` of each vertex, joined by spaces: from one byte buffer,
    or one at a time if a coordinate is outside [0, 1000), as nan and inf are."""
    v = np.stack([x, y], axis=-1)
    if not ((v < 1000.0) & ~np.signbit(v)).all():
        return " ".join(map("{:.2f},{:.2f}".format, x.tolist(), y.tolist()))
    # .2f rounds the exact v * 100 half to even; p is that product rounded,
    # and p on a half is settled by the sign of its exact error (Dekker's
    # split of v; 100 needs no split)
    p = v * 100.0
    split = v * 134217729.0
    head = split - (split - v)
    error = (head * 100.0 - p) + (v - head) * 100.0
    tie = np.abs(p - np.rint(p)) == 0.5
    cents = np.rint(np.where(tie, p + 0.25 * np.sign(error), p)).astype(np.intp)
    integer, fraction = np.divmod(cents, 100)
    text = np.stack([_INTEGER[integer], _FRACTION[fraction, (0, 1)]], axis=-1)
    text = text.view(np.uint8).ravel()[:-1]
    return text[text != 0].tobytes().decode("ascii")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def line_plot(path, series, title: str, x_label: str, y_label: str, comment: str) -> None:
    """Write one SVG panel with the given ``(x, y, label)`` series.

    ``comment`` is embedded verbatim as an XML comment (used to tag plots
    with the scenario hash); the title and every label are drawn as given.
    Silently clips non-finite points and reduces a long series per pixel
    column (see the module docstring).  Raises on I/O problems and on an
    empty ``series``; callers that must never fail on plotting should wrap
    this themselves.
    """
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
        f"<!-- {_escape(comment)} -->",
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{_escape(title)}</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = px(xv)
        yp = py(yv)
        lines += [
            f'<line x1="{xp:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{xp:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="#444"/>',
            f'<text x="{xp:.2f}" y="{_MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{_fmt(xv)}</text>',
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{yp:.2f}" x2="{_MARGIN_LEFT}" '
            f'y2="{yp:.2f}" stroke="#444"/>',
            f'<text x="{_MARGIN_LEFT - 8}" y="{yp + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{_fmt(yv)}</text>',
        ]
    cx = 20
    cy = _MARGIN_TOP + plot_h / 2
    lines += [
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle" font-family="monospace" font-size="12">'
        f"{_escape(x_label)}</text>",
        f'<text x="{cx}" y="{cy:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 {cx} {cy:.1f})">{_escape(y_label)}</text>',
    ]
    for index, (x, y, label) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        keep = np.isfinite(x) & np.isfinite(y)
        x, y = x[keep], y[keep]
        if x.size > 4 * plot_w:
            x, y = _m4(x, y, x_lo, x_hi, plot_w)
        with np.errstate(over="ignore", invalid="ignore"):
            pts = _points(px(x), py(y))
        lines += [
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>',
            f'<text x="{_MARGIN_LEFT + plot_w - 10}" y="{_MARGIN_TOP + 16 + 16 * index}" '
            f'text-anchor="end" font-family="monospace" '
            f'font-size="11" fill="{color}">{_escape(label)}</text>',
        ]
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
