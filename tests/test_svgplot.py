"""SVG plots: polyline vertices formatted as the per-vertex loop did, also
where a series is written from one byte buffer, and long series reduced
to each pixel column's first, last, lowest and highest vertex, ties kept as a
stable sort keeps them."""

import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import m4_lexsort
from ucspd import svgplot
from ucspd.svgplot import line_plot

_PLOT_W = svgplot._WIDTH - svgplot._MARGIN_LEFT - svgplot._MARGIN_RIGHT


def _per_vertex_points(series):
    """Polyline ``points`` as they were written one vertex at a time."""
    xs = np.concatenate([np.asarray(s[0], dtype=np.float64) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=np.float64) for s in series])
    x_lo, x_hi = svgplot._finite_range(xs)
    y_lo, y_hi = svgplot._finite_range(ys)
    plot_w = svgplot._WIDTH - svgplot._MARGIN_LEFT - svgplot._MARGIN_RIGHT
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_TOP - svgplot._MARGIN_BOTTOM

    def px(x: float) -> float:
        return svgplot._MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return svgplot._MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    points = []
    for x, y, _ in series:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        keep = np.isfinite(x) & np.isfinite(y)
        points.append(" ".join(
            f"{px(float(xi)):.2f},{py(float(yi)):.2f}" for xi, yi in zip(x[keep], y[keep])
        ))
    return points


def _written_points(series):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plot.svg"
        line_plot(path, series, "t", "x", "y", "c")
        return re.findall(r'<polyline points="([^"]*)"', path.read_text(encoding="utf-8"))


def _columns(x):
    """Pixel column of each vertex, one vertex at a time."""
    x_lo, x_hi = svgplot._finite_range(x)
    return [
        min(math.floor((xi - x_lo) / (x_hi - x_lo) * _PLOT_W), _PLOT_W - 1) for xi in x.tolist()
    ]


def _column_summary(x, y):
    """First, last, lowest and highest y of each pixel column."""
    summary = {}
    for column, yi in zip(_columns(x), y.tolist()):
        first, _, lo, hi = summary.get(column, (yi, yi, yi, yi))
        summary[column] = (first, yi, min(lo, yi), max(hi, yi))
    return summary


@st.composite
def _long_series(draw):
    """More points than M4 keeps: x does not decrease, y is any finite value."""
    n = draw(st.integers(4 * _PLOT_W + 1, 6000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # repeated x and heavy-tailed gaps: empty columns next to crowded ones
    gaps = rng.pareto(draw(st.floats(0.5, 5.0)), n) * rng.integers(0, 2, n)
    x = draw(st.floats(-1e6, 1e6)) + np.cumsum(gaps * draw(st.floats(1e-3, 1e3)))
    # y on few or many levels, for ties, with arbitrary finite values dropped in
    y = rng.integers(0, draw(st.integers(1, 1000)), n).astype(np.float64)
    spikes = draw(hnp.arrays(
        np.float64, n, elements=st.floats(allow_nan=False, allow_infinity=False),
        fill=st.just(math.nan),
    ))
    return x, np.where(np.isnan(spikes), y, spikes)


def _signed_zero_ties():
    """Eight vertices a column, tied lowest at -0.0 then 0.0 and tied highest at 2.0."""
    x = np.repeat(np.arange(300, dtype=np.float64), 8)
    y = np.tile([1.0, -0.0, 0.0, 2.0, 2.0, 0.0, -0.0, 1.0], 300)
    return x, y


_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 5e-324]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True))


def _on_halves(n):
    """x in sixteenths and y in 32nds of [0, 1]: pixel coordinates 78 + 33.625 j
    and 358 - 9.875 j, many of them exact halves of the .2f rounding."""
    j = np.arange(n)
    return (j % 17 / 16).tolist(), (j % 33 / 32).tolist()


_OUTSIDE = [-0.0, -5e-324, 1000.0, 1e300, math.nan, math.inf, -math.inf]


@st.composite
def _coordinates(draw):
    """x and y rows of a polyline's pixel coordinates, from one vertex on:
    halves of the .2f rounding in binary (k / 8, exact) and in decimal
    (k / 100 + 0.005, just off a binary half), one ulp either side of them,
    or anywhere in [0, 1000); now and then one coordinate outside [0, 1000)."""
    n = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    halves = np.where(
        rng.integers(0, 2, (2, n)) == 1,
        rng.integers(0, 8 * 1000, (2, n)) / 8,
        (rng.integers(0, 100 * 1000, (2, n)) + 0.5) / 100,
    )
    xy = np.nextafter(halves, halves + rng.integers(-1, 2, (2, n)))
    xy = np.where(rng.random((2, n)) < draw(st.floats(0.0, 1.0)), rng.random((2, n)) * 1000, xy)
    if draw(st.booleans()):
        xy[draw(st.integers(0, 1)), draw(st.integers(0, n - 1))] = draw(st.sampled_from(_OUTSIDE))
    return xy


def _exact_halves():
    """Vertices on .2f halves, one ulp either side, and at the bounds of [0, 1000)."""
    halves = [33.625, 33.875, 0.125, 0.005, 0.015, 100.005, 999.995]
    row = halves + [math.nextafter(v, to) for v in halves for to in (0.0, 1000.0)]
    row += [0.0, 5e-324, math.nextafter(1000.0, 0.0)]
    return np.array([row, row[::-1]])


@st.composite
def _series(draw):
    series = []
    for index in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 30))
        x = draw(st.lists(_FLOATS, min_size=n, max_size=n))
        y = draw(st.one_of(
            st.lists(_FLOATS, min_size=n, max_size=n),
            st.just([0.0] * n),
        ))
        series.append((x, y, f"s{index}"))
    return series


class TestLinePlot:
    @settings(max_examples=200, deadline=None)
    @given(series=_series())
    @example(series=[([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], "zeros")])
    @example(series=[([5e-324], [5e-324], "subnormal")])
    @example(series=[([-1e308, 1e308], [1.7e308, -1.7e308], "overflowing span")])
    @example(series=[(*_on_halves(1), "one"), (*_on_halves(64), "many")])
    @example(series=[(_EDGE_FLOATS + _on_halves(64)[0], _on_halves(73)[1], "edge floats")])
    @example(series=[
        ((np.linspace(-1.0, 1.0, 64) * 1e308).tolist(), _on_halves(64)[1], "overflowing span")
    ])
    def test_polylines_match_per_vertex_formatting(self, series):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plot.svg"
            line_plot(path, series, "t", "x", "y", "c")
            text = path.read_text(encoding="utf-8")
        assert re.findall(r'<polyline points="([^"]*)"', text) == _per_vertex_points(series)

    @settings(max_examples=200, deadline=None)
    @given(xy=_coordinates())
    @example(xy=_exact_halves())
    def test_points_of_any_length_match_per_vertex_formatting(self, xy):
        x, y = xy
        expected = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x.tolist(), y.tolist()))
        assert svgplot._points(x, y) == expected

    @settings(max_examples=40, deadline=None)
    @given(data=_long_series())
    @example(data=_signed_zero_ties())
    def test_long_series_keep_each_columns_first_last_lowest_and_highest(self, data):
        x, y = data
        bounds = (*svgplot._finite_range(x), _PLOT_W)
        kept_x, kept_y = svgplot._m4(x, y, *bounds)
        # the tied vertex a column keeps is the one a stable sort by y keeps,
        # compared by bytes so that -0.0 and 0.0 differ
        expected = [a.tobytes() for a in m4_lexsort(x, y, *bounds)]
        assert [kept_x.tobytes(), kept_y.tobytes()] == expected
        assert max(Counter(_columns(kept_x)).values()) <= 4
        assert _column_summary(kept_x, kept_y) == _column_summary(x, y)
        # the kept vertices span the same axis ranges, so they format alike
        assert _written_points([(x, y, "s")]) == _per_vertex_points([(kept_x, kept_y, "s")])

    def test_series_at_the_threshold_keeps_every_vertex(self):
        # eight vertices in each used column: one more point would drop half
        x = np.repeat(np.arange(4 * _PLOT_W // 8, dtype=np.float64), 8)
        y = np.random.default_rng(0).normal(size=x.size)
        assert x.size == 4 * _PLOT_W
        assert _written_points([(x, y, "s")]) == _per_vertex_points([(x, y, "s")])

    @pytest.mark.parametrize("case", ["x decreases once", "overflowing span"])
    def test_long_series_that_m4_cannot_split_keep_every_vertex(self, case):
        n = 3000
        if case == "x decreases once":
            x = np.repeat(np.arange(n // 10, dtype=np.float64), 10)
            x[[1500, 1510]] = x[[1510, 1500]]
        else:
            x = np.linspace(-1.0, 1.0, n) * 1e308
        y = np.random.default_rng(1).normal(size=n)
        assert _written_points([(x, y, "s")]) == _per_vertex_points([(x, y, "s")])
