"""SVG plots: polyline vertices formatted as the per-vertex loop did."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucspd import svgplot
from ucspd.svgplot import line_plot


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


_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 5e-324]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True))


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
    def test_polylines_match_per_vertex_formatting(self, series):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plot.svg"
            line_plot(path, series, title="t", x_label="x", y_label="y", comment="c")
            text = path.read_text(encoding="utf-8")
        assert re.findall(r'<polyline points="([^"]*)"', text) == _per_vertex_points(series)
