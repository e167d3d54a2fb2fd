"""Waveform construction, convolution, width estimation, and CSV round trips."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convolution_paths import PATHS, both_paths, forced_path
from oracles import GATE_FWHM_BY_LENGTH, GAUSS312_RECT408_PEAK, gauss_rect_fwhm_oracle
from waveform_csv import read_csv
from waveform_measures import area, peak_time_fs
from ucspd import waveform
from ucspd.errors import GridMismatchError, NumericalError, ValidationError
from ucspd.waveform import (
    ARRAY_MIN_ROWS,
    FFT_THRESHOLD,
    SampledWaveform,
    TimeGrid,
    convolve,
    convolver,
    csv_text,
    fast_fft_len,
    fwhm,
    gaussian_waveform,
    rect_waveform,
    resample,
    write_csv,
)

class TestTimeGrid:
    def test_times_are_uniform(self):
        g = TimeGrid(-5.0, 0.5, 21)
        t = g.times()
        assert t[0] == -5.0
        assert np.allclose(np.diff(t), 0.5)
        assert t[-1] == pytest.approx(5.0)

    # half spans from under one step to past MAX_SAMPLES / 2 steps, at any
    # scale; the sample count checked is the count allocated, or inf
    @settings(deadline=None)
    @given(dt=st.floats(1e-300, 1e300), steps=st.floats(1e-3, 2e6))
    @example(dt=3.0, steps=1000.0 / 3.0)
    @example(dt=1.0, steps=499999.5)
    @example(dt=1.0, steps=499999.4)
    @example(dt=1.0, steps=math.inf)
    def test_symmetric_covers_span(self, dt, steps):
        half_span = dt * steps
        with mock.patch.object(waveform, "check_sample_count",
                               wraps=waveform.check_sample_count) as check:
            try:
                g = TimeGrid.symmetric(half_span, dt)
            except ValidationError:
                count = check.call_args.args[0]
                assert count > waveform.MAX_SAMPLES
                assert count == math.inf or count == math.floor(count)
                return
        assert check.call_args.args[0] == g.n
        assert g.n % 2 == 1 and g.n <= waveform.MAX_SAMPLES
        assert g.t0_fs == -(g.n // 2) * dt
        t = g.times()
        assert t[0] == -t[-1]
        # a span under 1e-12 steps past a whole number of steps ends at that number
        assert t[-1] >= half_span * (1.0 - 2e-12)

    def test_refusal_names_the_exact_sample_count(self):
        with pytest.raises(ValidationError) as refused:
            TimeGrid.symmetric(5.0e7, 1.0)
        assert str(refused.value) == (
            "a time grid at 1.0 fs spacing needs 100000001 samples, more than the 1000000 allowed"
        )


class TestSampledWaveform:
    def test_samples_are_read_only(self):
        w = SampledWaveform(0.0, 1.0, [0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            w.samples[0] = 5.0

    def test_source_array_is_copied(self):
        src = np.array([0.0, 1.0, 2.0])
        w = SampledWaveform(0.0, 1.0, src)
        src[1] = 99.0
        assert w.samples[1] == 1.0

    def test_intensity_rejects_negative_samples(self):
        with pytest.raises(ValidationError):
            SampledWaveform(0.0, 1.0, [0.0, -0.5, 1.0])

    def test_rejects_nonfinite_and_short(self):
        with pytest.raises(ValidationError):
            SampledWaveform(0.0, 1.0, [1.0, math.inf])
        with pytest.raises(ValidationError):
            SampledWaveform(0.0, 1.0, [1.0])

    def test_sample_at_interpolates_and_fills(self):
        w = SampledWaveform(0.0, 1.0, [0.0, 2.0, 4.0])
        assert w.sample_at(0.5) == pytest.approx(1.0)
        assert w.sample_at(-3.0) == 0.0
        assert w.sample_at(10.0) == 0.0

    def test_area_and_peak(self):
        w = SampledWaveform(-1.0, 0.5, [0.0, 1.0, 3.0, 1.0, 0.0])
        assert area(w) == pytest.approx(2.5)
        assert w.peak_value == 3.0
        assert peak_time_fs(w) == pytest.approx(0.0)


class TestGaussian:
    def test_peak_value_and_position(self):
        g = gaussian_waveform(240.0, TimeGrid.symmetric(1200.0, 1.0))
        assert g.peak_value == pytest.approx(1.0, abs=1e-12)
        assert abs(peak_time_fs(g)) <= g.dt_fs

    def test_half_maximum_at_half_width(self):
        g = gaussian_waveform(240.0, TimeGrid(-240.0, 120.0, 5))
        # samples fall exactly on +/- fwhm/2
        assert g.samples[1] == pytest.approx(0.5, rel=1e-12)
        assert g.samples[3] == pytest.approx(0.5, rel=1e-12)

    def test_value_at_fwhm_offset(self):
        # at t - center = fwhm the exponent is -4 ln 2, i.e. 2**-4
        g = gaussian_waveform(240.0, TimeGrid(-480.0, 240.0, 5))
        assert g.samples[3] == pytest.approx(0.0625, rel=1e-12)

    def test_fwhm_matches_requested_width(self):
        g = gaussian_waveform(200.0, TimeGrid.symmetric(1000.0, 1.0))
        assert fwhm(g) == pytest.approx(200.0, abs=0.5)

    def test_offcenter_peak_tracks_center(self):
        g = gaussian_waveform(100.0, TimeGrid.symmetric(1000.0, 1.0), center_fs=333.0)
        assert abs(peak_time_fs(g) - 333.0) <= g.dt_fs


class TestRect:
    def test_inside_outside_values(self):
        r = rect_waveform(408.6, TimeGrid.symmetric(600.0, 1.0))
        assert r.sample_at(0.0) == 1.0
        assert r.sample_at(300.0) == 0.0

    def test_area_within_one_sample(self):
        grid = TimeGrid.symmetric(600.0, 1.0)
        r = rect_waveform(408.6, grid)
        assert abs(area(r) - 408.6) <= grid.dt_fs


class TestConvolve:
    def test_gaussian_pair_widths_add_in_quadrature(self):
        grid = TimeGrid.symmetric(1200.0, 1.0)
        a = gaussian_waveform(200.0, grid)
        b = gaussian_waveform(240.0, grid)
        c = convolve(a, b)
        expected = math.hypot(200.0, 240.0)  # 312.41
        assert fwhm(c) == pytest.approx(expected, rel=0.01)

    def test_output_grid_contract(self):
        a = SampledWaveform(-3.0, 0.5, np.ones(8))
        b = SampledWaveform(2.0, 0.5, np.ones(5))
        c = convolve(a, b)
        assert c.t0_fs == pytest.approx(-1.0)
        assert c.n == 12
        assert c.dt_fs == 0.5

    def test_delta_identity(self):
        grid = TimeGrid.symmetric(800.0, 1.0)
        f = gaussian_waveform(240.0, grid)
        k = 10
        d = np.zeros(2 * k + 1)
        d[k] = 1.0 / grid.dt_fs  # unit area spike
        delta = SampledWaveform(-k * grid.dt_fs, grid.dt_fs, d)
        c = convolve(f, delta)
        assert np.allclose(c.samples[k:k + f.n], f.samples, rtol=1e-3, atol=1e-12)

    def test_peak_of_gaussian_rect_matches_quadrature(self):
        grid = TimeGrid.symmetric(1500.0, 1.0)
        g = gaussian_waveform(math.hypot(200.0, 240.0), grid)
        r = rect_waveform(408.6, grid)
        c = convolve(g, r)
        assert c.peak_value == pytest.approx(GAUSS312_RECT408_PEAK, rel=1e-3)

    def test_area_preserved_with_unit_area_kernel(self):
        grid = TimeGrid.symmetric(1000.0, 1.0)
        f = gaussian_waveform(313.0, grid, center_fs=40.0)
        kern = gaussian_waveform(150.0, grid)
        kern = SampledWaveform(kern.t0_fs, kern.dt_fs, kern.samples / area(kern))
        assert area(convolve(f, kern)) == pytest.approx(area(f), rel=1e-3)

    def test_mismatched_spacing_raises(self):
        a = SampledWaveform(0.0, 1.0, np.ones(4))
        b = SampledWaveform(0.0, 2.0, np.ones(4))
        with pytest.raises(GridMismatchError):
            convolve(a, b)

    def test_direct_and_fft_agree(self):
        rng = np.random.default_rng(20260815)
        for n in (64, 700, 1500):
            a = SampledWaveform(0.0, 1.0, rng.random(n) + 0.1)
            b = SampledWaveform(-5.0, 1.0, rng.random(n // 2 + 3) + 0.1)
            direct, fft = both_paths(convolve, a, b)
            scale = np.abs(direct.samples).max()
            assert np.abs(direct.samples - fft.samples).max() <= 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        n_a=st.integers(2, 1400),
        n_b=st.integers(2, 700),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    # output lengths on both sides of FFT_THRESHOLD (1024 = 2^10) and of the
    # 5-smooth lengths 1080 and 2000 that the FFT pads to
    @example(n_a=1000, n_b=24, seed=0)
    @example(n_a=1000, n_b=25, seed=1)
    @example(n_a=1000, n_b=26, seed=2)
    @example(n_a=1000, n_b=81, seed=3)
    @example(n_a=1000, n_b=82, seed=4)
    @example(n_a=1400, n_b=601, seed=5)
    @example(n_a=1400, n_b=602, seed=6)
    def test_direct_and_fft_agree_for_any_lengths(self, n_a, n_b, seed):
        rng = np.random.default_rng(seed)
        a = SampledWaveform(0.0, 1.0, rng.random(n_a))
        b = SampledWaveform(3.0, 1.0, rng.random(n_b))
        direct, fft = both_paths(convolve, a, b)
        assert fft.n == direct.n == n_a + n_b - 1
        assert fft.t0_fs == direct.t0_fs
        scale = np.abs(direct.samples).max()
        assert np.abs(direct.samples - fft.samples).max() <= 1e-9 * scale

    def test_commutative_and_linear(self):
        rng = np.random.default_rng(7)
        a = SampledWaveform(1.0, 0.5, rng.random(40))
        b = SampledWaveform(-2.0, 0.5, rng.random(25))
        c = SampledWaveform(-2.0, 0.5, rng.random(25))
        ab = convolve(a, b)
        ba = convolve(b, a)
        assert ab.t0_fs == ba.t0_fs
        assert np.allclose(ab.samples, ba.samples, rtol=1e-12, atol=1e-12)
        lin = convolve(a, SampledWaveform(-2.0, 0.5, 2.0 * b.samples + 3.0 * c.samples))
        ref = 2.0 * convolve(a, b).samples + 3.0 * convolve(a, c).samples
        assert np.allclose(lin.samples, ref, rtol=1e-10, atol=1e-10)

    def test_intensity_output_stays_nonnegative(self):
        grid = TimeGrid.symmetric(2000.0, 1.0)  # large enough to take the FFT path
        a = gaussian_waveform(50.0, grid)
        b = rect_waveform(10.0, grid)
        c = convolve(a, b)
        assert c.samples.min() >= 0.0

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("n,m,start,size", [(50, 7, 0, 56), (50, 8, 4, 50), (30, 41, 20, 30),
                                                (1000, 30, 15, 1000), (1200, 5, 1203, 1)])
    def test_convolver_is_a_slice_of_the_full_sum(self, path, n, m, start, size):
        rng = np.random.default_rng(n + m)
        kernel, u = rng.random(m), rng.random(n)
        with forced_path(path):
            out = convolver(kernel, n, start, size)(u)
        full = np.convolve(u, kernel)
        assert out.shape == (size,)
        assert np.allclose(out, full[start:start + size], rtol=1e-12, atol=1e-12 * full.max())


class TestFastFftLen:
    def test_matches_brute_force(self):
        limit = 5000
        smooth = sorted(
            2 ** a * 3 ** b * 5 ** c
            for a in range(14) for b in range(9) for c in range(7)
            if 2 ** a * 3 ** b * 5 ** c < 2 * limit
        )
        for n in range(1, limit + 1):
            expected = smooth[np.searchsorted(smooth, n)]
            assert fast_fft_len(n) == expected, n
        assert fast_fft_len(FFT_THRESHOLD) == FFT_THRESHOLD
        assert fast_fft_len(FFT_THRESHOLD + 1) == 1080


class TestFwhm:
    def test_rect_width_recovered(self):
        r = rect_waveform(600.0, TimeGrid.symmetric(900.0, 1.0))
        assert fwhm(r) == pytest.approx(600.0, abs=1.0)

    def test_gate_convolution_matches_cdf_oracle(self):
        grid = TimeGrid.symmetric(900.0, 1.0)
        c = convolve(gaussian_waveform(200.0, grid),
                     rect_waveform(204.3, grid))
        oracle = gauss_rect_fwhm_oracle(200.0, 204.3)
        assert oracle == pytest.approx(GATE_FWHM_BY_LENGTH[1.0], abs=1e-6)
        assert fwhm(c) == pytest.approx(oracle, abs=2.0)

    def test_invariant_under_scale_and_shift(self):
        grid = TimeGrid.symmetric(800.0, 1.0)
        base = convolve(gaussian_waveform(150.0, grid),
                        rect_waveform(300.0, grid))
        ref = fwhm(base)
        scaled = SampledWaveform(base.t0_fs, base.dt_fs, 123.4 * base.samples)
        assert fwhm(scaled) == pytest.approx(ref, rel=1e-12)
        assert fwhm(base.shifted(517.0)) == pytest.approx(ref, rel=1e-12)

    def test_monotone_in_gate_width(self):
        grid = TimeGrid.symmetric(3000.0, 1.0)
        widths = [fwhm(convolve(gaussian_waveform(200.0, grid),
                                rect_waveform(w, grid)))
                  for w in (100.0, 300.0, 900.0, 2000.0)]
        assert all(w1 < w2 for w1, w2 in zip(widths, widths[1:]))

    def test_narrow_and_wide_gate_limits(self):
        g = 200.0
        grid = TimeGrid.symmetric(3000.0, 1.0)
        narrow = fwhm(convolve(gaussian_waveform(g, grid),
                               rect_waveform(g / 10.0, grid)))
        wide = fwhm(convolve(gaussian_waveform(g, grid),
                             rect_waveform(10.0 * g, grid)))
        assert narrow == pytest.approx(g, rel=0.02)
        assert wide == pytest.approx(10.0 * g, rel=0.02)

    # a Gaussian centered on an edge of the grid has no crossing on that side
    @pytest.mark.parametrize("t0_fs, message", [
        (0.0, "waveform is still at or above half maximum at the first sample; "
              "width is unbounded on this grid"),
        (-600.0, "waveform is still at or above half maximum at the last sample; "
                 "width is unbounded on this grid"),
    ], ids=["first", "last"])
    def test_unbounded_width_raises(self, t0_fs, message):
        g = gaussian_waveform(200.0, TimeGrid(t0_fs, 1.0, 601))
        with pytest.raises(NumericalError) as err:
            fwhm(g)
        assert str(err.value) == message

    def test_all_zero_raises(self):
        w = SampledWaveform(0.0, 1.0, np.zeros(10))
        with pytest.raises(NumericalError):
            fwhm(w)


class TestResample:
    def test_onto_finer_grid_preserves_shape(self):
        grid = TimeGrid.symmetric(600.0, 4.0)
        g = gaussian_waveform(240.0, grid)
        fine = resample(g, TimeGrid.symmetric(600.0, 1.0))
        assert fwhm(fine) == pytest.approx(240.0, rel=0.01)
        assert fine.peak_value == pytest.approx(1.0, rel=1e-3)

    def test_outside_span_gets_fill(self):
        w = SampledWaveform(0.0, 1.0, [1.0, 1.0, 1.0])
        wide = resample(w, TimeGrid(-5.0, 1.0, 12))
        assert wide.samples[0] == 0.0
        assert wide.samples[-1] == 0.0


class TestCsv:
    def test_round_trip(self, tmp_path):
        grid = TimeGrid.symmetric(500.0, 1.0)
        w = gaussian_waveform(240.0, grid, center_fs=12.0)
        path = tmp_path / "wave.csv"
        write_csv(path, w, metadata={"scenario_hash": "abc123def456"})
        back, meta = read_csv(path)
        assert meta["scenario_hash"] == "abc123def456"
        assert back.n == w.n
        assert back.t0_fs == pytest.approx(w.t0_fs, abs=1e-6)
        assert back.dt_fs == pytest.approx(w.dt_fs, rel=1e-9)
        assert np.allclose(back.samples, w.samples, rtol=1e-8, atol=1e-12)

    def test_reader_rejects_nonuniform_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_fs,value\n0,1\n1,2\n2.5,3\n")
        with pytest.raises(ValidationError):
            read_csv(path)

    def test_reader_rejects_decreasing_times(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_fs,value\n2,1\n1,2\n0,3\n")
        with pytest.raises(ValidationError):
            read_csv(path)

    def test_reader_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,counts\n0,1\n1,2\n")
        with pytest.raises(ValidationError):
            read_csv(path)

    def test_reader_rejects_bad_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_fs,value\n0,1\n1,oops\n")
        with pytest.raises(ValidationError):
            read_csv(path)

    def test_values_written_with_nine_digits(self, tmp_path):
        w = SampledWaveform(0.0, 1.0, [0.123456789123, 1.0, 0.0])
        path = tmp_path / "w.csv"
        write_csv(path, w, {})
        text = path.read_text()
        assert "0.123456789" in text


def _per_cell_rows(columns):
    """Rows as tables were formatted cell by cell before ``csv_text``."""
    return [
        ",".join(str(c) if isinstance(c, (int, np.integer)) else f"{float(c):.9g}" for c in row)
        for row in zip(*columns)
    ]


_EDGE_FLOATS = [-0.0, math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, -1e-300]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True))
_INTS = st.integers(-(2 ** 63), 2 ** 63 - 1)
# whole numbers on both sides of 1e9, where {:.9g} starts writing an exponent
_WHOLE = st.one_of(
    st.sampled_from([999999999.0, -999999999.0, 1e9, -1e9, 0.0]),
    st.integers(-999999999, 999999999).map(float),
)
# one of these keeps a column of whole numbers from being written as integers
_NOT_INTEGER_TEXT = st.one_of(
    st.sampled_from([-0.0, math.nan, math.inf, 0.5, -2.5]),
    st.floats(-1e9, 1e9).filter(lambda x: not x.is_integer()),
)


@st.composite
def _float_values(draw, n):
    if not draw(st.booleans()):
        return draw(st.lists(_FLOATS, min_size=n, max_size=n))
    values = draw(st.lists(_WHOLE, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = draw(_NOT_INTEGER_TEXT)
    return values


@st.composite
def _columns(draw):
    n = draw(st.integers(0, 20))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["int", "float", "list"]), min_size=1, max_size=4)):
        if kind == "int":
            columns.append(np.array(draw(st.lists(_INTS, min_size=n, max_size=n)), dtype=np.int64))
        else:
            values = draw(_float_values(n))
            columns.append(values if kind == "list" else np.array(values, dtype=np.float64))
    return columns


def _cut(rows):
    """``csv_text`` writing tables from ``rows`` rows on from one byte buffer."""
    return mock.patch.object(waveform, "ARRAY_MIN_ROWS", rows)


def _ulps(value, k):
    """``value`` and its neighbours within ``k`` ulp."""
    near = [value]
    for to in (-math.inf, math.inf):
        step = value
        for _ in range(k):
            step = math.nextafter(step, to)
            near.append(step)
    return near


# every power of ten from 1e-14 to 1e9 and its neighbours within 3 ulp;
# decimal halves (k + 0.5) 10**j with k of 9 digits, doubles just off the
# half; binary halves, which are exactly on it; ten digits of 9, which round
# up to the next power of ten; 1e-13 and 1e9 and their neighbours. Then the
# powers, halves and ten digits of 9 below 1e-14, down to the subnormals,
# where the power of ten the array path scales by is inexact, and three-digit
# exponents; 5e-324, 1e-4 (below it {:.9g} writes an exponent) and a value
# that rounds up to 1e-4, with their neighbours; and the negative of each
_ARRAY_EDGES = [
    *(near for j in range(-14, 10) for near in _ulps(float(f"1e{j}"), 3)),
    *(float(f"{k}5e{j}") for k in (100000000, 123456789, 999999999) for j in range(-23, 1)),
    *((2 * round(1.2345678e8 * 2.0 ** s / 10 ** s) + 1) / 2 ** (s + 1) for s in range(12)),
    *(float(f"9999999996e{j}") for j in range(-23, 0)),
    999999999.5, 999999998.5, *_ulps(1e-13, 1), *_ulps(1e9, 1),
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf,
    *(near for j in range(-323, -14) for near in _ulps(float(f"1e{j}"), 3)),
    *(float(f"{k}5e{j}") for k in (100000000, 123456789, 999999999) for j in range(-332, -23)),
    *(float(f"999999999{d}e{j}") for d in (5, 6) for j in range(-332, -23)),
    *_ulps(5e-324, 3), *_ulps(1e-4, 3), *_ulps(9.99999999951e-5, 3),
]
_ARRAY_EDGES += [-v for v in _ARRAY_EDGES]
_ARRAY_INTS = [0, 1, -1, 10 ** 9 - 1, -(10 ** 9 - 1), 10 ** 9, -(10 ** 9), 2 ** 63 - 1, -(2 ** 63)]
# a float64 of any bit pattern, signaling NaNs too
_BIT_FLOATS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)[()]
)


@st.composite
def _array_table(draw):
    """Float columns of any bit patterns, values the array path writes or edge
    values, and an int64 column of any values or edge values."""
    n = draw(st.integers(1, 40))
    cells = st.one_of(_BIT_FLOATS, st.floats(-1e9, 1e9), st.floats(0.0, 1e-13),
                      st.sampled_from(_ARRAY_EDGES))
    floats = [np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)
              for _ in range(draw(st.integers(1, 2)))]
    ints = st.one_of(_INTS, st.sampled_from(_ARRAY_INTS))
    return [*floats, np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64)]


def _cells(column):
    """The text the byte buffer gives each cell of ``column``, and whether it holds it."""
    low, high, ok = (waveform._int_cells if column.dtype.kind == "i" else waveform._float_cells)(
        column)
    cells = np.stack([low, high], axis=-1).astype("<u8").view("S16")[:, 0]
    return [cell.replace(b"\0", b"").decode() for cell in cells], ok


def _misheld(column):
    """The values of ``column`` whose held cell is not ``str.format``'s text, with that cell."""
    texts, ok = _cells(column)
    return [(value, text) for value, text, held in zip(column.tolist(), texts, ok.tolist())
            if held and text != _per_cell_rows([[value]])[0]]


class TestCsvText:
    @settings(max_examples=200, deadline=None)
    @given(columns=_columns(), array_min_rows=st.sampled_from([ARRAY_MIN_ROWS, 1]))
    @example(columns=[np.array([999999999.0, -999999999.0, 0.0])], array_min_rows=ARRAY_MIN_ROWS)
    @example(columns=[np.array([3.0, 1e9]), [-1e9, 0.0]], array_min_rows=ARRAY_MIN_ROWS)
    @example(columns=[np.array([3.0, -0.0]), np.array([800.0, 0.5])],
             array_min_rows=ARRAY_MIN_ROWS)
    @example(columns=[np.array([999999999.0, -999999999.0, 0.0])], array_min_rows=1)
    @example(columns=[np.array([3.0, 1e9]), [-1e9, 0.0]], array_min_rows=1)
    @example(columns=[np.array([3.0, -0.0]), np.array([800.0, 0.5])], array_min_rows=1)
    def test_rows_match_per_cell_formatting(self, columns, array_min_rows):
        with _cut(array_min_rows):
            text = csv_text("h", columns, {"kind": "table", "n": 3})
        assert text.endswith("\n")
        assert text.splitlines() == ["# kind=table", "# n=3", "h", *_per_cell_rows(columns)]

    @settings(max_examples=300, deadline=None)
    @given(columns=_array_table())
    def test_array_path_writes_what_str_format_writes(self, columns):
        with _cut(1):
            text = csv_text("h", columns, {})
        assert text == "h\n" + "".join(row + "\n" for row in _per_cell_rows(columns))
        # a table with a cell the buffer does not hold goes per row: the
        # cells it does hold are checked on their own
        assert [_misheld(c) for c in columns] == [[] for _ in columns]

    def test_array_path_on_edge_values(self):
        floats = np.array(_ARRAY_EDGES)
        ints = np.resize(np.array(_ARRAY_INTS, dtype=np.int64), floats.size)
        assert _misheld(floats) == [] and _misheld(ints) == []
        columns = [floats, ints, floats[::-1].copy()]
        with _cut(1):
            text = csv_text("h", columns, {})
        assert text.splitlines()[1:] == _per_cell_rows(columns)

    def test_buffer_holds_all_but_negatives_with_an_exponent(self):
        # powers of ten and their neighbours from the subnormals to 1e9, 5e-324
        # and 1e-4 with theirs, +-0.0, and the negative of each: all are held
        # but a negative whose text has an exponent
        x = np.array([*(v for j in range(-323, 10) for v in _ulps(float(f"1e{j}"), 3)),
                      *_ulps(5e-324, 3), *_ulps(1e-4, 3), 0.0])
        x = np.r_[x, -x]
        x = x[np.abs(x) < 1e9]
        fits = [v >= 0 or "e" not in f"{v:.9g}" for v in x.tolist()]
        assert _cells(x)[1].tolist() == fits
        assert _misheld(x) == []
        held = x[fits]
        with _cut(1):
            text = csv_text("h", [held, held[::-1].copy()], {})
        assert text.splitlines()[1:] == _per_cell_rows([held, held[::-1]])

    @pytest.mark.parametrize("cell", [math.nan, -1e-5, 1e9], ids=["nan", "-1e-5", "1e9"])
    def test_one_cell_the_buffer_cannot_hold_sends_the_table_per_row(self, cell):
        # 600 rows, from the cut on: a fractional grid with negative times, and
        # values down to 1e-300, every cell held but one
        t = np.arange(600) * 0.25 - 75.0
        values = np.geomspace(1e-300, 1.0, 600)
        values[300] = cell
        assert ARRAY_MIN_ROWS <= 600
        assert _cells(t)[1].all() and np.flatnonzero(~_cells(values)[1]).tolist() == [300]
        text = csv_text("t_fs,value", (t, values), {"kind": "x"})
        rows = map("{:.9g},{:.9g}\n".format, t.tolist(), values.tolist())
        assert text == "# kind=x\nt_fs,value\n" + "".join(rows)

    @pytest.mark.parametrize("error", [-0.45, 0.45])
    def test_exponent_step_mends_an_inexact_log10(self, error):
        # log10 off by nearly half a decade either way puts floor(log10 x) one
        # decade off for about half the values: the one correction step must
        # still write each of them itself, as str.format does
        rng = np.random.default_rng(26)
        near_powers = [v for v in _ARRAY_EDGES[:150] if 1e-13 <= v < 1e9]
        x = np.r_[near_powers, 10 ** rng.uniform(-13, 9, 2000)]
        log10 = np.log10
        with mock.patch.object(np, "log10", lambda v: log10(v) + error):
            low, high, ok = waveform._float_cells(x)
        text = np.stack([low, high], axis=-1).astype("<u8").view("S16")[:, 0]
        assert ok.all()
        written = [cell.replace(b"\0", b"").decode() for cell in text]
        assert written == [f"{v:.9g}" for v in x.tolist()]

    def test_write_csv_uses_the_same_rows(self, tmp_path):
        w = SampledWaveform(-2.5, 0.5, [0.0, 1.0 / 3.0, 2e-300, 7.0])
        write_csv(tmp_path / "w.csv", w, {"kind": "x"})
        expected = csv_text("t_fs,value", (w.times(), w.samples), {"kind": "x"})
        assert (tmp_path / "w.csv").read_text(encoding="utf-8") == expected
        assert expected.splitlines()[2:] == _per_cell_rows((w.times(), w.samples))

    def test_time_grid_that_does_not_survive_nine_digits_is_refused(self, tmp_path):
        w = SampledWaveform(1e9, 1e-3, [1.0, 2.0, 3.0])
        with pytest.raises(ValidationError, match="nine-significant-digit"):
            write_csv(tmp_path / "w.csv", w, {})
        assert not (tmp_path / "w.csv").exists()

    def test_whole_grid_from_1e9_fs_on_is_refused(self, tmp_path):
        # 1e9 and 1e9 + 1 are whole, but both print as 1e+09
        with pytest.raises(ValidationError, match="nine-significant-digit"):
            write_csv(tmp_path / "w.csv", SampledWaveform(1e9 - 1.0, 1.0, [1.0, 2.0, 3.0]), {})
        assert not (tmp_path / "w.csv").exists()

    def test_whole_femtosecond_grid_round_trips(self, tmp_path):
        w = SampledWaveform(-1600.0, 800.0, [0.0, 12.0, 1.0 / 3.0, 7.0, 2e-300])
        write_csv(tmp_path / "w.csv", w, {"kind": "x"})
        rows = (tmp_path / "w.csv").read_text(encoding="utf-8").splitlines()[2:]
        assert rows == ["-1600,0", "-800,12", "0,0.333333333", "800,7", "1600,2e-300"]
        back, meta = read_csv(tmp_path / "w.csv")
        assert meta == {"kind": "x"}
        assert (back.t0_fs, back.dt_fs) == (w.t0_fs, w.dt_fs)
        np.testing.assert_array_equal(back.times(), w.times())
