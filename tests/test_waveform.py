"""Waveform construction, convolution, width estimation, and CSV round trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import GATE_FWHM_BY_LENGTH, GAUSS312_RECT408_PEAK, gauss_rect_fwhm_oracle
from ucspd.errors import GridMismatchError, NumericalError, ValidationError
from ucspd.waveform import (
    FFT_THRESHOLD,
    PulseSpec,
    SampledWaveform,
    TimeGrid,
    convolve,
    fast_fft_len,
    fwhm,
    gaussian_waveform,
    read_csv,
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
        assert g.t_max_fs == pytest.approx(5.0)

    def test_symmetric_covers_span(self):
        g = TimeGrid.symmetric(1000.0, 3.0)
        assert g.t0_fs <= -1000.0
        assert g.t_max_fs >= 1000.0
        assert g.t0_fs == -g.t_max_fs

    @pytest.mark.parametrize("bad", [dict(t0_fs=0.0, dt_fs=0.0, n=5),
                                     dict(t0_fs=0.0, dt_fs=-1.0, n=5),
                                     dict(t0_fs=0.0, dt_fs=1.0, n=1),
                                     dict(t0_fs=math.nan, dt_fs=1.0, n=5)])
    def test_rejects_bad_grids(self, bad):
        with pytest.raises(ValidationError):
            TimeGrid(**bad)


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
        # but plain signal waveforms may go negative
        w = SampledWaveform(0.0, 1.0, [0.0, -0.5, 1.0], intensity=False)
        assert w.samples[1] == -0.5

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
        assert w.area == pytest.approx(2.5)
        assert w.peak_value == 3.0
        assert w.peak_time_fs == pytest.approx(0.0)


class TestGaussian:
    def test_peak_value_and_position(self):
        g = gaussian_waveform(PulseSpec(240.0), TimeGrid.symmetric(1200.0, 1.0))
        assert g.peak_value == pytest.approx(1.0, abs=1e-12)
        assert abs(g.peak_time_fs) <= g.dt_fs

    def test_half_maximum_at_half_width(self):
        spec = PulseSpec(240.0)
        g = gaussian_waveform(spec, TimeGrid(-240.0, 120.0, 5))
        # samples fall exactly on +/- fwhm/2
        assert g.samples[1] == pytest.approx(0.5, rel=1e-12)
        assert g.samples[3] == pytest.approx(0.5, rel=1e-12)

    def test_value_at_fwhm_offset(self):
        # at t - center = fwhm the exponent is -4 ln 2, i.e. 2**-4
        g = gaussian_waveform(PulseSpec(240.0), TimeGrid(-480.0, 240.0, 5))
        assert g.samples[3] == pytest.approx(0.0625, rel=1e-12)

    def test_fwhm_matches_requested_width(self):
        g = gaussian_waveform(PulseSpec(200.0), TimeGrid.symmetric(1000.0, 1.0))
        assert fwhm(g) == pytest.approx(200.0, abs=0.5)

    def test_offcenter_peak_tracks_center(self):
        g = gaussian_waveform(PulseSpec(100.0, center_fs=333.0),
                              TimeGrid.symmetric(1000.0, 1.0))
        assert abs(g.peak_time_fs - 333.0) <= g.dt_fs

    def test_rejects_bad_pulse_specs(self):
        with pytest.raises(ValidationError):
            PulseSpec(0.0)
        with pytest.raises(ValidationError):
            PulseSpec(100.0, amplitude=-1.0)


class TestRect:
    def test_inside_outside_values(self):
        r = rect_waveform(408.6, TimeGrid.symmetric(600.0, 1.0))
        assert r.sample_at(0.0) == 1.0
        assert r.sample_at(300.0) == 0.0

    def test_area_within_one_sample(self):
        grid = TimeGrid.symmetric(600.0, 1.0)
        r = rect_waveform(408.6, grid)
        assert abs(r.area - 408.6) <= grid.dt_fs

    def test_width_must_be_positive(self):
        with pytest.raises(ValidationError):
            rect_waveform(0.0, TimeGrid.symmetric(10.0, 1.0))
        with pytest.raises(ValidationError):
            rect_waveform(-5.0, TimeGrid.symmetric(10.0, 1.0))


class TestConvolve:
    def test_gaussian_pair_widths_add_in_quadrature(self):
        grid = TimeGrid.symmetric(1200.0, 1.0)
        a = gaussian_waveform(PulseSpec(200.0), grid)
        b = gaussian_waveform(PulseSpec(240.0), grid)
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
        f = gaussian_waveform(PulseSpec(240.0), grid)
        k = 10
        d = np.zeros(2 * k + 1)
        d[k] = 1.0 / grid.dt_fs  # unit area spike
        delta = SampledWaveform(-k * grid.dt_fs, grid.dt_fs, d)
        c = convolve(f, delta)
        assert np.allclose(c.samples[k:k + f.n], f.samples, rtol=1e-3, atol=1e-12)

    def test_peak_of_gaussian_rect_matches_quadrature(self):
        grid = TimeGrid.symmetric(1500.0, 1.0)
        g = gaussian_waveform(PulseSpec(math.hypot(200.0, 240.0)), grid)
        r = rect_waveform(408.6, grid)
        c = convolve(g, r)
        assert c.peak_value == pytest.approx(GAUSS312_RECT408_PEAK, rel=1e-3)

    def test_area_preserved_with_unit_area_kernel(self):
        grid = TimeGrid.symmetric(1000.0, 1.0)
        f = gaussian_waveform(PulseSpec(313.0, center_fs=40.0), grid)
        kern = gaussian_waveform(PulseSpec(150.0), grid)
        kern = kern.scaled(1.0 / kern.area)
        assert convolve(f, kern).area == pytest.approx(f.area, rel=1e-3)

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
            direct = convolve(a, b, method="direct")
            fft = convolve(a, b, method="fft")
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
        a = SampledWaveform(0.0, 1.0, rng.standard_normal(n_a), intensity=False)
        b = SampledWaveform(3.0, 1.0, rng.standard_normal(n_b), intensity=False)
        direct = convolve(a, b, method="direct")
        fft = convolve(a, b, method="fft")
        assert fft.n == direct.n == n_a + n_b - 1
        assert fft.t0_fs == direct.t0_fs
        scale = np.abs(direct.samples).max()
        assert np.abs(direct.samples - fft.samples).max() <= 1e-9 * scale

    def test_commutative_and_linear(self):
        rng = np.random.default_rng(7)
        a = SampledWaveform(1.0, 0.5, rng.standard_normal(40), intensity=False)
        b = SampledWaveform(-2.0, 0.5, rng.standard_normal(25), intensity=False)
        c = SampledWaveform(-2.0, 0.5, rng.standard_normal(25), intensity=False)
        ab = convolve(a, b)
        ba = convolve(b, a)
        assert ab.t0_fs == ba.t0_fs
        assert np.allclose(ab.samples, ba.samples, rtol=1e-12, atol=1e-12)
        lin = convolve(a, SampledWaveform(-2.0, 0.5, 2.0 * b.samples - 3.0 * c.samples,
                                          intensity=False))
        ref = 2.0 * convolve(a, b).samples - 3.0 * convolve(a, c).samples
        assert np.allclose(lin.samples, ref, rtol=1e-10, atol=1e-10)

    def test_intensity_output_stays_nonnegative(self):
        grid = TimeGrid.symmetric(2000.0, 1.0)  # large enough to take the FFT path
        a = gaussian_waveform(PulseSpec(50.0), grid)
        b = rect_waveform(10.0, grid)
        c = convolve(a, b)
        assert c.intensity
        assert c.samples.min() >= 0.0

    def test_unknown_method_rejected(self):
        a = SampledWaveform(0.0, 1.0, np.ones(4))
        with pytest.raises(ValidationError):
            convolve(a, a, method="magic")


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

    def test_rejects_non_positive_length(self):
        with pytest.raises(ValidationError):
            fast_fft_len(0)


class TestFwhm:
    def test_rect_width_recovered(self):
        r = rect_waveform(600.0, TimeGrid.symmetric(900.0, 1.0))
        assert fwhm(r) == pytest.approx(600.0, abs=1.0)

    def test_gate_convolution_matches_cdf_oracle(self):
        grid = TimeGrid.symmetric(900.0, 1.0)
        c = convolve(gaussian_waveform(PulseSpec(200.0), grid),
                     rect_waveform(204.3, grid))
        oracle = gauss_rect_fwhm_oracle(200.0, 204.3)
        assert oracle == pytest.approx(GATE_FWHM_BY_LENGTH[1.0], abs=1e-6)
        assert fwhm(c) == pytest.approx(oracle, abs=2.0)

    def test_invariant_under_scale_and_shift(self):
        grid = TimeGrid.symmetric(800.0, 1.0)
        base = convolve(gaussian_waveform(PulseSpec(150.0), grid),
                        rect_waveform(300.0, grid))
        ref = fwhm(base)
        assert fwhm(base.scaled(123.4)) == pytest.approx(ref, rel=1e-12)
        assert fwhm(base.shifted(517.0)) == pytest.approx(ref, rel=1e-12)

    def test_monotone_in_gate_width(self):
        grid = TimeGrid.symmetric(3000.0, 1.0)
        widths = [fwhm(convolve(gaussian_waveform(PulseSpec(200.0), grid),
                                rect_waveform(w, grid)))
                  for w in (100.0, 300.0, 900.0, 2000.0)]
        assert all(w1 < w2 for w1, w2 in zip(widths, widths[1:]))

    def test_narrow_and_wide_gate_limits(self):
        g = 200.0
        grid = TimeGrid.symmetric(3000.0, 1.0)
        narrow = fwhm(convolve(gaussian_waveform(PulseSpec(g), grid),
                               rect_waveform(g / 10.0, grid)))
        wide = fwhm(convolve(gaussian_waveform(PulseSpec(g), grid),
                             rect_waveform(10.0 * g, grid)))
        assert narrow == pytest.approx(g, rel=0.02)
        assert wide == pytest.approx(10.0 * g, rel=0.02)

    def test_unbounded_width_raises(self):
        # Gaussian centered on the right edge: no crossing on that side.
        g = gaussian_waveform(PulseSpec(200.0, center_fs=0.0), TimeGrid(-600.0, 1.0, 601))
        with pytest.raises(NumericalError):
            fwhm(g)

    def test_all_zero_raises(self):
        w = SampledWaveform(0.0, 1.0, np.zeros(10))
        with pytest.raises(NumericalError):
            fwhm(w)


class TestResample:
    def test_onto_finer_grid_preserves_shape(self):
        grid = TimeGrid.symmetric(600.0, 4.0)
        g = gaussian_waveform(PulseSpec(240.0), grid)
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
        w = gaussian_waveform(PulseSpec(240.0, center_fs=12.0), grid)
        path = tmp_path / "wave.csv"
        write_csv(path, w, metadata={"scenario_hash": "abc123def456"})
        back, meta = read_csv(path, intensity=True)
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
        write_csv(path, w)
        text = path.read_text()
        assert "0.123456789" in text
