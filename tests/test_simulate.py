"""Monte Carlo counting scans: rates, Poisson statistics, and determinism."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import RATE_AT_PEAK_CPS
from scenario_edits import RANGES
from waveform_measures import peak_time_fs
from ucspd.errors import NumericalError, ValidationError
from ucspd.response import resolution_function
from ucspd.simulate import (
    ScanConfig,
    delay_rate_function,
    derive_stage_seed,
    run_phase_sweep,
    run_scan,
)
from ucspd.timebin import center_bin_expectation
from ucspd.waveform import TimeGrid, convolve, gaussian_waveform

MU = 0.1
ETA_EXT = 0.0331
REP_RATE = 76.3e6


def make_pair(length_mm=2.0):
    grid = TimeGrid.symmetric(1500.0, 1.0)
    signal = gaussian_waveform(240.0, grid)
    resolution = resolution_function(200.0, length_mm * 204.3, grid)
    return signal, resolution


class TestScanConfig:
    def test_defaults_describe_reference_source(self):
        cfg = ScanConfig(np.linspace(-100.0, 100.0, 21))
        assert (cfg.dwell_s, cfg.seed) == (1.0, 0)
        assert cfg.n_points == 21

    def test_delay_coordinates_must_increase(self):
        # delays and phases alike: every scan the command line runs increases
        with pytest.raises(ValidationError, match="strictly increasing"):
            ScanConfig(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValidationError, match="strictly increasing"):
            ScanConfig(np.array([0.0, 3.0, 1.0]))

    def test_coordinates_must_be_one_dimensional(self):
        # unchecked, a scalar would reach the sampler and a single row would
        # pass the increasing check, each to fail later on an IndexError
        with pytest.raises(ValidationError, match=r"1-D, got shape \(\)"):
            run_scan(ScanConfig(5.0), 100.0)
        with pytest.raises(ValidationError, match=r"1-D, got shape \(1, 2\)"):
            ScanConfig([[1.0, 2.0]])

    # dwell and seed come from the scenario, whose schema checks them, and
    # the scan section keeps the coordinates finite and non-empty; a step
    # that rounds away still repeats a coordinate, so the configuration
    # checks that they increase
    @pytest.mark.parametrize("kwargs", [
        dict(coordinates=[0.0, math.nan]),
        dict(coordinates=[1.0, 0.0]),
        # a 1 fs step near 1e16 fs, where floats are 2 fs apart
        dict(coordinates=np.arange(1.0e16, 1.00000000000001e16 + 0.5, 1.0)),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            ScanConfig(**kwargs)


def point_stream(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


class TestExpectedRate:
    def test_peak_rate_at_reference_point(self):
        signal, resolution = make_pair()
        overlap = convolve(signal, resolution).peak_normalized()
        rate = delay_rate_function(signal, resolution, MU, ETA_EXT, REP_RATE, noise_cps=800.0)
        assert rate(peak_time_fs(overlap)) == pytest.approx(RATE_AT_PEAK_CPS + 800.0, rel=1e-9)

    def test_zero_photons_leaves_noise_only(self):
        signal, resolution = make_pair()
        rate = delay_rate_function(signal, resolution, 0.0, ETA_EXT, REP_RATE, noise_cps=812.5)
        assert rate(0.0) == 812.5

    def test_far_off_gate_noise_within_tenth_percent(self):
        signal, resolution = make_pair()
        rate = delay_rate_function(signal, resolution, MU, ETA_EXT, REP_RATE, noise_cps=800.0)
        assert rate(10000.0) == pytest.approx(800.0, rel=1e-3)

    def test_overlap_is_peak_normalized(self):
        signal, resolution = make_pair()
        overlap = convolve(signal, resolution).peak_normalized()
        assert overlap.peak_value == pytest.approx(1.0, abs=1e-12)
        assert np.all(overlap.samples <= 1.0)

    @settings(max_examples=20, deadline=None)
    @given(
        delays=st.lists(st.floats(-2500.0, 2500.0), min_size=1, max_size=12),
        noise=st.floats(0.0, 1e4),
    )
    @example(delays=[-1500.0, 0.0, 1500.0, 1500.5], noise=0.0)
    def test_array_rate_equals_scalar_rates(self, delays, noise):
        signal, resolution = make_pair()
        rate = delay_rate_function(signal, resolution, MU, ETA_EXT, REP_RATE, noise)
        scalar = np.array([rate(d) for d in delays])
        assert rate(np.array(delays)).tobytes() == scalar.tobytes()
        single = [delay_rate_function(signal, resolution, MU, ETA_EXT, REP_RATE, noise)(d)
                  for d in delays]
        assert np.array(single).tobytes() == scalar.tobytes()


class TestRunScan:
    def test_same_seed_bit_identical(self):
        cfg = ScanConfig(np.linspace(-500.0, 500.0, 101), seed=42)
        rates = 1000.0 * np.exp(-(cfg.coordinates / 300.0) ** 2) + 50.0
        a = run_scan(cfg, rates)
        b = run_scan(cfg, rates)
        assert a.counts.tobytes() == b.counts.tobytes()
        assert np.array_equal(a.expected, b.expected)

    def test_different_seeds_differ(self):
        coords = np.linspace(-500.0, 500.0, 101)
        a = run_scan(ScanConfig(coords, seed=1), 1000.0)
        b = run_scan(ScanConfig(coords, seed=2), 1000.0)
        assert not np.array_equal(a.counts, b.counts)

    def test_counts_do_not_depend_on_evaluation_order(self):
        cfg = ScanConfig(np.linspace(0.0, 1.0, 400), seed=97)
        out = run_scan(cfg, 5000.0 + 1000.0 * np.cos(cfg.coordinates))
        # each point drawn alone from its (seed, index) stream, in shuffled order
        reference = np.empty(cfg.n_points, dtype=np.int64)
        for i in np.random.default_rng(4).permutation(cfg.n_points).tolist():
            reference[i] = point_stream(cfg.seed, i).poisson(out.expected[i])
        assert out.counts.tobytes() == reference.tobytes()

    def test_zero_rate_gives_zero_counts(self):
        cfg = ScanConfig(np.linspace(0.0, 10.0, 11), seed=3)
        out = run_scan(cfg, 0.0)
        assert np.all(out.counts == 0)

    def test_negative_rate_raises(self):
        cfg = ScanConfig(np.linspace(0.0, 10.0, 5))
        with pytest.raises(NumericalError, match=r"^rate -1\.0 at coordinate 0; expected"):
            run_scan(cfg, -1.0)

    def test_nan_rate_raises(self):
        cfg = ScanConfig(np.linspace(0.0, 10.0, 5))
        with pytest.raises(NumericalError, match=r"^rate nan at coordinate 0; expected"):
            run_scan(cfg, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, -0.5, math.inf])
    def test_one_bad_rate_in_an_array_names_its_coordinate(self, bad):
        cfg = ScanConfig(np.array([0.0, 10.0, 25.0, 40.0]))
        rates = np.array([1.0, 2.0, bad, bad])
        with pytest.raises(NumericalError, match=rf"^rate {bad!r} at coordinate 25;"):
            run_scan(cfg, rates)

    @pytest.mark.parametrize("length", [3, 5])
    def test_wrong_length_rate_raises(self, length):
        cfg = ScanConfig(np.array([0.0, 10.0, 25.0, 40.0]))
        with pytest.raises(ValidationError,
                           match=rf"^rates of shape \({length},\) for 4 coordinates$"):
            run_scan(cfg, np.ones(length))

    def test_one_rate_draws_what_a_rate_per_coordinate_draws(self):
        cfg = ScanConfig(np.linspace(-500.0, 500.0, 101), seed=42)
        one, every = run_scan(cfg, 37.5), run_scan(cfg, np.full(101, 37.5))
        assert one.counts.tobytes() == every.counts.tobytes()
        assert one.expected.tobytes() == every.expected.tobytes()

    def test_poisson_mean_and_variance(self):
        cfg = ScanConfig(np.linspace(0.0, 1.0, 10000), seed=20260815, dwell_s=1.0)
        out = run_scan(cfg, 1000.0)
        mean = out.counts.mean()
        ratio = out.counts.var() / mean
        assert 990.0 <= mean <= 1010.0
        assert 0.95 <= ratio <= 1.05


# means from every branch of numpy's sampler: 0, the multiplication method
# below 10 (from the smallest subnormal up to the double just below 10), PTRS
# from exactly 10, where its slow test and random_loggam's x < 7 loop fire
# most, up to 1e12
SAMPLER_MEANS = st.one_of(
    st.sampled_from([0.0, 5e-324, 10.0, math.nextafter(10.0, 0.0)]),
    st.floats(0.0, 10.0, exclude_max=True),
    st.floats(10.0, 30.0),
    st.floats(30.0, 1e12),
)


def per_point_counts(seed, means):
    return [point_stream(seed, i).poisson(m) for i, m in enumerate(means)]


class TestBulkSeeding:
    """Counts equal numpy's own per-point streams, ``SeedSequence(seed, (i,))``."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 64 - 1),
        means=st.lists(SAMPLER_MEANS, min_size=1, max_size=200),
        # and one point near 1e18, where k * log(lam) and random_loggam are large
        huge=st.floats(9e17, 1.1e18),
        at=st.integers(0, 200),
    )
    @example(seed=0, means=[0.0, 3.5, 1000.0], huge=1e18, at=3)
    @example(seed=2 ** 32 - 1, means=[9.99, 10.0, 5e6], huge=1e18, at=0)
    @example(seed=2 ** 32, means=[1.0] * 200, huge=1e18, at=100)
    @example(seed=2 ** 64 - 1, means=[0.5, 0.0, 250.0], huge=1e18, at=1)
    def test_counts_match_per_point_generators(self, seed, means, huge, at):
        means = means[:at] + [huge] + means[at:]
        cfg = ScanConfig(np.arange(len(means), dtype=np.float64), seed=seed)
        out = run_scan(cfg, means)
        assert out.counts.tolist() == per_point_counts(seed, means)

    def test_many_means_where_the_slow_test_decides(self):
        # PTRS's slow test and random_loggam's small-argument loop run most
        # often just above 10
        means = np.random.default_rng(8).uniform(10.0, 12.0, 20000)
        cfg = ScanConfig(np.arange(means.size, dtype=np.float64), seed=2024)
        out = run_scan(cfg, means)
        assert out.counts.tolist() == per_point_counts(cfg.seed, means)

    def test_exps_come_from_libm(self, monkeypatch):
        means = np.concatenate([np.linspace(0.0, 9.9, 100), np.linspace(10.0, 1e6, 100)])
        cfg = ScanConfig(np.arange(means.size, dtype=np.float64), seed=5)
        reference = per_point_counts(cfg.seed, means)
        math_exp, exps = math.exp, []

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy's exp may differ from libm in the last bit")

        def spy_exp(x):
            exps.append(x)
            return math_exp(x)

        monkeypatch.setattr(np, "exp", forbidden)
        monkeypatch.setattr(math, "exp", spy_exp)
        out = run_scan(cfg, means)
        assert out.counts.tolist() == reference
        # the multiplication method's exp(-lam), once per point with 0 < lam < 10
        assert sorted(exps) == sorted((-means[(means > 0.0) & (means < 10.0)]).tolist())

    @pytest.mark.parametrize("means", [
        np.random.default_rng(8).uniform(10.0, 12.0, 20000),
        np.linspace(9e17, 1.1e18, 40),
    ], ids=["10-12", "near-1e18"])
    def test_counts_hold_with_numpys_log_64_ulp_off(self, monkeypatch, means):
        # PTRS's slow test takes numpy's log; one far from libm's must still
        # give libm's decisions
        cfg = ScanConfig(np.arange(means.size, dtype=np.float64), seed=2024)
        reference = per_point_counts(cfg.seed, means)
        np_log, signs = np.log, np.random.default_rng(3)

        def off_log(x):
            out = np_log(x)
            return out + signs.choice([-64.0, 64.0], out.shape) * np.spacing(out)

        monkeypatch.setattr(np, "log", off_log)
        out = run_scan(cfg, means)
        assert out.counts.tolist() == reference

    def test_pairs_near_the_margin_take_libms_log(self, monkeypatch):
        # near 1e18, k * log(lam) is about 4e19 and the last bit of log(lam)
        # decides: every pair that reaches the slow test is decided again;
        # at 10-12 numpy's log decides them all
        means = np.concatenate([np.linspace(10.0, 12.0, 2000), np.linspace(9e17, 1.1e18, 40)])
        cfg = ScanConfig(np.arange(means.size, dtype=np.float64), seed=2024)
        reference = per_point_counts(cfg.seed, means)
        math_log, logs = math.log, []

        def spy_log(x):
            logs.append(x)
            return math_log(x)

        monkeypatch.setattr(math, "log", spy_log)
        out = run_scan(cfg, means)
        assert out.counts.tolist() == reference
        relogged = set(logs) & set(means.tolist())
        assert relogged and min(relogged) >= 9e17

    def test_mean_at_numpys_limit_is_drawn_and_above_it_refused(self):
        limit = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
        cfg = ScanConfig(np.array([0.0, 1.0]), seed=3)
        means = [float(limit), 1e18]
        out = run_scan(cfg, means)
        assert out.counts.tolist() == per_point_counts(cfg.seed, means)
        above = [1e18, math.nextafter(float(limit), math.inf)]
        with pytest.raises(NumericalError, match=r"Poisson mean .* at coordinate 1 is above"):
            run_scan(cfg, above)
        with pytest.raises(NumericalError, match="at coordinate 0 is above"):
            run_scan(ScanConfig(np.array([0.0]), dwell_s=1e15), 1e10)


class TestPhaseSweep:
    def test_destructive_phase_gives_zero_expectation(self):
        out = run_phase_sweep(np.array([math.pi]), contrast=1.0,
                              counts_scale=1e6, seed=5)
        assert out.expected[0] == pytest.approx(0.0, abs=1e-9)
        assert out.counts[0] == 0

    def test_expected_counts_follow_fringe(self):
        phases = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        scale = 3.0e6
        out = run_phase_sweep(phases, contrast=0.982, counts_scale=scale, seed=9)
        fringe = np.array([scale * center_bin_expectation(p, 0.982) for p in phases])
        assert np.allclose(out.expected, fringe, rtol=1e-12)
        # counts stay within a few sigma of the fringe everywhere
        sigma = np.sqrt(np.maximum(fringe, 1.0))
        assert np.all(np.abs(out.counts - fringe) < 6.0 * sigma)

    def test_decode_phase_shifts_fringe(self):
        phases = np.linspace(0.0, math.pi, 7)
        direct = run_phase_sweep(phases, 1.0, 1e5, seed=1)
        flipped = run_phase_sweep(phases, 1.0, 1e5, seed=1, decode_phase_rad=math.pi)
        # shifting the decode phase by pi swaps maxima and minima
        assert direct.expected[0] == pytest.approx(flipped.expected[-1], rel=1e-9)
        assert direct.expected[-1] == pytest.approx(flipped.expected[0], rel=1e-9)

    def test_noise_floor_added(self):
        out = run_phase_sweep(np.array([math.pi]), contrast=1.0, counts_scale=1e6,
                              noise_cps=800.0, dwell_s=2.0, seed=5)
        # expected counts: noise rate times dwell, fringe fully dark
        assert out.expected[0] == pytest.approx(1600.0, abs=1e-9)

    def test_parameter_validation(self):
        # contrast, scale and dwell are checked by the scenario schema; what
        # the sweep computes from them is checked here
        with pytest.raises(ValidationError, match="strictly increasing"):
            run_phase_sweep(np.array([0.0, 0.0]), contrast=1.0, counts_scale=1e5)
        # the largest rate the schema's ranges allow, counts_scale over
        # dwell_s, is finite, and its mean is refused by the sampler's limit
        with pytest.raises(NumericalError, match=r"Poisson mean .* at coordinate 0 is above"):
            run_phase_sweep(np.array([0.0, 1.0]), contrast=1.0,
                            counts_scale=RANGES["experiment.sweep.counts_scale"].high,
                            dwell_s=RANGES["experiment.sweep.dwell_s"].low)


class TestStageSeeds:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), stage=st.integers(0, 2 ** 32 - 1))
    @example(seed=0, stage=0)
    @example(seed=2 ** 32 - 1, stage=1)
    @example(seed=2 ** 32, stage=2)
    @example(seed=2 ** 64 - 1, stage=3)
    @example(seed=2 ** 64 - 1, stage=2 ** 32 - 1)
    @example(seed=0, stage=2 ** 32 - 1)
    def test_matches_numpy_seed_sequence(self, seed, stage):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(0xFFFF, stage))
        assert derive_stage_seed(seed, stage) == int(ss.generate_state(1, np.uint64)[0])

    def test_deterministic_and_distinct(self):
        assert derive_stage_seed(123, 1) == derive_stage_seed(123, 1)
        assert derive_stage_seed(123, 1) != derive_stage_seed(123, 2)
        assert derive_stage_seed(123, 1) != derive_stage_seed(124, 1)

