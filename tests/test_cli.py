"""Command line: artifacts, reproducibility, hash policing, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from importlib import resources
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import ucspd
import ucspd.scenario
from scenario_edits import RANGES, edited, range_refusal
from waveform_csv import read_csv
from waveform_measures import peak_time_fs
from ucspd.analysis import deconvolve
from ucspd.cli import main
from ucspd.detector import detection_limit
from ucspd.errors import NumericalError
from ucspd.scenario import parse_scenario, scenario_with_seed
from ucspd import cli, svgplot, waveform
from ucspd.simulate import derive_stage_seed
from ucspd.waveform import ARRAY_MIN_ROWS, fwhm

BUNDLED = resources.files("ucspd") / "scenarios"


def run(*argv):
    return main(list(argv))


def read_table(path):
    """Parse a `# key=value` commented CSV into (metadata, header, columns)."""
    metadata = {}
    header = None
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            metadata[key] = value
        elif header is None:
            header = line
        else:
            rows.append([float(cell) for cell in line.split(",")])
    return metadata, header, np.array(rows)


def scenario_hash(name="l2_300mw"):
    return parse_scenario((BUNDLED / f"{name}.scenario").read_text(encoding="utf-8")).scenario_hash


def dense_l2_scenario(tmp_path, seed=None):
    """``l2_300mw`` scanned at 1 fs steps over +/-3000 fs: 6001 points."""
    doc = yaml.safe_load((BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8"))
    if seed is not None:
        doc["seed"] = seed
    doc["experiment"]["scan"].update({"start_fs": -3000.0, "stop_fs": 3000.0, "step_fs": 1.0})
    dense = tmp_path / "l2_dense.scenario"
    dense.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
    return dense


class TestResolve:
    def test_artifacts_and_summary(self, tmp_path):
        out = tmp_path / "art"
        assert run("resolve", "l2_300mw", "--out", str(out), "--quiet") == 0
        summary = json.loads((out / "resolution.json").read_text())
        assert summary["L_mm"] == 2.0
        assert summary["tau_g"] == 204.3
        assert summary["fwhm_fs"] == pytest.approx(412.0, rel=0.05)
        assert summary["scenario_hash"] == scenario_hash()
        waveform, metadata = read_csv(out / "resolution.csv")
        assert metadata["scenario_hash"] == scenario_hash()
        assert waveform.peak_value == pytest.approx(1.0, rel=1e-9)
        svg = (out / "resolution.svg").read_text()
        assert f"scenario_hash={scenario_hash()}" in svg

    def test_three_crystals_trend(self, tmp_path):
        # resolution rises with crystal length, efficiency saturates
        values = []
        for name in ("l1_300mw", "l2_300mw", "l3_300mw"):
            out = tmp_path / name
            assert run("resolve", name, "--out", str(out), "--quiet") == 0
            summary = json.loads((out / "resolution.json").read_text())
            values.append((summary["fwhm_fs"], summary["eta_internal"]))
        fwhms = [v[0] for v in values]
        etas = [v[1] for v in values]
        assert fwhms[0] < fwhms[1] < fwhms[2]
        assert etas[0] < etas[1] <= etas[2]
        assert etas[1] - etas[0] > etas[2] - etas[1]


class TestScan:
    def test_csv_schema_and_manifest(self, tmp_path):
        out = tmp_path / "art"
        assert run("scan", "l2_300mw", "--out", str(out), "--quiet") == 0
        metadata, header, table = read_table(out / "scan.csv")
        assert header == "coord,counts,expected"
        assert metadata["scenario_hash"] == scenario_hash()
        assert np.all(table[:, 1] >= 0)
        assert np.all(table[:, 1] == np.round(table[:, 1]))
        manifest = json.loads((out / "scan_manifest.json").read_text())
        assert manifest["scenario_hash"] == scenario_hash()
        assert manifest["stage_seed"] == derive_stage_seed(20260815, 1)
        assert "scan.csv" in manifest["content_sha256"]
        assert "generated_utc" in manifest

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("scan", "l2_300mw", "--out", str(a), "--quiet") == 0
        assert run("scan", "l2_300mw", "--out", str(b), "--quiet") == 0
        assert (a / "scan.csv").read_bytes() == (b / "scan.csv").read_bytes()
        assert (a / "scan.svg").read_bytes() == (b / "scan.svg").read_bytes()
        ma = json.loads((a / "scan_manifest.json").read_text())
        mb = json.loads((b / "scan_manifest.json").read_text())
        ma.pop("generated_utc")
        mb.pop("generated_utc")
        assert ma == mb

    def test_seed_override_changes_counts_and_hash(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("scan", "l2_300mw", "--out", str(a), "--quiet") == 0
        assert run("scan", "l2_300mw", "--out", str(b), "--seed", "42", "--quiet") == 0
        _, _, ta = read_table(a / "scan.csv")
        mb, _, tb = read_table(b / "scan.csv")
        assert not np.array_equal(ta[:, 1], tb[:, 1])
        assert mb["scenario_hash"] != scenario_hash()

    def test_dense_scan_plot_keeps_every_row_in_the_csv(self, tmp_path):
        dense = dense_l2_scenario(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("scan", str(dense), "--out", str(a), "--quiet") == 0
        assert run("scan", str(dense), "--out", str(b), "--quiet") == 0
        _, _, table = read_table(a / "scan.csv")
        assert table.shape[0] == 6001
        svg = (a / "scan.svg").read_text(encoding="utf-8")
        assert svg == (b / "scan.svg").read_text(encoding="utf-8")
        # first and last data points, in pixels, within the 0.01 px rounding
        # of the SVG and the nine digits of the CSV
        left, top = svgplot._MARGIN_LEFT, svgplot._MARGIN_TOP
        plot_w = svgplot._WIDTH - left - svgplot._MARGIN_RIGHT
        plot_h = svgplot._HEIGHT - top - svgplot._MARGIN_BOTTOM
        y_lo, y_hi = table[:, 1:].min(), table[:, 1:].max()
        polylines = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len(polylines) == 2
        for column, points in zip((1, 2), polylines):
            vertices = np.array([v.split(",") for v in points.split()], dtype=np.float64)
            assert len(vertices) <= 4 * plot_w
            ends = table[[0, -1], column]
            end_y = top + plot_h - (ends - y_lo) / (y_hi - y_lo) * plot_h
            assert vertices[[0, -1], 0].tolist() == [left, left + plot_w]
            np.testing.assert_allclose(vertices[[0, -1], 1], end_y, atol=0.006)


class TestSweepAndFit:
    def test_sweep_then_fitvis_reads_same_counts(self, tmp_path):
        out = tmp_path / "art"
        assert run("sweep", "l2_300mw", "--out", str(out), "--quiet") == 0
        assert run("fitvis", "l2_300mw", "--out", str(out), "--quiet") == 0
        _, header, table = read_table(out / "sweep.csv")
        assert header == "coord,counts,expected"
        assert table.shape[0] == 24
        report = json.loads((out / "fitvis_report.json").read_text())
        assert report["visibility"] == pytest.approx(0.982, abs=0.002)
        assert report["visibility_sigma"] < 0.002
        assert report["stage_seed"] == derive_stage_seed(20260815, 2)
        assert report["n_points"] == 24

    def test_included_noise_raises_every_expected_count_by_its_dwell_counts(self, tmp_path):
        # a dwell of 2 s tells noise_cps * dwell_s from noise_cps
        tables, manifests = [], []
        for include in (False, True):
            text = edited({"experiment.sweep.include_noise": include,
                           "experiment.sweep.dwell_s": 2.0})
            path = tmp_path / f"noise_{include}.scenario"
            path.write_text(text, encoding="utf-8")
            out = tmp_path / f"art_{include}"
            assert run("sweep", str(path), "--out", str(out), "--quiet") == 0
            tables.append(read_table(out / "sweep.csv")[2])
            manifests.append(json.loads((out / "sweep_manifest.json").read_text()))
        noise = parse_scenario(text).operating_point()[2]
        rise = tables[1][:, 2] - tables[0][:, 2]
        # to the nine significant digits each expected count is written with
        np.testing.assert_allclose(rise, noise * 2.0, rtol=0, atol=1e-9 * tables[1][:, 2].max())
        assert [m["config"]["include_noise"] for m in manifests] == [False, True]

    def test_dense_sweep_plot_is_reproducible_without_a_warning(self, tmp_path):
        dense = tmp_path / "dense.scenario"
        dense.write_text(edited({"experiment.sweep.n_points": 4096}), encoding="utf-8")
        a, b = tmp_path / "a", tmp_path / "b"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for out in (a, b):
                assert run("sweep", str(dense), "--out", str(out), "--quiet") == 0
        assert read_table(a / "sweep.csv")[2].shape[0] == 4096
        svg = (a / "sweep.svg").read_bytes()
        assert svg == (b / "sweep.svg").read_bytes()
        # each polyline is reduced per pixel column
        plot_w = svgplot._WIDTH - svgplot._MARGIN_LEFT - svgplot._MARGIN_RIGHT
        for points in re.findall(rb'<polyline points="([^"]*)"', svg):
            assert len(points.split()) <= 4 * plot_w


class TestTimebin:
    def test_probabilities_and_waveforms(self, tmp_path):
        out = tmp_path / "art"
        assert run("timebin", "l2_300mw", "--out", str(out), "--quiet") == 0
        payload = json.loads((out / "timebin_probabilities.json").read_text())
        probs = payload["probabilities"]
        assert len(probs) == 3
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)
        # contrast 0.982 at zero phase difference: weights 1 : |2c|^2 : c^4
        c = 0.982
        weights = np.array([1.0, (2.0 * c) ** 2, c ** 4])
        assert probs == pytest.approx(list(weights / weights.sum()), rel=1e-9)
        state, _ = read_csv(out / "timebin_state.csv")
        measured, _ = read_csv(out / "timebin_measured.csv")
        assert peak_time_fs(state) == pytest.approx(0.0, abs=1.0)
        # gate blur widens the train but keeps its center
        assert peak_time_fs(measured) == pytest.approx(0.0, abs=5.0)


class TestLimits:
    def test_csv_schema_and_consistency(self, tmp_path):
        out = tmp_path / "art"
        assert run("limits", "l2_300mw", "--out", str(out), "--quiet") == 0
        metadata, header, table = read_table(out / "limits.csv")
        assert header == "power_mw,eta_internal,eta_external,noise_cps,limit_per_pulse"
        assert metadata["scenario_hash"] == scenario_hash()
        assert table.shape[0] == 19
        # each row is self-consistent with the detection-limit formula
        for power, eta_int, eta_ext, noise, limit in table:
            assert limit == pytest.approx(
                detection_limit(noise, 1.0, eta_ext, 76.3e6), rel=1e-6
            )
        summary = json.loads((out / "limits.json").read_text())
        assert summary["min_limit_per_pulse"] <= summary["limit_at_scenario_power"]
        best = table[np.argmin(table[:, 4])]
        assert summary["best_power_mw"] == best[0]

    def test_each_power_is_evaluated_once(self, tmp_path, monkeypatch):
        # eta(P) once per swept power, then once at source.pump_power_mw
        # for limit_at_scenario_power
        real, powers = ucspd.scenario.efficiency_at_power, []

        def spy(*args):
            powers.append(args[-1])  # the power comes last
            return real(*args)

        monkeypatch.setattr(ucspd.scenario, "efficiency_at_power", spy)
        assert run("limits", "l2_300mw", "--out", str(tmp_path / "art"), "--quiet") == 0
        assert powers == [50.0 + 25.0 * k for k in range(19)] + [300.0]


class TestDeconv:
    def test_recovers_pulse_train(self, tmp_path):
        out = tmp_path / "art"
        assert run("deconv", "l2_300mw", "--out", str(out), "--quiet") == 0
        recovered, metadata = read_csv(out / "deconv_recovered.csv")
        assert metadata["scenario_hash"] == scenario_hash()
        idx, _ = find_peaks(recovered.samples, prominence=0.05 * recovered.peak_value)
        assert idx.size == 3
        times = recovered.times()[idx]
        assert np.all(np.abs(np.diff(times) - 800.0) <= 40.0)
        heights = recovered.samples[idx]
        # scenario interferometer contrast 0.982 skews the ideal 1:4:1 a little
        assert heights[1] / heights[0] == pytest.approx(4.0, rel=0.15)
        assert heights[1] / heights[2] == pytest.approx(4.0, rel=0.15)
        report = json.loads((out / "deconv_report.json").read_text())
        assert report["max_flux_drift"] < 1e-6
        assert report["settings"]["algorithm"] == "richardson-lucy-biggs-andrews"

    def test_deconv_scan_uses_its_own_stage_seed(self, tmp_path):
        out = tmp_path / "art"
        assert run("deconv", "l2_300mw", "--out", str(out), "--quiet") == 0
        metadata, _, _ = read_table(out / "deconv_scan.csv")
        assert int(metadata["stage_seed"]) == derive_stage_seed(20260815, 3)

    @pytest.mark.parametrize("name", ["l1_300mw", "l2_300mw", "l3_300mw"])
    def test_kernel_is_the_resolve_kernel_sampled_at_the_scan_step(
        self, name, tmp_path, monkeypatch
    ):
        seen = []

        def spy(measured, kernel, *args, **kwargs):
            seen.append((measured, kernel))
            return deconvolve(measured, kernel, *args, **kwargs)

        monkeypatch.setattr("ucspd.cli.deconvolve", spy)
        out = tmp_path / "art"
        assert run("resolve", name, "--out", str(out), "--quiet") == 0
        assert run("deconv", name, "--out", str(out), "--quiet") == 0
        [(measured, kernel)] = seen
        resolve, _ = read_csv(out / "resolution.csv")
        assert kernel.dt_fs == measured.dt_fs > resolve.dt_fs
        sampled = np.interp(kernel.times(), resolve.times(), resolve.samples, left=0.0, right=0.0)
        assert np.abs(kernel.samples - sampled).max() <= 1e-8
        resolve_fwhm = json.loads((out / "resolution.json").read_text())["fwhm_fs"]
        assert abs(fwhm(kernel) - resolve_fwhm) <= 1.0

    @pytest.mark.parametrize("name", ["l1_300mw", "l2_300mw", "l3_300mw"])
    def test_bundled_scans_stop_at_the_noise_level(self, name, tmp_path):
        out = tmp_path / "art"
        assert run("deconv", name, "--out", str(out), "--quiet") == 0
        report = json.loads((out / "deconv_report.json").read_text())
        assert report["stop_reason"] == "discrepancy"
        assert report["iterations_run"] < report["settings"]["iterations"]
        n = read_table(out / "deconv_scan.csv")[2].shape[0]
        assert report["deviance_per_point"] <= 1.0 + 2.0 * np.sqrt(2.0 / n)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_dense_l2_scan_stops_inside_the_cap(self, seed, tmp_path):
        # 6001 points at 1 fs: plain EM needed 562-1002 iterations here
        dense = dense_l2_scenario(tmp_path, seed)
        out = tmp_path / "art"
        assert run("deconv", str(dense), "--out", str(out), "--quiet") == 0
        report = json.loads((out / "deconv_report.json").read_text())
        assert report["stop_reason"] == "discrepancy"
        assert report["iterations_run"] < 500
        recovered, _ = read_csv(out / "deconv_recovered.csv")
        assert recovered.n == 6001
        assert abs(fwhm(recovered) - 240.0) <= 10.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_summary_names_the_stop(self, fmt, tmp_path, capsys):
        out = tmp_path / "art"
        assert run("deconv", "l2_300mw", "--out", str(out), "--format", fmt) == 0
        stdout = capsys.readouterr().out
        if fmt == "json":
            summary = json.loads(stdout)["summary"]
        else:
            lines = dict(line.split(",", 1) for line in stdout.splitlines())
            summary = {key: lines[key] for key in ("stop_reason", "deviance_per_point")}
        report = json.loads((out / "deconv_report.json").read_text())
        assert summary["stop_reason"] == report["stop_reason"] == "discrepancy"
        assert float(summary["deviance_per_point"]) == report["deviance_per_point"]

    def test_scan_without_counts_above_the_background_exits_2(self, tmp_path, capsys):
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        dark = tmp_path / "dark.scenario"
        dark.write_text(
            text.replace("mean_photons_per_pulse: 0.1", "mean_photons_per_pulse: 0.0"),
            encoding="utf-8",
        )
        # a seed whose dark scan, as the deconv stage draws it, totals no
        # more than its background
        scenario = scenario_with_seed(parse_scenario(dark.read_text(encoding="utf-8")), 1)
        scan = cli._run_delay_scan(scenario, cli._STAGE_DECONV, cli._resolution_kernel(scenario))
        background = scenario.operating_point()[2] * scenario.scan.dwell_s
        assert scan.counts.sum() <= scan.counts.size * background
        out = tmp_path / "art"
        assert run("deconv", str(dark), "--out", str(out), "--seed", "1") == 2
        assert "not above the background total" in capsys.readouterr().err
        # the scan was staged before the deconvolution failed, and not kept
        assert os.listdir(out) == []


class TestReport:
    def test_summary_values(self, tmp_path):
        out = tmp_path / "art"
        assert run("report", "l2_300mw", "--out", str(out), "--quiet") == 0
        summary = json.loads((out / "report_summary.json").read_text())
        assert summary["fwhm_fs"] == pytest.approx(412.0, rel=0.05)
        assert summary["eta_external"] == pytest.approx(0.0331, rel=0.01)
        assert summary["limit_per_pulse"] == pytest.approx(3.4e-5, rel=0.05)
        assert summary["visibility"]["value"] == pytest.approx(0.982, abs=0.002)
        assert summary["gate_fit"] is None  # the l2 scan sweeps a pulse train
        assert summary["scenario_hash"] == scenario_hash()

    def test_gaussian_scan_report_includes_gate_fit(self, tmp_path):
        out = tmp_path / "art"
        assert run("report", "l1_300mw", "--out", str(out), "--quiet") == 0
        summary = json.loads((out / "report_summary.json").read_text())
        fit = summary["gate_fit"]
        assert fit is not None
        assert fit["gate_width_fs"] == pytest.approx(204.3, rel=0.03)

    def test_refuses_mismatched_artifacts(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert run("scan", "l2_300mw", "--out", str(out), "--quiet") == 0
        code = run("report", "l2_300mw", "--out", str(out), "--seed", "777")
        assert code == 1
        err = capsys.readouterr().err
        assert "scan.csv" in err

    def test_accepts_matching_artifacts(self, tmp_path):
        out = tmp_path / "art"
        assert run("scan", "l2_300mw", "--out", str(out), "--quiet") == 0
        assert run("report", "l2_300mw", "--out", str(out), "--quiet") == 0

    def test_name_that_reads_like_a_hash_line_is_not_taken_for_one(self, tmp_path):
        # a CSV's first line is "# scenario=<name>"; its hash has a line of its own
        scenario = tmp_path / "named.scenario"
        scenario.write_text(edited({"name": "x scenario_hash=zzz"}), encoding="utf-8")
        out = tmp_path / "art"
        for sub in SUBCOMMANDS:
            assert run(sub, str(scenario), "--out", str(out), "--quiet") == 0
        assert run("report", str(scenario), "--out", str(out), "--quiet") == 0


class TestExitCodes:
    def test_unknown_subcommand_prints_usage(self, capsys):
        assert run("frobnicate") == 1
        err = capsys.readouterr().err
        assert "usage:" in err

    def test_missing_scenario(self, capsys):
        assert run("resolve") == 1
        assert capsys.readouterr().err == (
            "ucspd: error: no scenario given; pass a file path or one of the bundled names "
            "l1_300mw.scenario, l2_300mw.scenario, l3_300mw.scenario\n"
        )

    def test_unknown_scenario_name(self, capsys):
        assert run("resolve", "no_such_scenario") == 1
        assert capsys.readouterr().err == (
            "ucspd: error: scenario 'no_such_scenario' is neither a file nor a bundled name\n"
        )

    def test_conflicting_scenario_arguments(self, capsys):
        # the scenario is positional only; --scenario is not an option
        assert run("resolve", "l1_300mw", "--scenario", "l2_300mw") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ucspd ")
        assert "ucspd: error: unrecognized arguments: --scenario l2_300mw\n" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scenario_that_is_not_utf8_exits_1(self, fmt, tmp_path, capsys):
        latin1 = tmp_path / "latin1.scenario"
        latin1.write_bytes(b"name: caf\xe9\n")
        assert run("resolve", str(latin1), "--out", str(tmp_path / "art"), "--format", fmt) == 1
        captured = capsys.readouterr()
        if fmt == "json":
            error = json.loads(captured.out)["error"]
            assert (error["type"], error["exit_code"]) == ("ScenarioError", 1)
            message = error["message"]
        else:
            message = captured.err
        assert f"cannot read scenario {str(latin1)!r}" in message
        assert "can't decode byte 0xe9" in message

    def test_numerical_failure_exits_2(self, tmp_path, capsys):
        text = (BUNDLED / "l1_300mw.scenario").read_text(encoding="utf-8")
        dark = tmp_path / "dark.scenario"
        dark.write_text(
            text.replace("mean_photons_per_pulse: 0.1", "mean_photons_per_pulse: 0.0"),
            encoding="utf-8",
        )
        out = tmp_path / "art"
        code = run("report", str(dark), "--out", str(out))
        assert code == 2
        assert "gate" in capsys.readouterr().err

    # in-range values whose largest mean, about 2.5e19, 2.5e20 and 3.3e19,
    # is above the sampler's limit of about 9.2e18
    @pytest.mark.parametrize("sub, edits", [
        ("scan", {"source.mean_photons_per_pulse": 1.0e11, "experiment.scan.dwell_s": 100.0}),
        ("scan", {"experiment.scan.dwell_s": 1.0e5, "source.mean_photons_per_pulse": 1.0e9}),
        ("sweep", {"experiment.sweep.counts_scale": 5.0e19}),
    ], ids=["scan-mean_photons", "scan-dwell", "sweep-counts_scale"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mean_above_the_poisson_limit_exits_2(self, sub, edits, fmt, tmp_path, capsys):
        huge = tmp_path / "huge.scenario"
        huge.write_text(edited(edits), encoding="utf-8")
        assert run(sub, str(huge), "--out", str(tmp_path / "art"), "--format", fmt) == 2
        captured = capsys.readouterr()
        if fmt == "json":
            error = json.loads(captured.out)["error"]
            assert (error["type"], error["exit_code"]) == ("NumericalError", 2)
            message = error["message"]
        else:
            message = captured.err
        assert "Poisson mean" in message and "at coordinate" in message
        assert "the largest the count sampler accepts" in message

    # a fine in-range step over a wide in-range span; a subnormal step, which
    # would need inf samples, is outside its key's range and refused by it
    @pytest.mark.parametrize("sub, edits, cause", [
        ("limits", {"experiment.limits.power_step_mw": 0.002,
                    "experiment.limits.power_stop_mw": 5000.0},
         "experiment.limits: power_step_mw 0.002 needs 2475001 samples, "
         "more than the 1000000 allowed"),
        ("scan", {"experiment.scan.step_fs": 0.002},
         "experiment.scan: step_fs 0.002 needs 1800001 samples, more than the 1000000 allowed"),
        ("deconv", {"experiment.scan.step_fs": 5.0e-324},
         range_refusal("experiment.scan.step_fs", 5e-324)),
        ("resolve", {"experiment.dt_fs": 0.01, "detector.crystal.length_mm": 100.0},
         "a time grid at 0.01 fs spacing needs 2163003 samples, more than the 1000000 allowed"),
        ("resolve", {"experiment.dt_fs": 5.0e-324}, range_refusal("experiment.dt_fs", 5e-324)),
        ("timebin", {"experiment.dt_fs": 5.0e-324}, range_refusal("experiment.dt_fs", 5e-324)),
        ("sweep", {"experiment.sweep.n_points": 10 ** 12},
         range_refusal("experiment.sweep.n_points", 10 ** 12)),
    ], ids=["limits-power_step", "scan-step", "deconv-step-subnormal", "resolve-dt",
            "resolve-dt-subnormal", "timebin-dt-subnormal", "sweep-n_points"])
    def test_oversized_arrays_are_refused(self, sub, edits, cause, tmp_path, capsys):
        oversized = tmp_path / "oversized.scenario"
        oversized.write_text(edited(edits), encoding="utf-8")
        assert run(sub, str(oversized), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err == f"ucspd: error: {cause}\n"

    @pytest.mark.parametrize("sub", ["scan", "deconv", "report"])
    def test_one_point_scan_is_refused_by_its_key(self, sub, tmp_path, capsys):
        # a step wider than the scan leaves one point, and so no step at all
        step = RANGES["experiment.scan.step_fs"].high
        short = tmp_path / "short.scenario"
        short.write_text(edited({"experiment.scan.step_fs": step}, "l1_300mw"), encoding="utf-8")
        assert run(sub, str(short), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"ucspd: error: experiment.scan: step_fs {step} leaves one scan point from "
            "start_fs -1000.0 to stop_fs 1000.0; a scan needs at least 2"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["scan", "deconv", "report"])
    def test_scan_whose_arange_count_overflows_is_refused_by_its_key(self, sub, tmp_path, capsys):
        # np.arange would count from stop + step / 2 - start, which overflows
        # to inf; a start this far out is outside its key's range
        wide = tmp_path / "wide.scenario"
        wide.write_text(edited({"experiment.scan.start_fs": -1.797e308,
                                "experiment.scan.step_fs": 1.0e306}), encoding="utf-8")
        assert run(sub, str(wide), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err == f"ucspd: error: {range_refusal('experiment.scan.start_fs', -1.797e308)}\n"

    # scans across about 1e308 fs would overflow the gate fit's erf model,
    # the fit's bounds and the kernel grid's last times to inf; they are
    # refused by their start's range, and the same scans scaled into range
    # exit with their own code and no overflow warning
    @pytest.mark.parametrize("sub, scan, exit_code", [
        ("report", {"start_fs": -5e307, "stop_fs": 5e307, "step_fs": 1e306}, 2),
        ("report", {"start_fs": -8e307, "stop_fs": 8e307, "step_fs": 1e306}, 2),
        ("deconv", {"start_fs": -1e308, "stop_fs": 0.0, "step_fs": 1e308}, 0),
    ], ids=["erf-model", "fit-bounds", "kernel-times"])
    def test_scans_across_the_float_range_overflow_without_a_warning(
        self, sub, scan, exit_code, tmp_path, capsys
    ):
        scale = RANGES["experiment.scan.stop_fs"].high / -scan["start_fs"]
        scaled = {key: scale * value for key, value in scan.items()}
        for i, (values, expected) in enumerate(((scan, 1), (scaled, exit_code))):
            wide = tmp_path / f"wide{i}.scenario"
            wide.write_text(edited({f"experiment.scan.{key}": value
                                    for key, value in values.items()}, "l1_300mw"),
                            encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run(sub, str(wide), "--out", str(tmp_path / f"art{i}"), "--quiet")
            assert code == expected
        assert capsys.readouterr().err.startswith(
            "ucspd: error: experiment.scan.start_fs: must be "
        )

    def test_scan_shorter_than_a_fit_needs_still_runs(self, tmp_path):
        # only report's gate fit needs 8 points; see report-short-scan below
        short = tmp_path / "short.scenario"
        short.write_text(edited({"experiment.scan.stop_fs": -1700.0}), encoding="utf-8")
        assert run("scan", str(short), "--out", str(tmp_path / "art"), "--quiet") == 0

    def test_json_error_output(self, tmp_path, capsys):
        text = (BUNDLED / "l1_300mw.scenario").read_text(encoding="utf-8")
        dark = tmp_path / "dark.scenario"
        dark.write_text(
            text.replace("mean_photons_per_pulse: 0.1", "mean_photons_per_pulse: 0.0"),
            encoding="utf-8",
        )
        out = tmp_path / "art"
        code = run("report", str(dark), "--out", str(out), "--format", "json")
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["exit_code"] == 2
        assert payload["error"]["type"] == "FitConvergenceError"

    def test_validation_error_json(self, capsys):
        assert run("resolve", "no_such", "--format", "json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["exit_code"] == 1

    def test_quiet_suppresses_success_output(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert run("limits", "l2_300mw", "--out", str(out), "--quiet") == 0
        assert capsys.readouterr().out == ""

    # a growth of 0 fixes no curve; one whose exp(growth * eta) can overflow
    # is outside the key's range
    @pytest.mark.parametrize("growth, cause", [
        ("0.0", "detector.noise: growth_per_unit_eta 0.0 with eta_ref 0.101 gives "
                "exp(growth * eta_ref) - 1 = 0.0, which cannot fix n0_cps"),
        ("1.0e+300", range_refusal("detector.noise.growth_per_unit_eta", 1e300)),
        ("7000.0", range_refusal("detector.noise.growth_per_unit_eta", 7000.0)),
    ], ids=["0.0-cannot fix n0_cps", "1.0e+300-growth_per_unit_eta range",
            "7000.0-growth_per_unit_eta range"])
    def test_unusable_noise_growth_is_refused(self, growth, cause, tmp_path, capsys):
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        edited = tmp_path / "noisy.scenario"
        edited.write_text(
            text.replace("growth_per_unit_eta: 40.0", f"growth_per_unit_eta: {growth}"),
            encoding="utf-8",
        )
        assert run("limits", str(edited), "--out", str(tmp_path / "art")) == 1
        assert capsys.readouterr().err == f"ucspd: error: {cause}\n"

    def test_underflowing_pump_calibration_is_refused(self, tmp_path, capsys):
        # 1 - exp(-P / p_sat) would underflow to 0 for a subnormal power, which is
        # outside the key's range
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        edited = tmp_path / "underflow.scenario"
        edited.write_text(
            text.replace("calibration_power_mw: 300.0", "calibration_power_mw: 5.0e-324"),
            encoding="utf-8",
        )
        assert run("resolve", str(edited), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err == (
            f"ucspd: error: {range_refusal('detector.pump.calibration_power_mw', 5e-324)}\n"
        )

    @pytest.mark.parametrize("sub", ["limits", "report"])
    def test_underflowing_detected_pulse_count_is_a_numerical_error(self, sub, tmp_path, capsys):
        # T * R * eta would underflow to 0 for a subnormal rate, which is outside
        # the key's range; at the lowest rate, time and chain in range the
        # product is normal and the limit finite
        slow = tmp_path / "slow.scenario"
        slow.write_text(edited({"source.rep_rate_hz": 5.0e-324}), encoding="utf-8")
        assert run(sub, str(slow), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err == f"ucspd: error: {range_refusal('source.rep_rate_hz', 5e-324)}\n"
        lowest = {path: RANGES[path].low for path in (
            "source.rep_rate_hz", "experiment.limits.integration_s",
            "detector.chain.apd_efficiency", "detector.chain.fiber_coupling",
            "detector.chain.filter_transmittance")}
        slow.write_text(edited(lowest), encoding="utf-8")
        out = tmp_path / "lowest"
        assert run(sub, str(slow), "--out", str(out), "--quiet") == 0
        for artifact in out.glob("*.json"):
            json.loads(artifact.read_text(encoding="utf-8"), parse_constant=_refuse_constant)

    # a chain fraction of 0 is a zero factor, and exits 2; an efficiency
    # would underflow to 0 only from a subnormal power or calibration, which is
    # outside its key's range
    @pytest.mark.parametrize("sub, path, value, cause", [
        ("limits", "experiment.limits.power_start_mw", 5.0e-324,
         range_refusal("experiment.limits.power_start_mw", 5e-324)),
        ("limits", "detector.chain.apd_efficiency", 0.0,
         "integration_s * rep_rate_hz * external_eta = 1.0 * 76300000.0 * 0.0 is 0, "
         "so the limit per pulse is undefined"),
        ("limits", "source.pump_power_mw", 5.0e-324,
         range_refusal("source.pump_power_mw", 5e-324)),
        ("report", "source.pump_power_mw", 5.0e-324,
         range_refusal("source.pump_power_mw", 5e-324)),
        ("limits", "detector.pump.calibration_eta", 5.0e-324,
         range_refusal("detector.pump.calibration_eta", 5e-324)),
        ("report", "detector.pump.calibration_eta", 5.0e-324,
         range_refusal("detector.pump.calibration_eta", 5e-324)),
    ], ids=["power_start-underflow", "apd-zero", "pump_power-underflow",
            "pump_power-underflow-report", "calibration_eta-underflow",
            "calibration_eta-underflow-report"])
    def test_zero_external_efficiency_is_a_numerical_error(
        self, sub, path, value, cause, tmp_path, capsys
    ):
        scenario = tmp_path / "dim.scenario"
        scenario.write_text(edited({path: value}), encoding="utf-8")
        code = run(sub, str(scenario), "--out", str(tmp_path / "art"))
        assert code == (2 if value == 0.0 else 1)
        assert capsys.readouterr().err == f"ucspd: error: {cause}\n"

    @pytest.mark.parametrize("sub", ["resolve", "scan", "timebin", "deconv"])
    def test_gate_narrower_than_a_grid_step_runs(self, sub, tmp_path, capsys):
        # half the gate of the lowest tau_g, and of the lowest tau_g and
        # length together, rounds up to 0 steps of the 1 fs model grid
        thin = {"detector.crystal.tau_g_fs_per_mm": RANGES["detector.crystal.tau_g_fs_per_mm"].low}
        thinnest = {**thin, "detector.crystal.length_mm": RANGES["detector.crystal.length_mm"].low}
        for i, edits in enumerate((thin, thinnest)):
            scenario = tmp_path / f"thin{i}.scenario"
            scenario.write_text(edited(edits, "l1_300mw"), encoding="utf-8")
            assert run(sub, str(scenario), "--out", str(tmp_path / f"art{i}"), "--quiet") == 0
            assert capsys.readouterr().err == ""

    def test_gate_narrower_than_a_grid_step_is_one_sample_wide(self, tmp_path):
        rows = []
        for tau in (RANGES["detector.crystal.tau_g_fs_per_mm"].low, 0.5):
            scenario = tmp_path / f"thin-{tau}.scenario"
            scenario.write_text(
                edited({"detector.crystal.tau_g_fs_per_mm": tau}, "l1_300mw"), encoding="utf-8"
            )
            out = tmp_path / f"art-{tau}"
            assert run("resolve", str(scenario), "--out", str(out), "--quiet") == 0
            rows.append(read_table(out / "resolution.csv")[2])
        np.testing.assert_array_equal(*rows)

    def test_zero_counts_are_a_numerical_error(self, tmp_path, capsys):
        # no photons and no noise: every mean is 0
        scenario = tmp_path / "dark.scenario"
        scenario.write_text(edited({"source.mean_photons_per_pulse": 0.0,
                                    "detector.noise.dark_cps": 0.0,
                                    "detector.noise.calibration_noise_cps": 0.0}),
                            encoding="utf-8")
        assert run("deconv", str(scenario), "--out", str(tmp_path / "art")) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "ucspd: error: measured counts total 0, not above the background total 0 "
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["sweep", "fitvis"])
    def test_overflowing_sweep_rate_is_a_numerical_error(self, sub, tmp_path, capsys):
        # counts_scale / dwell_s would overflow for a subnormal dwell, which is
        # outside its key's range; the largest rate in range is finite, and
        # its mean is refused by the sampler's limit
        largest = {"experiment.sweep.dwell_s": RANGES["experiment.sweep.dwell_s"].low,
                   "experiment.sweep.counts_scale": RANGES["experiment.sweep.counts_scale"].high}
        for edits, code, cause in (
            ({"experiment.sweep.dwell_s": 5.0e-324}, 1,
             range_refusal("experiment.sweep.dwell_s", 5e-324) + "\n"),
            (largest, 2, "Poisson mean 6.606666666666666e+19 at coordinate 0 is above"),
        ):
            scenario = tmp_path / "brief.scenario"
            scenario.write_text(edited(edits), encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert run(sub, str(scenario), "--out", str(tmp_path / "art")) == code
            assert capsys.readouterr().err.startswith(f"ucspd: error: {cause}")

    # values the code computes from checked scenario values are checked where
    # they are computed.  An n0_cps that would overflow, a pump that would
    # not saturate at all, scan coordinates rounded together and a phase
    # difference that would overflow come only from values outside their keys'
    # ranges: those values are refused by the range their key names, and the
    # pump at its least saturated in range is refused by eta_max
    @pytest.mark.parametrize("sub, edits, cause", [
        ("limits", {"detector.noise.growth_per_unit_eta": 1.0e-308},
         range_refusal("detector.noise.growth_per_unit_eta", 1e-308)),
        ("resolve", {"detector.pump.calibration_power_mw": 10.0,
                     "detector.pump.calibration_eta": 0.99},
         "detector.pump: eta_max must be in (0, 1], got 20.29912482813523"),
        ("resolve", {"detector.pump.calibration_power_mw":
                     RANGES["detector.pump.calibration_power_mw"].low,
                     "detector.pump.p_sat_mw": RANGES["detector.pump.p_sat_mw"].high},
         "detector.pump: eta_max must be in (0, 1], got 101000000."),
        ("resolve", {"detector.noise.calibration_noise_cps": 50.0},
         "detector.noise: reference noise 50.0 cps is below the dark floor 100.0 cps"),
        ("scan", {"experiment.scan.start_fs": 1.0e16,
                  "experiment.scan.stop_fs": 1.00000000000001e16,
                  "experiment.scan.step_fs": 1.0},
         range_refusal("experiment.scan.start_fs", 1e16)),
        ("report", {"experiment.scan.signal": "gaussian", "experiment.scan.stop_fs": -1700.0},
         "experiment.scan: the gate fit needs at least 8 scan points, got 5"),
        ("timebin", {"experiment.timebin.phase_rad": 1.0e308,
                     "experiment.timebin.phase_prime_rad": -1.0e308},
         range_refusal("experiment.timebin.phase_rad", 1e308)),
    ], ids=["noise-n0", "pump-eta-max-above-1", "pump-no-saturation", "noise-below-dark",
            "scan-rounded-coordinates", "report-short-scan", "timebin-phases"])
    def test_computed_values_are_refused(self, sub, edits, cause, tmp_path, capsys):
        scenario = tmp_path / "edge.scenario"
        scenario.write_text(edited(edits), encoding="utf-8")
        assert run(sub, str(scenario), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ucspd: error: {cause}")
        assert "Traceback" not in err

    # refusals of single edits of l2: each exits with its code and names its
    # cause, with no traceback
    # the largest float length and integration time would overflow the model
    # grid's sample count and the noise counts: both are outside their keys'
    # ranges
    @pytest.mark.parametrize("sub, text, code, cause", [
        ("resolve", edited({"experiment.dt_fs": RANGES["experiment.dt_fs"].high}), 1,
         "ucspd: error: experiment.dt_fs: must be at most half of source.pump_fwhm_fs "
         f"(200.0 fs), got {RANGES['experiment.dt_fs'].high}\n"),
        ("sweep", edited({"experiment.sweep.n_points": 3}), 1,
         f"ucspd: error: {range_refusal('experiment.sweep.n_points', 3)}\n"),
        ("resolve", edited({"detector.crystal.length_mm": 1.7976931348623157e308}), 1,
         f"ucspd: error: {range_refusal('detector.crystal.length_mm', 1.7976931348623157e308)}\n"),
        ("limits", edited({"experiment.limits.integration_s": 1.7976931348623157e308}), 1,
         "ucspd: error: "
         f"{range_refusal('experiment.limits.integration_s', 1.7976931348623157e308)}\n"),
        # a key written twice, which a YAML mapping cannot hold, named at its
        # line in the file
        ("resolve", (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8").replace(
            "    length_mm: 2.0\n", "    length_mm: 2.0\n    length_mm: 3.0\n"), 1,
         "{path}, line 11: duplicate key 'length_mm'\n"),
    ], ids=["coarse", "few", "long", "endless", "twice"])
    def test_edited_scenario_is_refused_by_its_cause(
        self, sub, text, code, cause, tmp_path, capsys
    ):
        scenario = tmp_path / "edited.scenario"
        scenario.write_text(text, encoding="utf-8")
        assert run(sub, str(scenario), "--out", str(tmp_path / "art")) == code
        err = capsys.readouterr().err
        assert cause.replace("{path}", str(scenario)) in err
        assert err.startswith("ucspd: error: scenario is not valid YAML: " if "{path}" in cause
                              else "ucspd: error: ")
        assert "Traceback" not in err

    # each construct outside the scenario reader's YAML subset in place of
    # l2's line 10, its crystal length: exit 1 naming the file, the line and
    # the cause, with no traceback
    @pytest.mark.parametrize("line, cause", [
        ("\tlength_mm: 2.0", "character '\\t' is not allowed"),
        ("    length_mm: {mm: 2.0}", "unsupported scalar '{mm: 2.0}'"),
        ("    length_mm: [2.0]", "unsupported scalar '[2.0]'"),
        ("    length_mm: &length 2.0", "unsupported scalar '&length 2.0'"),
        ("    length_mm: *length", "unsupported scalar '*length'"),
        ("    length_mm: !!float 2", "unsupported scalar '!!float 2'"),
        ("    length_mm: >", "unsupported scalar '>'"),
        ("    - 2.0", "expected 'key: value' or 'key:'"),
        ("    length_mm: 0x2", "unsupported scalar '0x2'"),
        ("    length_mm: 02", "unsupported scalar '02'"),
        ("    length_mm: 2_0", "unsupported scalar '2_0'"),
        ("    length_mm: 1:30", "unsupported scalar '1:30'"),
        ("    length_mm: on", "unsupported scalar 'on'"),
        # more digits than Python converts to an int
        ("    length_mm: 1" + "0" * 5000, "Exceeds the limit (4300 digits) for integer string"),
    ], ids=["tab", "flow-mapping", "flow-sequence", "anchor", "alias", "tag", "block-scalar",
            "sequence", "hex", "octal", "underscore", "sexagesimal", "yaml-1.1-bool",
            "5000-digits"])
    def test_yaml_outside_the_subset_is_refused_at_its_line(self, line, cause, tmp_path, capsys):
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        scenario = tmp_path / "edited.scenario"
        scenario.write_text(text.replace("    length_mm: 2.0", line), encoding="utf-8")
        assert run("resolve", str(scenario), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"ucspd: error: scenario is not valid YAML: {scenario}, line 10: {cause}"
        )
        assert "Traceback" not in err

    # every CSV writes the name into its "# scenario=" line, so a name that
    # would break it there is refused at parse, escaped or not
    @pytest.mark.parametrize("escaped, char", [
        ("\\n", "\n"), ("\\r", "\r"), ("\\t", "\t"), ("\\u0085", "\x85"), ("\\u2028", "\u2028"),
    ], ids=["line-feed", "carriage-return", "tab", "next-line", "line-separator"])
    def test_name_with_a_control_character_is_refused_at_parse(
        self, escaped, char, tmp_path, capsys
    ):
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        scenario = tmp_path / "named.scenario"
        scenario.write_text(text.replace("name: l2_300mw", f'name: "l2{escaped}foo,1"'),
                            encoding="utf-8")
        out = tmp_path / "art"
        assert run("resolve", str(scenario), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"ucspd: error: name: character {char!r} is not allowed\n"
        assert not out.exists()

    def test_output_dir_with_a_line_break_is_refused_at_parse(
        self, tmp_path, monkeypatch, capsys
    ):
        # each artifact's path is printed on a "wrote," line, where a line
        # break in the directory would forge another one
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        scenario = tmp_path / "forged.scenario"
        scenario.write_text(text.replace("output_dir: out", 'output_dir: "od\\nwrote,fake.csv"'),
                            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run("limits", str(scenario)) == 1
        captured = capsys.readouterr()
        assert captured.err == "ucspd: error: output_dir: character '\\n' is not allowed\n"
        assert "wrote," not in captured.out
        assert os.listdir(tmp_path) == ["forged.scenario"]

    # --out is printed on the "wrote," lines as output_dir is, and an empty
    # one would name no directory
    @pytest.mark.parametrize("out, cause", [
        ("od\nwrote,fake.csv", "character '\\n' is not allowed"),
        ("", "expected a non-empty string, got ''"),
    ], ids=["line-break", "empty"])
    def test_out_the_string_rule_refuses_makes_no_directory(
        self, out, cause, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert run("limits", "l2_300mw", "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"ucspd: error: --out: {cause}\n"
        assert captured.out == ""
        assert os.listdir(tmp_path) == []

    # an SVG draws the label as XML text, which can hold no control character
    @pytest.mark.parametrize("label, char", [
        ('"L2\\u0001x"', "\x01"), ('"a\\u2028b"', "\u2028"),
    ], ids=["start-of-heading", "line-separator"])
    def test_label_with_a_control_character_is_refused_at_parse(
        self, label, char, tmp_path, capsys
    ):
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        scenario = tmp_path / "labelled.scenario"
        scenario.write_text(text.replace("label: L2", f"label: {label}"), encoding="utf-8")
        out = tmp_path / "art"
        assert run("resolve", str(scenario), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"ucspd: error: detector.crystal.label: character {char!r} is not allowed\n"
        assert not out.exists()

    def test_default_empty_label_runs(self, tmp_path):
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        scenario = tmp_path / "unlabelled.scenario"
        scenario.write_text(text.replace("    label: L2\n", ""), encoding="utf-8")
        out = tmp_path / "art"
        assert run("resolve", str(scenario), "--out", str(out), "--quiet") == 0
        assert json.loads((out / "resolution.json").read_text(encoding="utf-8"))["label"] == ""
        # the series falls back to the y axis's name as its legend
        texts = [node.text for node in ElementTree.parse(out / "resolution.svg").iter(
            "{http://www.w3.org/2000/svg}text")]
        assert texts.count("T(t)") == 2

    def test_options_do_not_carry_over_between_calls(self, tmp_path, capsys):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run("limits", "l2_300mw", "--out", str(a), "--format", "json", "--seed", "42") == 0
        first = json.loads(capsys.readouterr().out)
        assert first["scenario_hash"] != scenario_hash()
        assert run("limits", "l2_300mw", "--out", str(b), "--quiet") == 0
        assert capsys.readouterr().out == ""
        assert read_table(b / "limits.csv")[0]["scenario_hash"] == scenario_hash()
        assert run("limits", "l2_300mw", "--out", str(c)) == 0
        assert capsys.readouterr().out.startswith(f"wrote,{c / 'limits.csv'}\n")

    def test_json_success_output(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert run("limits", "l2_300mw", "--out", str(out), "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subcommand"] == "limits"
        assert payload["scenario_hash"] == scenario_hash()
        assert "limits.csv" in payload["artifacts"]



SUBCOMMANDS = ("resolve", "scan", "sweep", "timebin", "limits", "deconv", "fitvis", "report")


# each numeric key at each end of its range, and at 0 where its range holds
# 0; and the nearest ints or floats outside the ranges' ends
EDGE_EDITS = [
    (path, value)
    for path, interval in RANGES.items()
    for value in (interval.low, interval.high, *[0.0] * interval.zero)
]
OUTSIDE_EDITS = [
    (path, value)
    for path, interval in RANGES.items()
    for value in ((interval.low - 1, interval.high + 1) if isinstance(interval.low, int) else (
        math.nextafter(interval.low, -math.inf), math.nextafter(interval.high, math.inf),
        *[math.nextafter(0.0, -math.inf), math.nextafter(0.0, math.inf)] * interval.zero))
]
# a refusal names a key path, or (exit 1) the size or values of an array the
# scenario generates; exit 2 is a numerical failure by the CLI's contract
KEY_PATH = re.compile(r"\b(detector|source|experiment)\.[a-z_.]+|\bseed\b")
ARRAY_CAUSE = re.compile(r"\bsamples\b|\bscan points\b")


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _quoted(text):
    """``text`` as a double-quoted scalar the scenario reader reads back: JSON's
    escapes, and ``\\u`` escapes for the characters it refuses on a line."""
    return ucspd.scenario._UNREADABLE.sub(
        lambda bad: f"\\u{ord(bad[0]):04x}", json.dumps(text, ensure_ascii=False))


# one path name, so that a drawn directory stays inside the test's own: no
# separator, and no surrogate, which has no UTF-8 form; PLAIN_NAME holds no
# character the scenario's string rule refuses, EDGE_NAME often one from an
# edge of the rule
PLAIN_NAME = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zl", "Zp"),
                                   exclude_characters="/\ufffe\uffff"), max_size=8)
EDGE_NAME = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="/")
                    | st.sampled_from("\t\n\x1f\x7f\x85\x9f\u2028\u2029\ufffe\uffff"),
                    max_size=8)


def _tree(root):
    return {os.path.join(top, entry)
            for top, dirs, files in os.walk(root) for entry in dirs + files}


def _check_artifact(path, name, scenario_hash):
    """A CSV, JSON or SVG file parses and carries the run's name and hash, and a
    manifest's digests are those of its files."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        lines = text.splitlines()
        metadata = dict(line[2:].partition("=")[::2] for line in lines if line.startswith("# "))
        rows = list(csv.reader(line for line in lines if not line.startswith("#")))
        assert (metadata["scenario"], metadata["scenario_hash"]) == (name, scenario_hash)
        assert len(rows) > 1 and {len(row) for row in rows} == {len(rows[0])}
    elif path.suffix == ".json":
        payload = json.loads(text, parse_constant=_refuse_constant)
        assert (payload["scenario"], payload["scenario_hash"]) == (name, scenario_hash)
        for listed, digest in payload.get("content_sha256", {}).items():
            assert hashlib.sha256((path.parent / listed).read_bytes()).hexdigest() == digest
    else:
        assert path.suffix == ".svg"
        parser = ElementTree.XMLParser(target=ElementTree.TreeBuilder(insert_comments=True))
        root = ElementTree.fromstring(text, parser)
        comments = [node.text for node in root.iter() if node.tag is ElementTree.Comment]
        assert f" scenario_hash={scenario_hash} " in comments


class TestEdgeValues:
    @settings(max_examples=100, deadline=None)
    @given(edit=st.sampled_from(EDGE_EDITS), sub=st.sampled_from(SUBCOMMANDS),
           name=st.sampled_from(("l1_300mw", "l2_300mw", "l3_300mw")))
    # the largest noise counts and detected pulses of a single edit
    @example(edit=("experiment.limits.integration_s",
                   RANGES["experiment.limits.integration_s"].high), name="l2_300mw", sub="limits")
    # the largest scenario seed through the scan's per-point substreams
    @example(edit=("seed", 2 ** 64 - 1), name="l2_300mw", sub="scan")
    # the most and fewest sweep points, through the sine fit
    @example(edit=("experiment.sweep.n_points", 1000000), name="l2_300mw", sub="fitvis")
    @example(edit=("experiment.sweep.n_points", 5), name="l2_300mw", sub="report")
    def test_every_accepted_value_runs_or_fails_by_name(self, edit, name, sub):
        path, value = edit
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            scenario = Path(tmp) / "edge.scenario"
            scenario.write_text(edited({path: value}, name), encoding="utf-8")
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(sub, str(scenario), "--out", str(Path(tmp) / "art"), "--quiet")
            if code == 0:
                # NaN and Infinity are not JSON
                for artifact in (Path(tmp) / "art").glob("*.json"):
                    json.loads(artifact.read_text(encoding="utf-8"),
                               parse_constant=_refuse_constant)
        message = err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in message
        if code == 1:
            assert KEY_PATH.search(message) or ARRAY_CAUSE.search(message), message
        if code == 2:
            assert message.startswith("ucspd: error: "), message

    @settings(max_examples=200, deadline=None)
    @given(strings=st.fixed_dictionaries({"name": PLAIN_NAME, "output_dir": PLAIN_NAME,
                                          "label": PLAIN_NAME, "out": st.none() | PLAIN_NAME}),
           # at most one string from the edge, so that about half the runs write
           edge=st.none() | st.tuples(st.sampled_from(("name", "output_dir", "label", "out")),
                                      EDGE_NAME),
           sub=st.sampled_from(("resolve", "limits", "sweep")),
           fmt=st.sampled_from(("csv", "json")))
    # characters that CSV, XML and stdout's lines each give a meaning to
    @example(strings={"name": 'l2,"x"', "output_dir": "..", "label": "<&]]>-->", "out": None},
             edge=None, sub="resolve", fmt="csv")
    @example(strings={"name": "x scenario_hash=zzz", "output_dir": "o", "label": "", "out": "."},
             edge=None, sub="sweep", fmt="json")
    @example(strings={"name": "\u00e9\U0001f600 ", "output_dir": "o", "label": "L2", "out": None},
             edge=("out", ""), sub="limits", fmt="csv")
    @example(strings={"name": "l2", "output_dir": "o", "label": "L2", "out": None},
             edge=("name", "l2\x85"), sub="limits", fmt="csv")
    def test_every_run_keeps_the_output_contract(self, strings, edge, sub, fmt):
        if edge is not None:
            strings = {**strings, edge[0]: edge[1]}
        name, output_dir, label, out = map(strings.get, ("name", "output_dir", "label", "out"))
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        text = text.replace("name: l2_300mw", f"name: {_quoted(name)}")
        text = text.replace("output_dir: out", f"output_dir: {_quoted(output_dir)}")
        text = text.replace("label: L2", f"label: {_quoted(label)}")
        stdout, cwd = io.StringIO(), os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            # the scenario sits above the working directory, where a drawn ".." writes
            scenario = Path(tmp) / "drawn.scenario"
            scenario.write_text(text, encoding="utf-8")
            work = Path(tmp) / "a" / "b"
            work.mkdir(parents=True)
            before = _tree(tmp)
            argv = [sub, str(scenario), "--format", fmt] + ([] if out is None else ["--out", out])
            os.chdir(work)
            try:
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run(*argv)
            finally:
                os.chdir(cwd)
            assert code in (0, 1)
            if code == 1:
                assert _tree(tmp) == before
                return
            shown = Path(output_dir if out is None else out)
            directory = Path(os.path.normpath(work / shown))
            names = sorted(path.name for path in directory.iterdir() if path.is_file())
            assert _tree(tmp) - before <= {str(directory), *(str(directory / n) for n in names)}
            scenario_hash = parse_scenario(text).scenario_hash
            if fmt == "json":
                payload = json.loads(stdout.getvalue(), parse_constant=_refuse_constant)
                assert sorted(payload["artifacts"]) == names
                assert (payload["out"], payload["scenario_hash"]) == (str(shown), scenario_hash)
            else:
                lines = stdout.getvalue().splitlines()
                wrote = lines[:len(names)]
                assert sorted(wrote) == sorted(f"wrote,{shown / n}" for n in names)
                assert all("," in line and not line.startswith("wrote,")
                           for line in lines[len(names):])
            for n in names:
                _check_artifact(directory / n, name, scenario_hash)

    @pytest.mark.parametrize("i, edit", enumerate(OUTSIDE_EDITS),
                             ids=[f"{path}={value!r}" for path, value in OUTSIDE_EDITS])
    def test_every_value_outside_its_range_is_refused_at_parse(self, i, edit, tmp_path, capsys):
        path, value = edit
        scenario = tmp_path / "outside.scenario"
        scenario.write_text(edited({path: value}), encoding="utf-8")
        out = tmp_path / "art"
        assert run(SUBCOMMANDS[i % len(SUBCOMMANDS)], str(scenario), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"ucspd: error: {range_refusal(path, value)}\n"
        # refused before the output directory, or anything else, is made
        assert not out.exists()


class TestCsvBytes:
    def test_dense_tables_are_the_same_bytes_either_side_of_the_cut(self, tmp_path, monkeypatch):
        # l2 scanned at 1 fs: 3601 scan rows, and model-grid waveforms with
        # values below 1e-13, down to where the power of ten the array path
        # scales by is inexact
        scenario = tmp_path / "l2_1fs.scenario"
        scenario.write_text(edited({"experiment.scan.step_fs": 1.0}), encoding="utf-8")
        names = ("scan.csv", "deconv_recovered.csv", "timebin_measured.csv")
        written = {}
        for rows in (1, 10 ** 9):
            monkeypatch.setattr(waveform, "ARRAY_MIN_ROWS", rows)
            out = tmp_path / f"cut_{rows}"
            for sub in ("scan", "deconv", "timebin"):
                assert run(sub, str(scenario), "--out", str(out), "--quiet") == 0
            written[rows] = [(out / name).read_bytes() for name in names]
        assert written[1] == written[10 ** 9]
        tables = [read_table(tmp_path / "cut_1" / name)[2] for name in names]
        assert all(len(table) > ARRAY_MIN_ROWS for table in tables)
        for table in tables[1:]:
            assert ((table[:, 1] > 0) & (table[:, 1] < 1e-13)).any()

    def test_every_table_of_a_dense_scenario_is_held_in_full(self, tmp_path, monkeypatch):
        # each of the eight subcommands on l2 scanned at 1 fs: every column of
        # every table from ARRAY_MIN_ROWS rows on is written from the byte
        # buffer, none per row
        scenario = tmp_path / "l2_1fs.scenario"
        scenario.write_text(edited({"experiment.scan.step_fs": 1.0}), encoding="utf-8")
        held = []

        def spy(cells):
            def spied(column):
                low, high, ok = cells(column)
                held.append((column.size, bool(ok.all())))
                return low, high, ok
            return spied

        for name in ("_float_cells", "_int_cells"):
            monkeypatch.setattr(waveform, name, spy(getattr(waveform, name)))
        columns = []
        for sub in SUBCOMMANDS:
            out = tmp_path / sub
            assert run(sub, str(scenario), "--out", str(out), "--quiet") == 0
            for path in out.glob("*.csv"):
                _, header, table = read_table(path)
                if len(table) >= ARRAY_MIN_ROWS:
                    columns += [len(table)] * len(header.split(","))
        assert len(columns) >= 10
        assert sorted(held) == sorted((rows, True) for rows in columns)


class TestArtifactWriter:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_artifacts_list_exactly_the_files_written(self, sub, tmp_path, capsys):
        out = tmp_path / "art"
        assert run(sub, "l2_300mw", "--out", str(out), "--format", "json") == 0
        artifacts = json.loads(capsys.readouterr().out)["artifacts"]
        assert len(artifacts) == len(set(artifacts))
        assert set(artifacts) == set(os.listdir(out))

    def test_skipped_plot_is_not_reported(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("no renderer")

        monkeypatch.setattr("ucspd.cli.line_plot", broken)
        out = tmp_path / "art"
        assert run("resolve", "l2_300mw", "--out", str(out), "--format", "json") == 0
        captured = capsys.readouterr()
        assert "plot skipped" in captured.err
        payload = json.loads(captured.out)
        assert payload["artifacts"] == ["resolution.csv", "resolution.json"]
        assert sorted(os.listdir(out)) == ["resolution.csv", "resolution.json"]

    def test_failed_plot_keeps_the_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "art"
        assert run("resolve", "l2_300mw", "--out", str(out), "--quiet") == 0
        before = (out / "resolution.svg").read_bytes()

        def partial(path, *args, **kwargs):
            Path(path).write_text("<svg", encoding="utf-8")
            raise OSError("disk full")

        monkeypatch.setattr("ucspd.cli.line_plot", partial)
        assert run("resolve", "l2_300mw", "--out", str(out), "--quiet") == 0
        assert (out / "resolution.svg").read_bytes() == before
        assert sorted(os.listdir(out)) == ["resolution.csv", "resolution.json", "resolution.svg"]

    def test_failed_run_leaves_an_earlier_runs_files_as_they_were(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert run("deconv", "l2_300mw", "--out", str(out), "--quiet") == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        # in range, but deconv refuses its all-zero scan after staging it
        dark = tmp_path / "dark.scenario"
        dark.write_text(edited({"source.mean_photons_per_pulse": 0.0,
                                "detector.noise.dark_cps": 0.0,
                                "detector.noise.calibration_noise_cps": 0.0}),
                        encoding="utf-8")
        assert run("deconv", str(dark), "--out", str(out), "--quiet") == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert run("report", "l2_300mw", "--out", str(out), "--quiet") == 0

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_run_that_fails_in_its_last_stage_writes_no_file(self, sub, tmp_path, monkeypatch):
        staged = cli._DISPATCH[sub]

        def fails_last(scenario, files):
            staged(scenario, files)
            assert files.names
            raise NumericalError("the last stage failed")

        monkeypatch.setitem(cli._DISPATCH, sub, fails_last)
        out = tmp_path / "art"
        assert run(sub, "l2_300mw", "--out", str(out), "--quiet") == 2
        assert os.listdir(out) == []

    def test_out_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="utf-8")
        assert run("resolve", "l2_300mw", "--out", str(taken)) == 1
        err = capsys.readouterr().err
        assert err.startswith("ucspd: error:")
        assert str(taken) in err

    def test_out_is_a_file_json(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory", encoding="utf-8")
        assert run("resolve", "l2_300mw", "--out", str(taken), "--format", "json") == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["exit_code"] == 1
        assert str(taken) in error["message"]

    def test_failed_write_names_the_artifact(self, tmp_path, capsys, monkeypatch):
        def refused(path, *args, **kwargs):
            Path(path).write_text("t_fs", encoding="utf-8")
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("ucspd.cli.write_csv", refused)
        out = tmp_path / "art"
        assert run("resolve", "l2_300mw", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(out / "resolution.csv") in captured.err
        assert os.listdir(out) == []


# Runs in a fresh interpreter with the modules named after the output
# directory blocked, so that any import of one raises: every subcommand on l1
# through main(), then a gate fit.
BLOCKED_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, math, sys
    blocked = sys.argv[2:]
    sys.modules.update(dict.fromkeys(blocked, None))
    from ucspd.cli import main
    codes = {}
    for sub in %r:
        with contextlib.redirect_stdout(io.StringIO()):
            codes[sub] = main([sub, "l1_300mw", "--out", sys.argv[1], "--quiet"])
    import numpy as np
    from ucspd.analysis import erf_gate_model_and_jacobian, fit_erf_gate
    q = math.sqrt(math.log(2.0) / (200.0 ** 2 + 240.0 ** 2))
    delays = np.arange(-1000.0, 1001.0, 25.0)
    expected, _ = erf_gate_model_and_jacobian(delays, 408.6, 1e4, 0.0, 5.0, q)
    fit = fit_erf_gate(delays, np.round(expected), 200.0, 240.0)
    print(json.dumps({
        "exit_codes": codes,
        "blocked_loaded": sorted(
            m for m, mod in sys.modules.items()
            if mod is not None and any(m == b or m.startswith(b + ".") for b in blocked)
        ),
        "gate_width_fs": fit.gate_width_fs,
    }))
""" % (SUBCOMMANDS,))


# top-level keys of every JSON artifact, plus the keys of its "config" or
# "settings" block, which are built from the scenario sections and results
JSON_KEYS = {
    "resolution.json": {
        "scenario", "scenario_hash", "L_mm", "tau_g", "label", "gate_width_fs", "fwhm_fs",
        "pump_fwhm_fs", "pump_power_mw", "eta_internal", "eta_external", "noise_cps",
    },
    "scan_manifest.json": {
        "scenario", "scenario_hash", "seed", "stage_seed", "rng_scheme", "model_versions",
        "config", "content_sha256", "generated_utc", "config.kind", "config.signal",
        "config.start_fs", "config.stop_fs", "config.step_fs", "config.dwell_s",
        "config.noise_cps",
    },
    "sweep_manifest.json": {
        "scenario", "scenario_hash", "seed", "stage_seed", "rng_scheme", "model_versions",
        "config", "content_sha256", "generated_utc", "config.kind", "config.n_points",
        "config.dwell_s", "config.counts_scale", "config.include_noise", "config.contrast",
    },
    "timebin_probabilities.json": {
        "scenario", "scenario_hash", "slot_spacing_fs", "phase_rad", "phase_prime_rad",
        "contrast", "probabilities", "center_bin_expectation",
    },
    "limits.json": {
        "scenario", "scenario_hash", "best_power_mw", "min_limit_per_pulse", "integration_s",
        "limit_at_scenario_power",
    },
    "deconv_report.json": {
        "scenario", "scenario_hash", "stage_seed", "background_cps", "iterations_run",
        "stop_reason", "deviance_per_point", "residual", "max_flux_drift", "settings",
        "settings.algorithm", "settings.iterations",
    },
    "fitvis_report.json": {
        "scenario", "scenario_hash", "stage_seed", "n_points", "dwell_s", "offset",
        "offset_sigma", "amplitude", "amplitude_sigma", "phase0_rad", "phase0_sigma_rad",
        "visibility", "visibility_sigma", "reduced_chi2", "true_contrast",
    },
    "report_summary.json": {
        "scenario", "scenario_hash", "seed", "model_versions", "fwhm_fs", "gate_width_fs",
        "gate_fit", "eta_internal", "eta_external", "noise_cps", "limit_per_pulse",
        "visibility", "timebin_probabilities",
    },
}


class TestJsonKeys:
    @pytest.mark.parametrize("name", ["l1_300mw", "l2_300mw"])
    def test_json_artifact_keys_are_pinned(self, name, tmp_path):
        out = tmp_path / "art"
        for sub in SUBCOMMANDS:
            assert run(sub, name, "--out", str(out), "--quiet") == 0
        assert {p.name for p in out.glob("*.json")} == set(JSON_KEYS)
        for file, expected in JSON_KEYS.items():
            payload = json.loads((out / file).read_text(encoding="utf-8"))
            keys = set(payload) | {
                f"{block}.{key}" for block in ("config", "settings") if block in payload
                for key in payload[block]
            }
            assert keys == expected, file


class TestSvgXml:
    @pytest.mark.parametrize("name", ["l1_300mw", "l2_300mw", "l3_300mw"])
    def test_every_plot_of_a_bundled_scenario_is_well_formed_xml(self, name, tmp_path):
        out = tmp_path / "art"
        for sub in SUBCOMMANDS:
            assert run(sub, name, "--out", str(out), "--quiet") == 0
        plots = sorted(out.glob("*.svg"))
        assert len(plots) == 7  # every subcommand but report draws one
        for path in plots:
            root = ElementTree.parse(path).getroot()
            assert root.tag == "{http://www.w3.org/2000/svg}svg", path.name


class TestImportCost:
    # the stage seeds and the count streams come from the package's own
    # SeedSequence mixing; numpy 1.x loads numpy.random on a bare import
    # numpy, so there it cannot be blocked
    @pytest.mark.parametrize("blocked", [
        ("scipy", "yaml"), ("scipy", "yaml", "numpy.random"),
    ], ids=["scipy-yaml", "scipy-yaml-numpy.random"])
    def test_every_subcommand_runs_with_scipy_blocked(self, blocked, tmp_path):
        env = dict(os.environ)
        src = str(Path(ucspd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if "numpy.random" in blocked:
            bare = subprocess.run(
                [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            if bare.stdout != "False\n":
                pytest.skip(f"import numpy {np.__version__} loads numpy.random itself")
        proc = subprocess.run(
            [sys.executable, "-c", BLOCKED_IMPORT_PROBE, str(tmp_path / "art"), *blocked],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert probe["exit_codes"] == dict.fromkeys(SUBCOMMANDS, 0), proc.stderr
        assert probe["blocked_loaded"] == []
        assert probe["gate_width_fs"] == pytest.approx(408.6, rel=1e-3)

    @pytest.mark.parametrize("module", ["importlib.resources", "dataclasses", "scipy", "yaml"])
    def test_cli_import_loads_no(self, module):
        # -S skips the site .pth files, which may import importlib.resources
        # themselves; the package, numpy and PyYAML are put on the path
        # directly, so PyYAML stays importable, as does scipy, installed
        # beside numpy
        paths = {str(Path(m.__file__).resolve().parents[1]) for m in (ucspd, np, yaml)}
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sorted(paths)))
        probe = f"import sys, ucspd.cli; print({module!r} in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
