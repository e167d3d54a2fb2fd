"""Command line: artifacts, reproducibility, hash policing, exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

import ucspd
from scenario_edits import edited
from waveform_csv import read_csv
from waveform_measures import peak_time_fs
from ucspd.analysis import deconvolve
from ucspd.cli import main
from ucspd.detector import detection_limit
from ucspd.errors import ScenarioError
from ucspd.scenario import _SCHEMA, parse_scenario
from ucspd import svgplot
from ucspd.simulate import derive_stage_seed
from ucspd.waveform import fwhm

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
        out = tmp_path / "art"
        # a seed whose dark scan totals less than its background: the premise
        # is checked below from the scan the run wrote before giving up
        assert run("deconv", str(dark), "--out", str(out), "--seed", "1") == 2
        assert "not above the background total" in capsys.readouterr().err
        metadata, _, columns = read_table(out / "deconv_scan.csv")
        noise = parse_scenario(dark.read_text(encoding="utf-8")).noise_cps_at()
        background = noise * float(metadata["dwell_s"])
        assert columns[:, 1].sum() <= columns.shape[0] * background


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
        assert run("resolve", "l1_300mw", "--scenario", "l2_300mw") == 1
        assert "positional" in capsys.readouterr().err

    def test_matching_scenario_arguments_allowed(self, tmp_path):
        out = tmp_path / "art"
        assert run("resolve", "l1_300mw", "--scenario", "l1_300mw",
                   "--out", str(out), "--quiet") == 0

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

    @pytest.mark.parametrize("sub, path, value", [
        ("scan", ("source", "mean_photons_per_pulse"), 1.0e20),
        ("scan", ("experiment", "scan", "dwell_s"), 1.0e15),
        ("sweep", ("experiment", "sweep", "counts_scale"), 1.0e20),
    ], ids=["scan-mean_photons", "scan-dwell", "sweep-counts_scale"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mean_above_the_poisson_limit_exits_2(self, sub, path, value, fmt, tmp_path, capsys):
        doc = yaml.safe_load((BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8"))
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        edited = tmp_path / "huge.scenario"
        edited.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        assert run(sub, str(edited), "--out", str(tmp_path / "art"), "--format", fmt) == 2
        captured = capsys.readouterr()
        if fmt == "json":
            error = json.loads(captured.out)["error"]
            assert (error["type"], error["exit_code"]) == ("NumericalError", 2)
            message = error["message"]
        else:
            message = captured.err
        assert "Poisson mean" in message and "at coordinate" in message
        assert "the largest the count sampler accepts" in message

    @pytest.mark.parametrize("sub, path, value, cause", [
        ("limits", ("experiment", "limits", "power_step_mw"), 1.0e-300,
         "experiment.limits: power_step_mw 1e-300 needs 4.5e+302 samples"),
        ("scan", ("experiment", "scan", "step_fs"), 1.0e-300,
         "experiment.scan: step_fs 1e-300 needs 3.6e+303 samples"),
        ("deconv", ("experiment", "scan", "step_fs"), 5.0e-324,
         "experiment.scan: step_fs 5e-324 needs inf samples"),
        ("resolve", ("experiment", "dt_fs"), 1.0e-300,
         "a time grid at 1e-300 fs spacing needs 1.6086e+303 samples"),
        ("resolve", ("experiment", "dt_fs"), 5.0e-324,
         "a time grid at 5e-324 fs spacing needs inf samples"),
        ("timebin", ("experiment", "dt_fs"), 5.0e-324,
         "a time grid at 5e-324 fs spacing needs inf samples"),
        ("sweep", ("experiment", "sweep", "n_points"), 10 ** 12,
         "experiment.sweep.n_points: 1000000000000 points"),
    ], ids=["limits-power_step", "scan-step", "deconv-step-subnormal", "resolve-dt",
            "resolve-dt-subnormal", "timebin-dt-subnormal", "sweep-n_points"])
    def test_oversized_arrays_are_refused(self, sub, path, value, cause, tmp_path, capsys):
        doc = yaml.safe_load((BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8"))
        section = doc
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        edited = tmp_path / "oversized.scenario"
        edited.write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")
        assert run(sub, str(edited), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ucspd: error: {cause}")
        assert "more than the 1000000 allowed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["scan", "deconv", "report"])
    def test_one_point_scan_is_refused_by_its_key(self, sub, tmp_path, capsys):
        # a step wider than the scan leaves one point, and so no step at all
        short = tmp_path / "short.scenario"
        short.write_text(edited({"experiment.scan.step_fs": 1.0e300}, "l1_300mw"),
                         encoding="utf-8")
        assert run(sub, str(short), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "ucspd: error: experiment.scan: step_fs 1e+300 leaves one scan point from "
            "start_fs -1000.0 to stop_fs 1000.0; a scan needs at least 2"
        )
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("growth, cause", [
        ("0.0", "cannot fix n0_cps"),
        ("1.0e+300", "cannot fix n0_cps"),
        ("7000.0", "noise rate overflows"),
    ])
    def test_unusable_noise_growth_is_refused(self, growth, cause, tmp_path, capsys):
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        edited = tmp_path / "noisy.scenario"
        edited.write_text(
            text.replace("growth_per_unit_eta: 40.0", f"growth_per_unit_eta: {growth}"),
            encoding="utf-8",
        )
        assert run("limits", str(edited), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err.startswith("ucspd: error: detector.noise: ")
        assert cause in err

    def test_underflowing_pump_calibration_is_refused(self, tmp_path, capsys):
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        edited = tmp_path / "underflow.scenario"
        edited.write_text(
            text.replace("calibration_power_mw: 300.0", "calibration_power_mw: 5.0e-324"),
            encoding="utf-8",
        )
        assert run("resolve", str(edited), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err.startswith("ucspd: error: detector.pump: calibration power 5e-324 mW")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["limits", "report"])
    def test_underflowing_detected_pulse_count_is_a_numerical_error(self, sub, tmp_path, capsys):
        text = (BUNDLED / "l2_300mw.scenario").read_text(encoding="utf-8")
        edited = tmp_path / "slow.scenario"
        edited.write_text(
            text.replace("rep_rate_hz: 76300000.0", "rep_rate_hz: 5.0e-324"), encoding="utf-8"
        )
        assert run(sub, str(edited), "--out", str(tmp_path / "art")) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "ucspd: error: integration_s * rep_rate_hz * external_eta = 1.0 * 5e-324 * "
        )
        assert "underflows to 0" in err
        assert "Traceback" not in err

    # a chain fraction of 0 is a zero factor; an efficiency that underflows
    # to 0 names the pump power's key and the models it went through
    @pytest.mark.parametrize("sub, path, value, cause", [
        ("limits", "experiment.limits.power_start_mw", 5.0e-324,
         "external efficiency at experiment.limits.power_start_mw = 5e-324 mW underflows to 0: "
         "internal efficiency 0.0 (detector.pump)"),
        ("limits", "detector.chain.apd_efficiency", 0.0,
         "integration_s * rep_rate_hz * external_eta = 1.0 * 76300000.0 * 0.0 is 0"),
        ("limits", "source.pump_power_mw", 5.0e-324,
         "external efficiency at source.pump_power_mw = 5e-324 mW underflows to 0: "
         "internal efficiency 0.0 (detector.pump)"),
        ("report", "source.pump_power_mw", 5.0e-324,
         "external efficiency at source.pump_power_mw = 5e-324 mW underflows to 0: "
         "internal efficiency 0.0 (detector.pump)"),
        ("limits", "detector.pump.calibration_eta", 5.0e-324,
         "external efficiency at experiment.limits.power_start_mw = 50.0 mW underflows to 0: "
         "internal efficiency 0.0 (detector.pump)"),
        ("report", "detector.pump.calibration_eta", 5.0e-324,
         "external efficiency at source.pump_power_mw = 300.0 mW underflows to 0: "
         "internal efficiency 5e-324 (detector.pump) times detector.chain 0.41 * 0.85 * 0.94"),
    ], ids=["power_start-underflow", "apd-zero", "pump_power-underflow",
            "pump_power-underflow-report", "calibration_eta-underflow",
            "calibration_eta-underflow-report"])
    def test_zero_external_efficiency_is_a_numerical_error(
        self, sub, path, value, cause, tmp_path, capsys
    ):
        scenario = tmp_path / "dim.scenario"
        scenario.write_text(edited({path: value}), encoding="utf-8")
        assert run(sub, str(scenario), "--out", str(tmp_path / "art")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ucspd: error: {cause}")
        assert err.rstrip().endswith("so the limit per pulse is undefined")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["resolve", "scan", "timebin", "deconv"])
    def test_gate_narrower_than_a_grid_step_runs(self, sub, tmp_path, capsys):
        # half a 5e-324 fs gate rounds up to 0 steps of the 1 fs model grid,
        # and with a 5e-324 mm crystal the gate width underflows to 0
        thin = {"detector.crystal.tau_g_fs_per_mm": 5.0e-324}
        for i, edits in enumerate((thin, {**thin, "detector.crystal.length_mm": 5.0e-324})):
            scenario = tmp_path / f"thin{i}.scenario"
            scenario.write_text(edited(edits, "l1_300mw"), encoding="utf-8")
            assert run(sub, str(scenario), "--out", str(tmp_path / f"art{i}"), "--quiet") == 0
            assert capsys.readouterr().err == ""

    def test_gate_narrower_than_a_grid_step_is_one_sample_wide(self, tmp_path):
        rows = []
        for tau in (5.0e-324, 1.0e-300):
            scenario = tmp_path / f"thin-{tau}.scenario"
            scenario.write_text(
                edited({"detector.crystal.tau_g_fs_per_mm": tau}, "l1_300mw"), encoding="utf-8"
            )
            out = tmp_path / f"art-{tau}"
            assert run("resolve", str(scenario), "--out", str(out), "--quiet") == 0
            rows.append(read_table(out / "resolution.csv")[2])
        np.testing.assert_array_equal(*rows)

    def test_zero_counts_are_a_numerical_error(self, tmp_path, capsys):
        scenario = tmp_path / "brief.scenario"
        scenario.write_text(edited({"experiment.scan.dwell_s": 5.0e-324}), encoding="utf-8")
        assert run("deconv", str(scenario), "--out", str(tmp_path / "art")) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "ucspd: error: measured counts total 0, not above the background total "
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("sub", ["sweep", "fitvis"])
    def test_overflowing_sweep_rate_is_a_numerical_error(self, sub, tmp_path, capsys):
        scenario = tmp_path / "brief.scenario"
        scenario.write_text(edited({"experiment.sweep.dwell_s": 5.0e-324}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(sub, str(scenario), "--out", str(tmp_path / "art")) == 2
        err = capsys.readouterr().err
        assert err.startswith("ucspd: error: rate function returned inf at coordinate 0; ")
        assert "Traceback" not in err

    # values the code computes from checked scenario values are checked where
    # they are computed
    @pytest.mark.parametrize("sub, edits, cause", [
        ("limits", {"detector.noise.growth_per_unit_eta": 1.0e-308},
         "detector.noise: n0_cps must be >= 0, got inf"),
        ("scan", {"experiment.scan.start_fs": 1.0e16,
                  "experiment.scan.stop_fs": 1.00000000000001e16,
                  "experiment.scan.step_fs": 1.0},
         "scan coordinates must be strictly increasing"),
        ("report", {"experiment.scan.signal": "gaussian", "experiment.scan.stop_fs": -1700.0},
         "experiment.scan: the gate fit needs at least 8 scan points, got 5"),
        ("timebin", {"experiment.timebin.phase_rad": 1.0e308,
                     "experiment.timebin.phase_prime_rad": -1.0e308},
         "phase difference must be finite"),
    ], ids=["noise-n0", "scan-rounded-coordinates", "report-short-scan", "timebin-phases"])
    def test_computed_values_are_refused(self, sub, edits, cause, tmp_path, capsys):
        scenario = tmp_path / "edge.scenario"
        scenario.write_text(edited(edits), encoding="utf-8")
        assert run(sub, str(scenario), "--out", str(tmp_path / "art")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ucspd: error: {cause}")
        assert "Traceback" not in err

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


def _leaf_checks(table=_SCHEMA, prefix=""):
    """(dotted key path, check) for every key of the scenario schema."""
    for key, spec in table.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(spec, dict):
            yield from _leaf_checks(spec, path)
        else:
            yield path, spec[0]


def _passes(check, path, value) -> bool:
    try:
        check(value, path)
    except ScenarioError:
        return False
    return True


# every edge value each key's own check accepts
EDGE_EDITS = [
    (path, value)
    for path, check in _leaf_checks()
    for value in (0, 5.0e-324, 1.0e-300, 1.0e300, 2 ** 64 - 1, 1.7976931348623157e308)
    if _passes(check, path, value)
]
# a refusal names a key path, or (exit 1) the size or values of an array the
# scenario generates; exit 2 is a numerical failure by the CLI's contract
KEY_PATH = re.compile(r"\b(detector|source|experiment)\.[a-z_.]+|\bseed\b")
ARRAY_CAUSE = re.compile(r"\bsamples\b|\bscan points\b")


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestEdgeValues:
    @settings(max_examples=100, deadline=None)
    @given(edit=st.sampled_from(EDGE_EDITS), sub=st.sampled_from(SUBCOMMANDS),
           name=st.sampled_from(("l1_300mw", "l2_300mw", "l3_300mw")))
    # noise * integration_s and integration_s * rep_rate_hz overflow to inf
    @example(edit=("experiment.limits.integration_s", 1.7976931348623157e308),
             name="l2_300mw", sub="limits")
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


# Runs in a fresh interpreter: what `import ucspd.cli` loads, then a gate fit.
IMPORT_PROBE = textwrap.dedent("""
    import json, math, sys
    import ucspd.cli
    heavy = ("scipy.signal", "scipy.optimize", "scipy.special")
    loaded = sorted(m for m in sys.modules if m.startswith(heavy))
    import numpy as np
    from ucspd.analysis import erf_gate_model_and_jacobian, fit_erf_gate
    q = math.sqrt(math.log(2.0) / (200.0 ** 2 + 240.0 ** 2))
    delays = np.arange(-1000.0, 1001.0, 25.0)
    expected, _ = erf_gate_model_and_jacobian(delays, 408.6, 1e4, 0.0, 5.0, q)
    fit = fit_erf_gate(delays, np.round(expected), 200.0, 240.0)
    print(json.dumps({
        "loaded_by_cli": loaded,
        "optimize_after_fit": "scipy.optimize" in sys.modules,
        "gate_width_fs": fit.gate_width_fs,
    }))
""")


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


class TestImportCost:
    def test_cli_import_skips_scipy_submodules_and_a_fit_never_loads_optimize(self):
        env = dict(os.environ)
        src = str(Path(ucspd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stdout)
        assert probe["loaded_by_cli"] == []
        assert probe["optimize_after_fit"] is False
        assert probe["gate_width_fs"] == pytest.approx(408.6, rel=1e-3)

    def test_cli_import_loads_no_importlib_resources(self):
        # -S skips the site .pth files, which may import importlib.resources
        # themselves; the dependencies are put on the path directly
        paths = {str(Path(m.__file__).resolve().parents[1]) for m in (ucspd, np, scipy, yaml)}
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sorted(paths)))
        probe = "import sys, ucspd.cli; print('importlib.resources' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
