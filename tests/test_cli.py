"""Command line: artifacts, reproducibility, hash policing, exit codes."""

import json
import os
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import find_peaks

import ucspd
from ucspd.cli import main
from ucspd.detector import detection_limit
from ucspd.scenario import parse_scenario
from ucspd.simulate import derive_stage_seed
from ucspd.waveform import read_csv

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


class TestResolve:
    def test_artifacts_and_summary(self, tmp_path):
        out = tmp_path / "art"
        assert run("resolve", "l2_300mw", "--out", str(out), "--quiet") == 0
        summary = json.loads((out / "resolution.json").read_text())
        assert summary["L_mm"] == 2.0
        assert summary["tau_g"] == 204.3
        assert summary["fwhm_fs"] == pytest.approx(412.0, rel=0.05)
        assert summary["scenario_hash"] == scenario_hash()
        waveform, metadata = read_csv(out / "resolution.csv", intensity=True)
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
        state, _ = read_csv(out / "timebin_state.csv", intensity=True)
        measured, _ = read_csv(out / "timebin_measured.csv", intensity=True)
        assert state.peak_time_fs == pytest.approx(0.0, abs=1.0)
        # gate blur widens the train but keeps its center
        assert measured.peak_time_fs == pytest.approx(0.0, abs=5.0)


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
        recovered, metadata = read_csv(out / "deconv_recovered.csv", intensity=True)
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
        assert report["settings"]["algorithm"] == "richardson-lucy"

    def test_deconv_scan_uses_its_own_stage_seed(self, tmp_path):
        out = tmp_path / "art"
        assert run("deconv", "l2_300mw", "--out", str(out), "--quiet") == 0
        metadata, _, _ = read_table(out / "deconv_scan.csv")
        assert int(metadata["stage_seed"]) == derive_stage_seed(20260815, 3)


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
        assert "scenario" in capsys.readouterr().err

    def test_unknown_scenario_name(self, capsys):
        assert run("resolve", "no_such_scenario") == 1
        assert "no_such_scenario" in capsys.readouterr().err

    def test_conflicting_scenario_arguments(self, capsys):
        assert run("resolve", "l1_300mw", "--scenario", "l2_300mw") == 1
        assert "positional" in capsys.readouterr().err

    def test_matching_scenario_arguments_allowed(self, tmp_path):
        out = tmp_path / "art"
        assert run("resolve", "l1_300mw", "--scenario", "l1_300mw",
                   "--out", str(out), "--quiet") == 0

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

    def test_json_success_output(self, tmp_path, capsys):
        out = tmp_path / "art"
        assert run("limits", "l2_300mw", "--out", str(out), "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["subcommand"] == "limits"
        assert payload["scenario_hash"] == scenario_hash()
        assert "limits.csv" in payload["artifacts"]


# Runs in a fresh interpreter: what `import ucspd.cli` loads, then a gate fit.
IMPORT_PROBE = textwrap.dedent("""
    import json, math, sys
    import ucspd.cli
    heavy = ("scipy.signal", "scipy.optimize")
    loaded = sorted(m for m in sys.modules if m.startswith(heavy))
    import numpy as np
    from ucspd.analysis import erf_gate_model, fit_erf_gate
    from ucspd.simulate import ScanConfig, ScanResult
    q = math.sqrt(math.log(2.0) / (200.0 ** 2 + 240.0 ** 2))
    delays = np.arange(-1000.0, 1001.0, 25.0)
    expected = erf_gate_model(delays, 408.6, 1e4, 0.0, 5.0, q)
    scan = ScanResult(delays, np.round(expected), expected, ScanConfig(delays))
    fit = fit_erf_gate(scan, 200.0, 240.0)
    print(json.dumps({
        "loaded_by_cli": loaded,
        "optimize_after_fit": "scipy.optimize" in sys.modules,
        "gate_width_fs": fit.gate_width_fs,
    }))
""")


class TestImportCost:
    def test_cli_import_skips_signal_and_optimize_until_a_fit_needs_it(self):
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
        assert probe["optimize_after_fit"]
        assert probe["gate_width_fs"] == pytest.approx(408.6, rel=1e-3)
