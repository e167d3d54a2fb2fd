"""Command line entry point: run scenario subcommands, write artifacts.

Every subcommand takes a scenario (a file path or the name of a bundled
configuration), derives its own stage seed from the scenario seed, and
writes CSV/JSON/SVG artifacts through one writer, ``_Artifacts``, which
tags every file with the scenario hash and stages it under a temporary name
until the subcommand returns, so a run that fails writes no file; ``artifacts``
lists exactly the files written (a failed plot is skipped with a warning).
CSV rows come from ``waveform.csv_text``, JSON payloads from the scenario
and result records, and ``report`` reuses the helpers of the other
subcommands.  Re-running with the same scenario and seed reproduces
every artifact byte for byte, apart from the manifests' wall-clock
``generated_utc`` field, which no hash or comparison includes.

Exit codes: 0 success, 1 usage, validation or scenario errors and unusable
output paths, 2 numerical failures (non-convergent fits and the like).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import RL_MAX_ITERATIONS, deconvolve, fit_erf_gate, fit_sine
from .detector import detection_limit
from .errors import NumericalError, ScenarioError, UcspdError
from .response import resolution_function
from .scenario import Scenario, _string, load_scenario, scenario_with_seed
from .simulate import (
    RNG_SCHEME, ScanConfig, delay_rate_function, derive_stage_seed, run_phase_sweep, run_scan,
)
from .svgplot import line_plot
from .timebin import (
    apply_interferometer, center_bin_expectation, slot_probabilities, synthesize_waveform,
)
from .waveform import (
    SampledWaveform, TimeGrid, check_sample_count, convolve, csv_text, fwhm, gaussian_waveform,
    resample, write_csv,
)

__all__ = ["main"]

_STAGE_SCAN = 1
_STAGE_SWEEP = 2
_STAGE_DECONV = 3

# the bundled scenarios; the package is read from the file system, not a zip
_BUNDLED = Path(__file__).parent / "scenarios"

_MODEL_VERSIONS = {"ucspd": __version__, "numpy": np.__version__}


class _Parser(argparse.ArgumentParser):
    """Argparse that prints its usage line and refuses on exit code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UcspdError(message)


# parse_args leaves the parser as it found it, so one parser serves every main()
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ucspd",
        description="Simulate a femtosecond up-conversion single-photon detector.",
    )
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)
    for name, text in (
        ("resolve", "compute the temporal resolution function"),
        ("scan", "Monte Carlo delay scan of the configured signal"),
        ("sweep", "Monte Carlo phase sweep of the center time bin"),
        ("timebin", "time-bin state probabilities and waveforms"),
        ("limits", "detection limit versus pump power"),
        ("deconv", "delay scan plus deconvolution back to the input"),
        ("fitvis", "fringe fit of the phase sweep"),
        ("report", "full pipeline summary as a single JSON file"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("scenario", nargs="?", metavar="SCENARIO",
                       help="scenario file path or bundled scenario name")
        p.add_argument("--out", help="output directory (default: scenario output_dir)")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="stdout format for the result summary")
        p.add_argument("--quiet", action="store_true", help="suppress success output")
    return parser


def _resolve_scenario(args) -> Scenario:
    ref = args.scenario
    if ref is None:
        raise ScenarioError(
            "no scenario given; pass a file path or one of the bundled names "
            + ", ".join(sorted(entry.name for entry in _BUNDLED.iterdir()))
        )
    # a file path is read, and named in errors, as given
    candidates = (ref, _BUNDLED / ref, _BUNDLED / f"{ref}.scenario")
    path = next((candidate for candidate in candidates if Path(candidate).is_file()), None)
    if path is None:
        raise ScenarioError(f"scenario {ref!r} is neither a file nor a bundled name")
    scenario = load_scenario(path)
    if args.seed is not None:
        scenario = scenario_with_seed(scenario, args.seed)
    return scenario


# ---------------------------------------------------------------------------
# artifact writer


class _Artifacts:
    """Stages one run's files in ``out`` and lists the ones it wrote.

    Every file is tagged with the scenario name and hash and written under a
    temporary name in ``out``.  ``commit`` renames them into place in write
    order, and ``discard`` deletes them, so a failed run leaves no file.
    ``names`` lists a file once it is staged.
    """

    def __init__(self, scenario: Scenario, out: Path, quiet: bool) -> None:
        self.scenario = scenario
        self.out = out
        self.quiet = quiet
        self.names: list[str] = []

    def _tagged(self, fields: dict) -> dict:
        scenario = self.scenario
        return {"scenario": scenario.name, "scenario_hash": scenario.scenario_hash, **fields}

    def _tmp(self, name: str) -> Path:
        return self.out / f".{name}.{os.getpid()}.tmp"

    def _stage(self, name: str, write) -> None:
        tmp = self._tmp(name)
        try:
            write(tmp)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise OSError(f"cannot write {self.out / name}: {exc.strerror or exc}") from exc
        self.names.append(name)

    def commit(self) -> None:
        for name in self.names:
            os.replace(self._tmp(name), self.out / name)

    def discard(self) -> None:
        for name in self.names:
            self._tmp(name).unlink(missing_ok=True)

    def _text(self, name: str, text: str) -> None:
        self._stage(name, lambda tmp: tmp.write_text(text, encoding="utf-8"))

    def waveform(self, name: str, w: SampledWaveform, kind: str) -> None:
        self._stage(name, lambda tmp: write_csv(tmp, w, self._tagged({"kind": kind})))

    def table(self, name: str, header: str, columns, **metadata) -> None:
        self._text(name, csv_text(header, columns, self._tagged(metadata)))

    def json(self, name: str, payload: dict) -> None:
        self._text(name, json.dumps(self._tagged(payload), sort_keys=True, indent=2) + "\n")

    def manifest(self, name: str, stage_seed: int, content: list, config: dict) -> None:
        self.json(name, {
            "seed": self.scenario.seed,
            "stage_seed": stage_seed,
            "rng_scheme": RNG_SCHEME,
            "model_versions": _MODEL_VERSIONS,
            "config": config,
            "content_sha256": {
                c: hashlib.sha256(self._tmp(c).read_bytes()).hexdigest() for c in content
            },
            "generated_utc": datetime.now(timezone.utc).isoformat(),
        })

    def plot(self, name: str, series, title: str, x_label: str, y_label: str) -> None:
        # plotting failures must never fail the numeric run
        comment = f"scenario_hash={self.scenario.scenario_hash}"
        try:
            self._stage(
                name, lambda tmp: line_plot(tmp, series, title, x_label, y_label, comment)
            )
        except Exception as exc:  # noqa: BLE001
            self._tmp(name).unlink(missing_ok=True)
            if not self.quiet:
                print(f"ucspd: plot skipped: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# shared model construction


def _kernel_half_fs(scenario: Scenario) -> float:
    return 0.5 * scenario.gate_width_fs + 3.0 * scenario.pump_fwhm_fs + scenario.dt_fs


def _resolution_kernel(scenario: Scenario) -> SampledWaveform:
    """The resolution function on the model grid, ``scenario.dt_fs``.

    That is the grid the simulator uses.  Analysis on a coarser grid
    resamples this kernel rather than rebuilding it there: rebuilt, the
    rectangular gate would be rounded to whole steps and the function would
    come out too wide.
    """
    grid = TimeGrid.symmetric(_kernel_half_fs(scenario), scenario.dt_fs)
    return resolution_function(scenario.pump_fwhm_fs, scenario.gate_width_fs, grid)


def _detection_limit(scenario: Scenario, point: tuple) -> float:
    """The limit per pulse at ``point``, one of the scenario's operating points."""
    _, eta, noise = point
    return detection_limit(noise, scenario.limits.integration_s, eta, scenario.rep_rate_hz)


def _timebin_state(scenario: Scenario) -> np.ndarray:
    """Slot amplitudes of one photon after the two interferometer passes."""
    section = scenario.timebin
    amplitudes = np.ones(1, dtype=np.complex128)
    for phase in (section.phase_rad, section.phase_prime_rad):
        amplitudes = apply_interferometer(amplitudes, phase, section.contrast)
    return amplitudes


def _timebin_waveform(scenario: Scenario, dt_fs: float) -> SampledWaveform:
    amplitudes = _timebin_state(scenario)
    spacing = scenario.timebin.slot_spacing_fs
    n_slots = amplitudes.size
    margin = 3.0 * scenario.signal_fwhm_fs + dt_fs
    steps = np.ceil(((n_slots - 1) * spacing + 2.0 * margin) / dt_fs)
    check_sample_count(steps + 1.0, f"a time grid at {dt_fs!r} fs spacing")
    grid = TimeGrid(-margin, dt_fs, int(steps) + 1)
    synthesized = synthesize_waveform(amplitudes, spacing, scenario.signal_fwhm_fs, grid)
    # center the pulse train on zero delay
    return synthesized.shifted(-0.5 * (n_slots - 1) * spacing)


def _slot_probabilities(scenario: Scenario) -> list[float]:
    return [float(p) for p in slot_probabilities(_timebin_state(scenario))]


def _scan_signal(scenario: Scenario, dt_fs: float) -> SampledWaveform:
    if scenario.scan.signal == "gaussian":
        half = 3.0 * scenario.signal_fwhm_fs + dt_fs
        grid = TimeGrid.symmetric(half, dt_fs)
        return gaussian_waveform(scenario.signal_fwhm_fs, grid)
    return _timebin_waveform(scenario, dt_fs)


def _run_delay_scan(scenario: Scenario, stage: int, kernel: SampledWaveform):
    signal = _scan_signal(scenario, scenario.dt_fs)
    _, external, noise = scenario.operating_point()
    rate = delay_rate_function(
        signal,
        kernel,
        mean_photons_per_pulse=scenario.mean_photons_per_pulse,
        external_eta=external,
        rep_rate_hz=scenario.rep_rate_hz,
        noise_cps=noise,
    )
    config = ScanConfig(
        coordinates=scenario.scan.coordinates(),
        dwell_s=scenario.scan.dwell_s,
        seed=derive_stage_seed(scenario.seed, stage),
    )
    return run_scan(config, rate(config.coordinates))


def _run_sweep(scenario: Scenario):
    sweep = scenario.sweep
    phases = np.linspace(0.0, 2.0 * np.pi, sweep.n_points, endpoint=False)
    noise = scenario.operating_point()[2] if sweep.include_noise else 0.0
    result = run_phase_sweep(
        phases,
        contrast=scenario.timebin.contrast,
        counts_scale=sweep.counts_scale,
        noise_cps=noise,
        dwell_s=sweep.dwell_s,
        seed=derive_stage_seed(scenario.seed, _STAGE_SWEEP),
        decode_phase_rad=scenario.timebin.phase_prime_rad,
    )
    return phases, result


def _fit_sweep(scenario: Scenario):
    phases, result = _run_sweep(scenario)
    return phases, result, fit_sine(phases, result.counts)


def _write_counts(files: _Artifacts, name: str, result, **metadata) -> None:
    columns = (result.coordinates, result.counts, result.expected)
    files.table(name, "coord,counts,expected", columns, **metadata, stage_seed=result.config.seed)


def _write_delay_scan(files: _Artifacts, name: str, scenario: Scenario, result) -> None:
    _write_counts(files, name, result, kind="delay_scan", signal=scenario.scan.signal,
                  dwell_s=scenario.scan.dwell_s)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_resolve(scenario: Scenario, files: _Artifacts) -> dict:
    kernel = _resolution_kernel(scenario)
    fwhm_fs = fwhm(kernel)
    internal, external, noise = scenario.operating_point()
    files.waveform("resolution.csv", kernel, kind="resolution")
    files.json("resolution.json", {
        "L_mm": scenario.length_mm,
        "tau_g": scenario.tau_g_fs_per_mm,
        "label": scenario.label,
        "gate_width_fs": scenario.gate_width_fs,
        "fwhm_fs": fwhm_fs,
        "pump_fwhm_fs": scenario.pump_fwhm_fs,
        "pump_power_mw": scenario.pump_power_mw,
        "eta_internal": internal,
        "eta_external": external,
        "noise_cps": noise,
    })
    files.plot(
        "resolution.svg",
        [(kernel.times(), kernel.samples, scenario.label or "T(t)")],
        f"resolution function, FWHM {fwhm_fs:.1f} fs", "t (fs)", "T(t)",
    )
    return {"fwhm_fs": fwhm_fs, "gate_width_fs": scenario.gate_width_fs}


def _cmd_scan(scenario: Scenario, files: _Artifacts) -> dict:
    result = _run_delay_scan(scenario, _STAGE_SCAN, _resolution_kernel(scenario))
    _write_delay_scan(files, "scan.csv", scenario, result)
    files.manifest("scan_manifest.json", result.config.seed, ["scan.csv"], {
        "kind": "delay", **scenario.scan._asdict(), "noise_cps": scenario.operating_point()[2],
    })
    files.plot(
        "scan.svg",
        [(result.coordinates, result.counts, "counts"),
         (result.coordinates, result.expected, "expected")],
        f"delay scan ({scenario.scan.signal})", "delay (fs)", "counts",
    )
    return {"points": int(result.coordinates.size), "peak_counts": int(result.counts.max())}


def _cmd_sweep(scenario: Scenario, files: _Artifacts) -> dict:
    phases, result = _run_sweep(scenario)
    _write_counts(files, "sweep.csv", result, kind="phase_sweep",
                  contrast=scenario.timebin.contrast, dwell_s=scenario.sweep.dwell_s)
    files.manifest("sweep_manifest.json", result.config.seed, ["sweep.csv"], {
        "kind": "phase", **scenario.sweep._asdict(), "contrast": scenario.timebin.contrast,
    })
    files.plot(
        "sweep.svg",
        [(phases, result.counts, "counts"), (phases, result.expected, "expected")],
        "phase sweep of the center bin", "phase (rad)", "counts",
    )
    return {"points": int(phases.size), "peak_counts": int(result.counts.max())}


def _cmd_timebin(scenario: Scenario, files: _Artifacts) -> dict:
    probabilities = _slot_probabilities(scenario)
    section = scenario.timebin
    files.json("timebin_probabilities.json", {
        **section._asdict(),
        "probabilities": probabilities,
        "center_bin_expectation": center_bin_expectation(
            section.phase_rad - section.phase_prime_rad, section.contrast
        ),
    })
    signal = _timebin_waveform(scenario, scenario.dt_fs)
    measured = convolve(signal, _resolution_kernel(scenario))
    files.waveform("timebin_state.csv", signal, kind="timebin_state")
    files.waveform("timebin_measured.csv", measured, kind="timebin_measured")
    files.plot(
        "timebin.svg",
        [
            (signal.times(), signal.peak_normalized().samples, "input"),
            (measured.times(), measured.peak_normalized().samples, "through gate"),
        ],
        "time-bin pulse train", "t (fs)", "normalized intensity",
    )
    return {"probabilities": probabilities}


def _cmd_limits(scenario: Scenario, files: _Artifacts) -> dict:
    section = scenario.limits
    powers = section.powers_mw()
    points = [scenario.operating_point(power) for power in powers]
    limits = [_detection_limit(scenario, point) for point in points]
    columns = [powers, *zip(*points), limits]
    files.table(
        "limits.csv",
        "power_mw,eta_internal,eta_external,noise_cps,limit_per_pulse",
        columns,
        kind="limits",
        integration_s=section.integration_s,
    )
    best = int(np.argmin(limits))
    summary = {"best_power_mw": powers[best], "min_limit_per_pulse": limits[best]}
    files.json("limits.json", {
        **summary,
        "integration_s": section.integration_s,
        "limit_at_scenario_power": _detection_limit(scenario, scenario.operating_point()),
    })
    files.plot(
        "limits.svg",
        [(powers, limits, "limit")],
        "detection limit vs pump power", "pump power (mW)", "photons per pulse",
    )
    return summary


def _cmd_deconv(scenario: Scenario, files: _Artifacts) -> dict:
    noise = scenario.operating_point()[2]
    kernel = _resolution_kernel(scenario)
    result = _run_delay_scan(scenario, _STAGE_DECONV, kernel)
    step = scenario.scan.step_fs
    _write_delay_scan(files, "deconv_scan.csv", scenario, result)
    # raw counts, with the known flat background in the forward model
    measured = SampledWaveform(
        float(result.coordinates[0]), step, result.counts.astype(np.float64)
    )
    deconv = deconvolve(
        measured, resample(kernel, TimeGrid.symmetric(_kernel_half_fs(scenario), step)),
        background=noise * scenario.scan.dwell_s,
    )
    files.waveform("deconv_recovered.csv", deconv.estimate, kind="deconv_recovered")
    files.json("deconv_report.json", {
        "stage_seed": result.config.seed,
        "background_cps": noise,
        "iterations_run": deconv.iterations_run,
        "stop_reason": deconv.stop_reason,
        "deviance_per_point": deconv.deviance_per_point,
        "residual": deconv.residual,
        "max_flux_drift": deconv.max_flux_drift,
        "settings": {
            "algorithm": "richardson-lucy-biggs-andrews", "iterations": RL_MAX_ITERATIONS,
        },
    })
    files.plot(
        "deconv.svg",
        [
            (measured.times(), measured.peak_normalized().samples, "measured"),
            (deconv.estimate.times(), deconv.estimate.peak_normalized().samples, "recovered"),
        ],
        "deconvolution of the delay scan", "t (fs)", "normalized intensity",
    )
    return {
        "iterations_run": deconv.iterations_run,
        "stop_reason": deconv.stop_reason,
        "deviance_per_point": deconv.deviance_per_point,
        "residual": deconv.residual,
    }


def _cmd_fitvis(scenario: Scenario, files: _Artifacts) -> dict:
    phases, result, fit = _fit_sweep(scenario)
    files.json("fitvis_report.json", {
        **fit._asdict(),
        "dwell_s": scenario.sweep.dwell_s,
        "stage_seed": result.config.seed,
        "true_contrast": scenario.timebin.contrast,
    })
    dense = np.linspace(phases[0], phases[-1], 241)
    model = fit.offset * (1.0 + fit.visibility * np.cos(dense - fit.phase0_rad))
    files.plot(
        "fitvis.svg",
        [(phases, result.counts, "counts"), (dense, model, "fit")],
        f"fringe fit, V = {fit.visibility:.4f} +/- {fit.visibility_sigma:.4f}",
        "phase (rad)", "counts",
    )
    return {"visibility": fit.visibility, "visibility_sigma": fit.visibility_sigma}


def _embedded_hash(path: Path) -> str | None:
    """The scenario hash a file claims to belong to, if it claims one."""
    try:
        if path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            value = payload.get("scenario_hash") if isinstance(payload, dict) else None
            return value if isinstance(value, str) else None
        # a CSV's comment line or an SVG's comment, not the name in a CSV's first line
        tag = {".csv": "# scenario_hash=", ".svg": "<!-- scenario_hash="}.get(path.suffix)
        if tag:
            with open(path, "r", encoding="utf-8") as handle:
                for _, line in zip(range(40), handle):
                    if line.startswith(tag):
                        return line[len(tag):].strip().rstrip("->").strip()
    except (OSError, ValueError):
        return None
    return None


def _refuse_mismatched(out: Path, scenario: Scenario) -> None:
    mismatched = []
    for path in sorted(out.iterdir()):
        if not path.is_file():
            continue
        claimed = _embedded_hash(path)
        if claimed is not None and claimed != scenario.scenario_hash:
            mismatched.append(f"{path.name} ({claimed})")
    if mismatched:
        raise ScenarioError(
            f"output directory {out} holds artifacts from a different scenario "
            f"hash than {scenario.scenario_hash}: " + ", ".join(mismatched)
        )


def _cmd_report(scenario: Scenario, files: _Artifacts) -> dict:
    _refuse_mismatched(files.out, scenario)
    kernel = _resolution_kernel(scenario)
    fwhm_fs = fwhm(kernel)

    gate_fit = None
    if scenario.scan.signal == "gaussian":
        scan = _run_delay_scan(scenario, _STAGE_SCAN, kernel)
        if scan.coordinates.size < 8:
            raise ScenarioError(
                f"experiment.scan: the gate fit needs at least 8 scan points, "
                f"got {scan.coordinates.size}"
            )
        fitted = fit_erf_gate(scan.coordinates, scan.counts, scenario.pump_fwhm_fs,
                              scenario.signal_fwhm_fs)
        gate_fit = {
            "gate_width_fs": fitted.gate_width_fs,
            "gate_width_sigma_fs": fitted.gate_width_sigma_fs,
            "center_fs": fitted.center_fs,
            "residual": fitted.residual,
        }

    _, _, vis = _fit_sweep(scenario)
    point = scenario.operating_point()
    internal, external, noise = point
    summary = {
        "seed": scenario.seed,
        "model_versions": _MODEL_VERSIONS,
        "fwhm_fs": fwhm_fs,
        "gate_width_fs": scenario.gate_width_fs,
        "gate_fit": gate_fit,
        "eta_internal": internal,
        "eta_external": external,
        "noise_cps": noise,
        "limit_per_pulse": _detection_limit(scenario, point),
        "visibility": {"value": vis.visibility, "sigma": vis.visibility_sigma},
        "timebin_probabilities": _slot_probabilities(scenario),
    }
    files.json("report_summary.json", summary)
    return {
        "fwhm_fs": fwhm_fs,
        "eta_external": summary["eta_external"],
        "limit_per_pulse": summary["limit_per_pulse"],
        "visibility": vis.visibility,
    }


_DISPATCH = {
    "resolve": _cmd_resolve,
    "scan": _cmd_scan,
    "sweep": _cmd_sweep,
    "timebin": _cmd_timebin,
    "limits": _cmd_limits,
    "deconv": _cmd_deconv,
    "fitvis": _cmd_fitvis,
    "report": _cmd_report,
}


def _emit_success(args, files: _Artifacts, summary: dict) -> None:
    if args.quiet:
        return
    if args.format == "json":
        print(json.dumps({
            "subcommand": args.subcommand,
            "scenario": files.scenario.name,
            "scenario_hash": files.scenario.scenario_hash,
            "out": str(files.out),
            "artifacts": files.names,
            "summary": summary,
        }, sort_keys=True))
        return
    for name in files.names:
        print(f"wrote,{files.out / name}")
    for key, value in summary.items():
        print(f"{key},{value}")


def _emit_error(args, exc: Exception, exit_code: int) -> None:
    """A usage error comes before ``args`` holds a format, so it is always plain text."""
    if getattr(args, "format", "csv") == "json":
        error = {"type": type(exc).__name__, "message": str(exc), "exit_code": exit_code}
        print(json.dumps({"error": error}, sort_keys=True))
    else:
        print(f"ucspd: error: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.error("a subcommand is required")
        scenario = _resolve_scenario(args)
        # --out is printed in wrote, lines as output_dir is, so it passes the same rule
        out = Path(scenario.output_dir if args.out is None else _string(args.out, "--out"))
        out.mkdir(parents=True, exist_ok=True)
        files = _Artifacts(scenario, out, args.quiet)
        try:
            summary = _DISPATCH[args.subcommand](scenario, files)
            files.commit()
        except BaseException:
            files.discard()
            raise
        _emit_success(args, files, summary)
        return 0
    except NumericalError as exc:
        _emit_error(args, exc, 2)
        return 2
    except (UcspdError, OSError) as exc:
        _emit_error(args, exc, 1)
        return 1


if __name__ == "__main__":
    sys.exit(main())
