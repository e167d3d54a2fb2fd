"""Output checks, artifact digests and shared constants of the benchmark.

Pure standard library, shared by ``run.py`` and the worker processes.
Every check compares a value the program wrote against one computed here
from the scenario parameters alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

SUBCOMMANDS = ("resolve", "scan", "sweep", "timebin", "limits", "deconv", "fitvis", "report")
BUNDLED = ("l1_300mw", "l2_300mw", "l3_300mw")

FWHM_TOL_FS = 2.0
VISIBILITY_SIGMAS = 5.0
POISSON_SIGMAS = 6.0
MAX_FLUX_DRIFT = 1e-6
LIMIT_RTOL = 1e-6

# scan and sweep points each subcommand draws; report also draws a delay scan
# for its erf gate fit when the scan signal is Gaussian
_DRAWS = {
    "scan": ("scan",),
    "sweep": ("sweep",),
    "deconv": ("scan",),
    "fitvis": ("sweep",),
    "report": ("sweep", "gate_scan"),
}


def points_drawn(sub: str, spec: dict) -> int:
    total = 0
    for kind in _DRAWS.get(sub, ()):
        if kind == "sweep":
            total += spec["sweep_points"]
        elif kind == "scan" or spec["gaussian"]:
            total += spec["scan_points"]
    return total


def gaussian_rect_fwhm(pump_fwhm_fs: float, gate_fs: float) -> float:
    """FWHM of a Gaussian of the given FWHM convolved with a rect of width gate."""
    s = pump_fwhm_fs / (2.0 * math.sqrt(2.0 * math.log(2.0))) * math.sqrt(2.0)

    def shape(t: float) -> float:
        return math.erf((t + 0.5 * gate_fs) / s) - math.erf((t - 0.5 * gate_fs) / s)

    half = 0.5 * shape(0.0)
    lo, hi = 0.0, 0.5 * gate_fs + 10.0 * s
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if shape(mid) > half else (lo, mid)
    return lo + hi


def detection_limit(noise_cps: float, integration_s: float, eta: float, rep_rate_hz: float) -> float:
    return 3.0 * math.sqrt(noise_cps * integration_s) / (integration_s * rep_rate_hz * eta)


def artifact_digest(path: str) -> str:
    """SHA-256 of an artifact; JSON files lose their ``generated_utc`` first."""
    with open(path, "rb") as handle:
        data = handle.read()
    if path.endswith(".json"):
        payload = json.loads(data)
        if isinstance(payload, dict) and "generated_utc" in payload:
            del payload["generated_utc"]
            data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _embedded_hash(path: str):
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        return payload.get("scenario_hash") if isinstance(payload, dict) else None
    with open(path, encoding="utf-8") as handle:
        for _, line in zip(range(40), handle):
            if "scenario_hash=" in line:
                return line.split("scenario_hash=", 1)[1].strip().rstrip("->").strip()
    return None


def _csv_rows(path: str) -> list:
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line and not line.startswith("#")]
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _poisson_ok(rows: list) -> bool:
    counts = sum(row[1] for row in rows)
    expected = sum(row[2] for row in rows)
    return abs(counts - expected) <= POISSON_SIGMAS * math.sqrt(expected) + 1.0


def _visibility_problems(value: float, sigma: float, contrast: float) -> list:
    if abs(value - contrast) > VISIBILITY_SIGMAS * sigma:
        return [f"visibility {value} is not within {VISIBILITY_SIGMAS} sigma ({sigma}) of {contrast}"]
    return []


def _value_problems(sub: str, spec: dict, out: str, summary: dict) -> list:
    problems = []
    fwhm_expected = gaussian_rect_fwhm(spec["pump_fwhm_fs"], spec["gate_width_fs"])
    if sub in ("resolve", "report"):
        if abs(summary["fwhm_fs"] - fwhm_expected) > FWHM_TOL_FS:
            problems.append(f"fwhm {summary['fwhm_fs']} fs, closed form {fwhm_expected:.3f} fs")
    if sub in ("scan", "sweep", "deconv"):
        name = {"scan": "scan.csv", "sweep": "sweep.csv", "deconv": "deconv_scan.csv"}[sub]
        rows = _csv_rows(os.path.join(out, name))
        want = spec["sweep_points" if sub == "sweep" else "scan_points"]
        if len(rows) != want:
            problems.append(f"{name} has {len(rows)} points, scenario asks for {want}")
        elif not _poisson_ok(rows):
            problems.append(f"{name} counts disagree with their expectation")
    if sub == "timebin":
        total = sum(summary["probabilities"])
        if abs(total - 1.0) > 1e-9:
            problems.append(f"slot probabilities sum to {total}")
    if sub == "limits":
        rows = _csv_rows(os.path.join(out, "limits.csv"))
        if len(rows) != spec["powers"]:
            problems.append(f"limits.csv has {len(rows)} powers, scenario asks for {spec['powers']}")
        for power, _, eta, noise, limit in rows:
            want = detection_limit(noise, spec["integration_s"], eta, spec["rep_rate_hz"])
            if abs(limit - want) > LIMIT_RTOL * want:
                problems.append(f"limit at {power} mW is {limit}, formula gives {want}")
        smallest = min((row[4] for row in rows), default=0.0)
        if abs(summary["min_limit_per_pulse"] - smallest) > LIMIT_RTOL * smallest:
            problems.append("min_limit_per_pulse is not the smallest tabulated limit")
    if sub == "deconv":
        drift = _json(os.path.join(out, "deconv_report.json"))["max_flux_drift"]
        if not drift < MAX_FLUX_DRIFT:
            problems.append(f"RL flux drift {drift}")
    if sub == "fitvis":
        problems += _visibility_problems(
            summary["visibility"], summary["visibility_sigma"], spec["contrast"]
        )
    if sub == "report":
        report = _json(os.path.join(out, "report_summary.json"))
        problems += _visibility_problems(
            report["visibility"]["value"], report["visibility"]["sigma"], spec["contrast"]
        )
        want = detection_limit(
            report["noise_cps"], spec["integration_s"], report["eta_external"], spec["rep_rate_hz"]
        )
        if abs(report["limit_per_pulse"] - want) > LIMIT_RTOL * want:
            problems.append(f"report limit {report['limit_per_pulse']}, formula gives {want}")
        if (report["gate_fit"] is not None) != spec["gaussian"]:
            problems.append("gate fit present for a non-Gaussian scan or missing for a Gaussian one")
    return problems


class OpLog:
    """Every operation attempted in a run, checked as it finishes.

    The first digest seen for an artifact is the reference; a later run of
    the same operation (same scenario and seed) must reproduce it.
    """

    def __init__(self) -> None:
        self.ops = []
        self.digests = {}

    def record(self, sub, spec, exit_code, stdout, seconds, phase="timed", traced=False) -> dict:
        problems, digests, size = check_op(sub, spec, exit_code, stdout)
        known = self.digests.setdefault(spec["name"], {}) if digests else {}
        for name, digest in digests.items():
            if known.setdefault(name, digest) != digest:
                problems.append(f"{name} differs from an earlier run of the same operation")
        op = {
            "sub": sub,
            "scenario": spec["name"],
            "seconds": seconds,
            "phase": phase,
            "traced": traced,
            "ok": not problems,
            "problems": problems[:3],
            "points": points_drawn(sub, spec) if not problems else 0,
            "bytes": size,
            "files": len(digests),
        }
        self.ops.append(op)
        return op


def check_op(sub: str, spec: dict, exit_code: int, stdout: str) -> tuple:
    """Check one finished operation.

    Returns ``(problems, digests, bytes_written)``: a list of reasons the
    operation failed (empty when it passed), the digest of every artifact
    it reported, and their total size.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}, 0
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    try:
        outcome = json.loads(lines[-1])
        artifacts = outcome["artifacts"]
        summary = outcome["summary"]
    except (IndexError, KeyError, ValueError) as exc:
        return [f"no JSON summary on stdout ({exc!r})"], {}, 0
    problems = []
    if outcome.get("scenario_hash") != spec["hash"]:
        problems.append(f"stdout scenario_hash {outcome.get('scenario_hash')}, expected {spec['hash']}")
    out = spec["out"]
    digests = {}
    size = 0
    for name in artifacts:
        path = os.path.join(out, name)
        if not os.path.isfile(path):
            problems.append(f"artifact {name} missing")
            continue
        size += os.path.getsize(path)
        digests[name] = artifact_digest(path)
        embedded = _embedded_hash(path)
        if embedded != spec["hash"]:
            problems.append(f"artifact {name} embeds scenario_hash {embedded}")
    if not problems:
        try:
            problems += _value_problems(sub, spec, out, summary)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"cannot read a value to check: {exc!r}")
    return problems, digests, size

