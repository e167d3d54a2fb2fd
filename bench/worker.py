"""Benchmark worker: one fresh interpreter.

It imports ``ucspd.cli``, generates the workload's scenarios, prints one
JSON line describing them and, for a warm workload, then calls
``ucspd.cli.main`` in a closed loop: one untimed warm-up pass, then timed
passes until the time is up, with the reference kernel of ``speed.py``
timed between operations.  The last line it prints is the list of
operations, the kernel times and, for a traced run, the span totals.

Usage: ``worker.py CONFIG_JSON``; ``run.py`` writes the config.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from importlib.metadata import version

import checks
import spans

# ROADMAP-sized dense scans: 1 fs steps over +/-3000 fs and a 4096-point sweep
DENSE_SCAN = {"start_fs": -3000.0, "stop_fs": 3000.0, "step_fs": 1.0}
DENSE_SWEEP_POINTS = 4096


def make_inputs(config: dict) -> list:
    """Scenario specs: what to pass to the CLI and what to expect back."""
    import yaml

    from ucspd.scenario import load_scenario, scenario_with_seed

    seed = config["seed"]
    specs = []
    for name in config["scenarios"]:
        bundled = os.path.join(config["root"], "src", "ucspd", "scenarios", name + ".scenario")
        with open(bundled, encoding="utf-8") as handle:
            doc = yaml.safe_load(handle)
        if config["workload"] == "warm_dense":
            name = name.replace("300mw", "dense")
            doc["name"] = name
            doc["seed"] = seed
            doc["experiment"]["scan"].update(DENSE_SCAN)
            doc["experiment"].setdefault("sweep", {})["n_points"] = DENSE_SWEEP_POINTS
            arg = os.path.join(config["workdir"], name + ".scenario")
            with open(arg, "w", encoding="utf-8") as handle:
                yaml.safe_dump(doc, handle, sort_keys=False)
            scenario = load_scenario(arg)
            extra = []
        else:
            arg = name
            scenario = scenario_with_seed(load_scenario(bundled), seed)
            extra = ["--seed", str(seed)]
        exp = doc["experiment"]
        scan, limits = exp["scan"], exp["limits"]
        crystal, source = doc["detector"]["crystal"], doc["source"]
        specs.append({
            "name": name,
            "arg": arg,
            "extra": extra,
            "out": os.path.join(config["workdir"], "out", name),
            "hash": scenario.scenario_hash,
            "gaussian": scan.get("signal", "gaussian") == "gaussian",
            "scan_points": math.floor((scan["stop_fs"] - scan["start_fs"]) / scan["step_fs"] + 0.5) + 1,
            "sweep_points": exp.get("sweep", {}).get("n_points", 24),
            "powers": math.floor(
                (limits["power_stop_mw"] - limits["power_start_mw"]) / limits["power_step_mw"] + 1e-9
            ) + 1,
            "integration_s": limits.get("integration_s", 1.0),
            "gate_width_fs": crystal["length_mm"] * crystal.get("tau_g_fs_per_mm", 204.3),
            "pump_fwhm_fs": source["pump_fwhm_fs"],
            "rep_rate_hz": source.get("rep_rate_hz", 76.3e6),
            "contrast": exp["timebin"].get("contrast", 1.0),
        })
    return specs


def bad_spec(workdir: str) -> dict:
    """An operation on an unknown scenario name, which the CLI refuses."""
    name = "no_such_scenario"
    return {"name": name, "arg": name, "extra": [], "out": os.path.join(workdir, "out", name)}


def argv_for(sub: str, spec: dict) -> list:
    return [sub, spec["arg"], "--out", spec["out"], "--format", "json", *spec["extra"]]


def run_warm(config: dict, specs: list, cli) -> dict:
    # imported here, not at the top: set-up must import only what ucspd does
    import speed

    log = checks.OpLog()
    tracer = spans.Tracer()
    passes = {False: 0, True: 0}
    sampler = speed.Sampler()
    one_pass = [(sub, spec) for spec in specs for sub in checks.SUBCOMMANDS]

    def run_pass(phase, traced, extra=()):
        for sub, spec in [*extra, *one_pass]:
            sampler.maybe_sample()
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv_for(sub, spec))
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                code = f"uncaught {exc!r}"
            seconds = time.perf_counter() - start
            log.record(sub, spec, code, buf.getvalue(), seconds, phase, traced)

    run_pass("warmup", False)
    bad = [("resolve", bad_spec(config["workdir"]))] if config["inject_bad_op"] else []
    start = time.perf_counter()
    while not passes[False] or time.perf_counter() - start < config["seconds"]:
        run_pass("timed", False, bad)
        bad = []
        passes[False] += 1
        if config["trace"]:
            tracer.install()
            try:
                run_pass("timed", True)
            finally:
                tracer.uninstall()
            passes[True] += 1
    return {
        "ops": log.ops,
        "digests": log.digests,
        "trace": tracer.dump(),
        "traced_passes": passes[True],
        "kernel_s": sampler.samples,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    config = json.loads(sys.argv[1])
    import ucspd
    import ucspd.cli

    specs = make_inputs(config)
    print(json.dumps({
        "specs": specs,
        "ucspd_file": os.path.abspath(ucspd.__file__),
        "versions": {name: version(name) for name in ("numpy", "scipy", "PyYAML")},
    }), flush=True)
    if config["mode"] == "setup":
        return 0
    print(json.dumps(run_warm(config, specs, ucspd.cli)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
