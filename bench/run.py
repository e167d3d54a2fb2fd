"""The ucspd benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --compare OLD.json NEW.json

Run from the root of a source checkout; the program is imported from
``src/``.  Load is a closed loop with one client: one operation (one
subcommand on one scenario) at a time, the next starting when the last has
finished and been checked.  A pass is every subcommand on every scenario of
the workload, ``report`` last so it reads the directory the others filled.

Workloads, and why each is here:

* ``warm_bundled`` - one worker process calls ``ucspd.cli.main`` on the
  bundled scenarios after an untimed warm-up pass: no import cost; short
  arrays, so RL on direct-convolution sizes, CSV/SVG writing and scenario
  parsing dominate.
* ``warm_dense`` - the same on scenarios generated from the bundled ones
  with 6001-point delay scans and 4096-point phase sweeps: the per-point
  scan engine, RL on FFT-sized arrays and the erf fit dominate.
* ``cold_cli`` - a fresh ``python -m ucspd.cli`` process per operation on
  the bundled scenarios: what a user waits for, dominated by interpreter
  start and imports.  At about a second per operation a 40 s run gets only
  three or four samples per subcommand, too few for a steady median, so
  BENCHMARK.json leaves it out; run it by hand with ``--seconds 240``.
  Import cost is still gated on every workload through ``setup_s``.

``--seed`` is passed to ucspd as ``--seed`` (bundled scenarios) or written
into the generated scenario files (dense).  With ``--trace 0`` the last line
of stdout holds the end-to-end metrics.  Their times are wall times scaled
to a reference host speed (see ``speed.py``); the raw wall times are printed
on ``wall`` lines and kept in the result file.  With ``--trace 1`` a separate
run wraps the public functions of each module from outside (see
``spans.py``) and reports per-layer metrics, unscaled, for one pass.
Results, including every artifact digest, are merged into ``--result``
(default ``.bench_out/result.json``); ``--compare`` prints the deltas
between two such files and lists every artifact whose digest changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cold_cli", "warm_bundled", "warm_dense")
SETUP_PROBES = 3
OP_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 150.0
# the bundled scenario whose cold operations are timed both with and without
# span wrappers, for trace.overhead_ratio
OVERHEAD_SCENARIO = "l2_300mw"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one client runs one operation at a time on small arrays: a single BLAS
    # or OpenMP thread keeps thread-pool start-up and contention out of it
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def setup_probe(config: dict, env: dict, trace: bool) -> tuple:
    """Launch a fresh worker that imports ucspd.cli and generates the inputs.

    Returns the seconds until it reported ready, its ready record and, when
    ``trace``, its ``-X importtime`` profile.
    """
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []),
           str(BENCH / "worker.py"), json.dumps({**config, "mode": "setup"})]
    log_path = Path(config["workdir"]) / "probe_stderr.txt"
    with open(log_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, text=True)
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        try:
            proc.communicate(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or not line:
        raise HarnessError(f"setup probe failed: {log_path.read_text(encoding='utf-8')[-2000:]}")
    ready = json.loads(line)
    src = str(ROOT / "src") + os.sep
    if not ready["ucspd_file"].startswith(src):
        raise HarnessError(f"ucspd was imported from {ready['ucspd_file']}, not from {src}")
    profile = spans.import_profile(log_path.read_text(encoding="utf-8")) if trace else None
    return seconds, ready, profile


def run_child(cmd: list, env: dict) -> tuple:
    """Run one CLI process; return exit code, stdout+stderr, seconds, max RSS (KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=ROOT, text=True)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output, seconds, usage.ru_maxrss


def run_cold(config: dict, specs: list, env: dict) -> dict:
    from worker import argv_for, bad_spec

    log = checks.OpLog()
    maxrss = 0
    dump = {}
    kernel_s = []
    workdir = Path(config["workdir"])

    def op(sub, spec, traced=False):
        nonlocal maxrss
        kernel_s.extend(speed.reference_kernel() for _ in range(3))
        if traced:
            spans_path = workdir / "spans.json"
            cmd = [sys.executable, str(BENCH / "launch.py"), str(spans_path), *argv_for(sub, spec)]
        else:
            cmd = [sys.executable, "-m", "ucspd.cli", *argv_for(sub, spec)]
        code, output, seconds, rss = run_child(cmd, env)
        maxrss = max(maxrss, rss)
        log.record(sub, spec, code, output, seconds, "timed", traced)
        if traced and code == 0:
            spans.merge(dump, json.loads(spans_path.read_text(encoding="utf-8")))

    if config["inject_bad_op"]:
        op("resolve", bad_spec(config["workdir"]))
    if config["trace"]:
        # one traced pass over every scenario; the overhead scenario also untraced
        for spec in specs:
            for sub in checks.SUBCOMMANDS:
                if spec["name"] == OVERHEAD_SCENARIO:
                    op(sub, spec)
                op(sub, spec, traced=True)
        traced_passes = 1
    else:
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < config["seconds"]:
            for sub in checks.SUBCOMMANDS:
                op(sub, specs[k % len(specs)])
            k += 1
        traced_passes = 0
    return {"ops": log.ops, "digests": log.digests, "trace": dump,
            "traced_passes": traced_passes, "maxrss_kib": maxrss, "kernel_s": kernel_s}


def run_warm(config: dict, env: dict) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps({**config, "mode": "warm"})]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        output, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with code {proc.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def op_tail(times: list) -> tuple:
    """Highest percentile with at least ten samples beyond it: (value, percentile).

    With ten samples or fewer no percentile qualifies, and the maximum is used.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup: list, ops: list, maxrss_kib: int) -> tuple:
    timed = [op for op in ops if op["phase"] == "timed" and op["ok"] and not op["traced"]]
    metrics = {"setup_s": statistics.median(setup)}
    for sub in checks.SUBCOMMANDS:
        times = [op["seconds"] for op in timed if op["sub"] == sub]
        metrics[f"{sub}_p50_s"] = statistics.median(times) if times else 0.0
    times = [op["seconds"] for op in timed]
    tail, percentile = op_tail(times) if times else (0.0, 0.0)
    metrics["op_tail_s"] = tail
    metrics["ops_per_s"] = len(times) / sum(times) if times else 0.0
    drawing = [op for op in timed if op["points"]]
    busy = sum(op["seconds"] for op in drawing)
    metrics["scan_points_per_s"] = sum(op["points"] for op in drawing) / busy if busy else 0.0
    metrics["peak_rss_mib"] = maxrss_kib / 1024.0
    return metrics, {"percentile": percentile, "samples": len(times)}


def per_layer(profiles: list, outcome: dict) -> dict:
    traced = [op for op in outcome["ops"] if op["traced"] and op["ok"]]
    passes = max(outcome["traced_passes"], 1)
    metrics = {
        key: statistics.median(p[key] for p in profiles) for key in profiles[0]
    }
    metrics.update(spans.layer_metrics(
        outcome["trace"], passes,
        sum(op["bytes"] for op in traced), sum(op["files"] for op in traced),
    ))
    # the same operations, timed in this run with and without the wrappers
    plain = [op for op in outcome["ops"] if op["phase"] == "timed" and op["ok"] and not op["traced"]]
    both = {(op["sub"], op["scenario"]) for op in traced} & {(op["sub"], op["scenario"]) for op in plain}

    def mean_seconds(ops):
        times = [op["seconds"] for op in ops if (op["sub"], op["scenario"]) in both]
        return sum(times) / len(times) if times else 0.0

    base = mean_seconds(plain)
    metrics["trace.overhead_ratio"] = mean_seconds(traced) / base if base else 0.0
    return metrics


def environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_lines": src_lines,
    }


def merge_result(path: Path, workload: str, entry: dict, seed: int, digests: dict) -> None:
    """Merge one run into the result file, keyed by workload, digests also by seed."""
    try:
        result = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    if not isinstance(result.get("workloads"), dict):
        result = {"workloads": {}}
    slot = result["workloads"].setdefault(workload, {})
    slot.update(entry)
    slot.setdefault("digests", {})[str(seed)] = digests
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run(args) -> int:
    if not (ROOT / "src" / "ucspd" / "cli.py").is_file():
        raise HarnessError(f"no ucspd sources under {ROOT / 'src'}; run from a source checkout")
    workdir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = {
        "root": str(ROOT),
        "workdir": str(workdir),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "inject_bad_op": args.inject_bad_op,
        "scenarios": [OVERHEAD_SCENARIO] if args.smoke else list(checks.BUNDLED),
    }
    env = child_env()
    setup, profiles, kernel_s = [], [], []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        kernel_s.extend(speed.reference_kernel() for _ in range(3))
        seconds, ready, profile = setup_probe(config, env, bool(args.trace))
        setup.append(seconds)
        profiles.append(profile)
    if args.workload == "cold_cli":
        outcome = run_cold(config, ready["specs"], env)
    else:
        outcome = run_warm(config, env)

    ops = outcome["ops"]
    failed = [op for op in ops if not op["ok"]]
    entry = {
        "seed": args.seed,
        "attempted": len(ops),
        "failed": len(failed),
        "ops_failed_ratio": len(failed) / len(ops),
        "failures": [f"{op['sub']} {op['scenario']}: {op['problems']}" for op in failed[:10]],
    }
    section = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        metrics = per_layer(profiles, outcome)
        entry["traced_passes"] = outcome["traced_passes"]
    else:
        wall, entry["op_tail"] = end_to_end(setup, ops, outcome["maxrss_kib"])
        kernel_s += outcome["kernel_s"]
        scale = speed.REFERENCE_S / statistics.mean(kernel_s)
        metrics = {
            name: value * scale if units.get(name) == "s"
            else value / scale if units.get(name) == "1/s" else value
            for name, value in wall.items()
        }
        entry["end_to_end_wall"] = wall
        entry["setup_samples_s"] = setup
        entry["host_speed"] = {"kernel_mean_s": statistics.mean(kernel_s),
                               "kernel_samples": len(kernel_s), "scale": scale}
    entry[section] = metrics
    if set(units) != set(metrics):
        raise HarnessError(f"measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    # versions sit beside the digests: artifacts depend on numpy and scipy
    entry["environment"] = environment(ready["versions"])
    merge_result(Path(args.result), args.workload, entry, args.seed, outcome["digests"])

    for key, value in entry["environment"].items():
        print(f"env {key} {value}")
    for line in entry["failures"]:
        print(f"failed {line}")
    print(f"ops attempted {entry['attempted']} failed {entry['failed']} "
          f"ops_failed_ratio {entry['ops_failed_ratio']:.6g}")
    if not args.trace:
        print(f"op_tail_s percentile {entry['op_tail']['percentile']:.4g} "
              f"samples {entry['op_tail']['samples']}")
        print(f"host_speed kernel_mean_s {entry['host_speed']['kernel_mean_s']:.6g} "
              f"samples {entry['host_speed']['kernel_samples']} scale {scale:.6g}")
        for name, value in wall.items():
            print(f"wall {args.workload} {name} {value:.6g} {units[name]}")
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    for workload in sorted(set(old["workloads"]) | set(new["workloads"])):
        a = old["workloads"].get(workload, {})
        b = new["workloads"].get(workload, {})
        print(f"== {workload}")
        env_a, env_b = a.get("environment", {}), b.get("environment", {})
        for key in sorted(set(env_a) | set(env_b)):
            if env_a.get(key) != env_b.get(key):
                print(f"environment {key} {env_a.get(key)} -> {env_b.get(key)}")
        for section in ("end_to_end", "per_layer"):
            before, after = a.get(section, {}), b.get(section, {})
            for name in sorted(set(before) | set(after)):
                x, y = before.get(name), after.get(name)
                delta = f"{100.0 * (y - x) / x:+.1f}%" if x and y is not None else "n/a"
                print(f"{section} {name} {x} -> {y} {delta}")
        before, after = a.get("digests", {}), b.get("digests", {})
        for seed in sorted(set(before) & set(after)):
            for scenario in sorted(set(before[seed]) | set(after[seed])):
                x, y = before[seed].get(scenario, {}), after[seed].get(scenario, {})
                for name in sorted(set(x) | set(y)):
                    if x.get(name) != y.get(name):
                        print(f"digest changed seed={seed} {scenario}/{name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", default=str(ROOT / ".bench_out" / "result.json"),
                        help="result file the run is merged into")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print metric deltas and changed digests between two result files")
    parser.add_argument("--smoke", action="store_true",
                        help="one scenario and one set-up probe, for the harness self-test")
    parser.add_argument("--inject-bad-op", action="store_true",
                        help="add one operation on an unknown scenario, which must count as failed")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    try:
        return run(args)
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
