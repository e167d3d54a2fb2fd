"""Smoke test of the benchmark harness itself (about two minutes).

    python3 bench/selftest.py

For every workload ``run.py`` knows, including ``cold_cli``, which
BENCHMARK.json leaves out, it runs ``run.py --smoke`` twice and asserts that

* every metric ``BENCHMARK.json`` names is printed with its unit, end-to-end
  metrics without tracing and per-layer metrics with it;
* an operation on an unknown scenario name, which the CLI refuses with exit
  code 1, is counted as attempted and failed, so ``ops_failed_ratio`` is
  failed / attempted with the bad operation in both;
* a clean run reports ``correct`` with no failures.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int, bad: bool, result: Path) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke",
           "--result", str(result), *(["--inject-bad-op"] if bad else [])]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = ROOT / ".bench_out" / "selftest.json"
    result.unlink(missing_ok=True)
    for workload in WORKLOADS:
        for trace, section, bad in ((0, "end_to_end", True), (1, "per_layer", False)):
            out = run(workload, trace, bad, result)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metrics {got} != {want}"
            entry = json.loads(result.read_text(encoding="utf-8"))["workloads"][workload]
            if bad:
                assert not out["correct"] and out["failed"] == 1, out
                assert entry["ops_failed_ratio"] == 1 / out["attempted"], entry
                assert any("no_such_scenario" in line for line in entry["failures"]), entry
            else:
                assert out["correct"] and out["failed"] == 0, entry["failures"]
            print(f"ok {workload} trace={trace} attempted={out['attempted']} failed={out['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
