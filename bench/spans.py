"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions of the ``ucspd`` modules and
rebinds every module-level name that refers to them, including the names
``ucspd.cli`` imported with ``from ... import``.  Each wrapped call is a
span; a span's self time is its duration minus that of the spans it
directly encloses.  Nothing in ``ucspd`` is edited.

``import_profile`` turns ``python -X importtime`` output into the
``imports.*`` metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict


def _after_convolve(tracer, args, kwargs, result):
    tracer.count["waveform.convolve_madds"] += args[0].n * args[1].n


def _after_write_csv(tracer, args, kwargs, result):
    tracer.count["waveform.csv_rows"] += (args[1] if len(args) > 1 else kwargs["w"]).n


def _after_run_scan(tracer, args, kwargs, result):
    tracer.count["simulate.points"] += result.config.n_points


def _after_delay_rate_function(tracer, args, kwargs, rate):
    def counted(delay_fs):
        tracer.count["simulate.rate_calls"] += 1
        return rate(delay_fs)

    return counted


def _after_deconvolve(tracer, args, kwargs, result):
    tracer.count["analysis.rl_iterations"] += result.iterations_run
    tracer.count["analysis.rl_converged"] += int(result.converged)


def _after_fit_erf_gate(tracer, args, kwargs, result):
    tracer.count["analysis.erf_nfev"] += result.n_evaluations


def _after_line_plot(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    series = args[1] if len(args) > 1 else kwargs["series"]
    tracer.count["svgplot.points"] += sum(len(s[0]) for s in series)
    tracer.count["svgplot.bytes"] += os.path.getsize(path)


# (module, function, span name, hook run on the result)
TARGETS = (
    ("ucspd.cli", "main", "cli.main", None),
    ("ucspd.scenario", "load_scenario", "scenario.load", None),
    ("ucspd.scenario", "scenario_with_seed", "scenario.load", None),
    ("ucspd.response", "resolution_function", "response.resolution_function", None),
    ("ucspd.waveform", "convolve", "waveform.convolve", _after_convolve),
    ("ucspd.waveform", "write_csv", "waveform.write_csv", _after_write_csv),
    ("ucspd.timebin", "synthesize_waveform", "timebin.synthesize_waveform", None),
    ("ucspd.detector", "detection_limit", "detector.detection_limit", None),
    ("ucspd.simulate", "delay_rate_function", "simulate.delay_rate_function",
     _after_delay_rate_function),
    ("ucspd.simulate", "run_scan", "simulate.run_scan", _after_run_scan),
    ("ucspd.analysis", "deconvolve", "analysis.deconvolve", _after_deconvolve),
    ("ucspd.analysis", "fit_sine", "analysis.fit_sine", None),
    ("ucspd.analysis", "fit_erf_gate", "analysis.fit_erf_gate", _after_fit_erf_gate),
    ("ucspd.svgplot", "line_plot", "svgplot.line_plot", _after_line_plot),
)


class Tracer:
    """Span totals (seconds), self times and counts, keyed by span name."""

    def __init__(self) -> None:
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self._enclosed = [0.0]
        self._restore = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer._enclosed.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                enclosed = tracer._enclosed.pop()
                tracer._enclosed[-1] += elapsed
                tracer.time[name] += elapsed
                tracer.self_time[name] += elapsed - enclosed
                tracer.calls[name] += 1
            if hook is not None:
                replaced = hook(tracer, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return span

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is skipped."""
        for module_name, attr, name, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ucspd" or mod_name.startswith("ucspd.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def dump(self) -> dict:
        return {
            "time": dict(self.time),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "count": dict(self.count),
        }


def merge(total: dict, part: dict) -> None:
    for section, values in part.items():
        bucket = total.setdefault(section, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value


def layer_metrics(dump: dict, passes: int, bytes_written: int, files_written: int) -> dict:
    """Per-layer metrics for one pass (every subcommand on every scenario once)."""
    t = dump.get("time", {})
    calls = dump.get("calls", {})
    count = dump.get("count", {})

    def per_pass(value):
        return value / passes

    def ratio(num, den):
        return num / den if den else 0.0

    points = count.get("simulate.points", 0)
    iterations = count.get("analysis.rl_iterations", 0)
    return {
        "scenario.load_s": per_pass(t.get("scenario.load", 0.0)),
        "scenario.calls": per_pass(calls.get("scenario.load", 0)),
        "response.resolution_function_s": per_pass(t.get("response.resolution_function", 0.0)),
        "response.calls": per_pass(calls.get("response.resolution_function", 0)),
        "waveform.convolve_s": per_pass(t.get("waveform.convolve", 0.0)),
        "waveform.convolve_calls": per_pass(calls.get("waveform.convolve", 0)),
        "waveform.convolve_madds": per_pass(count.get("waveform.convolve_madds", 0)),
        "waveform.write_csv_s": per_pass(t.get("waveform.write_csv", 0.0)),
        "waveform.csv_rows": per_pass(count.get("waveform.csv_rows", 0)),
        "timebin.synthesize_waveform_s": per_pass(t.get("timebin.synthesize_waveform", 0.0)),
        "timebin.calls": per_pass(calls.get("timebin.synthesize_waveform", 0)),
        "detector.detection_limit_s": per_pass(t.get("detector.detection_limit", 0.0)),
        "detector.calls": per_pass(calls.get("detector.detection_limit", 0)),
        "simulate.delay_rate_function_s": per_pass(t.get("simulate.delay_rate_function", 0.0)),
        "simulate.run_scan_s": per_pass(t.get("simulate.run_scan", 0.0)),
        "simulate.points": per_pass(points),
        "simulate.rate_calls": per_pass(count.get("simulate.rate_calls", 0)),
        "simulate.us_per_point": 1e6 * ratio(t.get("simulate.run_scan", 0.0), points),
        "analysis.deconvolve_s": per_pass(t.get("analysis.deconvolve", 0.0)),
        "analysis.rl_iterations": per_pass(iterations),
        "analysis.rl_us_per_iteration": 1e6 * ratio(t.get("analysis.deconvolve", 0.0), iterations),
        "analysis.rl_converged_ratio": ratio(
            count.get("analysis.rl_converged", 0), calls.get("analysis.deconvolve", 0)
        ),
        "analysis.fit_sine_s": per_pass(t.get("analysis.fit_sine", 0.0)),
        "analysis.fit_erf_gate_s": per_pass(t.get("analysis.fit_erf_gate", 0.0)),
        "analysis.erf_nfev": per_pass(count.get("analysis.erf_nfev", 0)),
        "svgplot.line_plot_s": per_pass(t.get("svgplot.line_plot", 0.0)),
        "svgplot.points": per_pass(count.get("svgplot.points", 0)),
        "svgplot.bytes": per_pass(count.get("svgplot.bytes", 0)),
        "cli.self_s": per_pass(dump.get("self", {}).get("cli.main", 0.0)),
        "cli.bytes_written": per_pass(bytes_written),
        "cli.files_written": per_pass(files_written),
    }


# Each imported module's self time goes to the innermost module on its
# import chain, itself included, that belongs to one of these packages.
# scipy imports some subpackages through importlib, which -X importtime
# does not log, so a package is recognised by its submodules' names.
IMPORT_GROUPS = {
    "numpy": "imports.numpy_s",
    "scipy.signal": "imports.scipy_signal_s",
    "scipy.optimize": "imports.scipy_optimize_s",
    "scipy.special": "imports.scipy_special_s",
    "yaml": "imports.yaml_s",
}


def _group(module: str):
    for package, metric in IMPORT_GROUPS.items():
        if module == package or module.startswith(package + "."):
            return metric
    return None


def import_profile(stderr_text: str) -> dict:
    """``imports.*`` metrics in seconds from ``-X importtime`` output."""
    nodes = []  # (depth, module, self_us, children), children filled post-order
    pending = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        fields = line.split("|")
        self_us = int(fields[0].split(":")[1])
        stripped = fields[2].lstrip(" ")
        depth = (len(fields[2]) - len(stripped) - 1) // 2
        node = (depth, stripped.strip(), self_us, [])
        while pending and pending[-1][0] > depth:
            node[3].append(pending.pop())
        pending.append(node)
        nodes.append(node)
    metrics = {metric: 0.0 for metric in IMPORT_GROUPS.values()}
    totals = {"total": 0.0, "ucspd": 0.0}

    def visit(node, inherited):
        _, module, self_us, children = node
        group = _group(module) or inherited
        seconds = self_us * 1e-6
        totals["total"] += seconds
        if module == "ucspd" or module.startswith("ucspd."):
            totals["ucspd"] += seconds
        if group is not None:
            metrics[group] += seconds
        for child in children:
            visit(child, group)

    for root in pending:
        visit(root, None)
    metrics["imports.total_s"] = totals["total"]
    metrics["imports.ucspd_self_s"] = totals["ucspd"]
    return metrics
