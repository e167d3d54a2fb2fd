"""Declarative run configuration: one YAML document drives every subcommand.

A scenario file is the reproducibility contract: it pins the detector
(crystal, efficiency chain, pump saturation, noise growth), the source
(pulse widths, photon flux), the experiment parameters for each subcommand,
and the random seed.

This module is the one boundary where scenario values are checked.  One
field table, ``_SCHEMA``, gives every key with its check and its default
(or ``_REQUIRED``); a section is optional when every key in it has a
default.  A key's own range is its check there, and what involves several
keys is checked after the walk, by ``_check_together``; every refusal,
unknown keys included, names a key or section path.  The model code checks
only what it computes from these values.  The tree the walk returns, without
``output_dir``, is the effective configuration that is hashed and from
which the scenario records, whose fields are the schema's keys, are built.

The scenario hash is the first 12 hex characters of the SHA-256 of the
effective configuration (defaults filled in, sorted keys, compact JSON).
The output directory is excluded from the hash, because moving artifacts
must not change their identity; the seed is included, because it changes
the counts.  Every artifact file embeds this hash so downstream aggregation
can refuse to mix runs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from collections import namedtuple

import numpy as np

from .detector import efficiency_at_power, external_efficiency, noise_cps, noise_n0, pump_eta_max
from .errors import ScenarioError, ValidationError
from .waveform import MAX_SAMPLES, check_sample_count

__all__ = [
    "ScanSection",
    "SweepSection",
    "TimebinSection",
    "LimitsSection",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "scenario_with_seed",
]

_HASH_LENGTH = 12

# sentinel distinct from None so explicit nulls are caught as type errors
_REQUIRED = object()


# tabs, and the characters YAML refuses or reads as line breaks
_UNREADABLE = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff\ufffe\uffff]")
_QUOTED = r"""'(?:[^']|'')*'|"(?:[^"\\]|\\.)*\""""
# the indent, the key (a word or quoted, of at most 100 characters) and the
# value of a line, whose comment is dropped; a blank or comment line has no key
_LINE = re.compile(r"""( *)(?:(\w{1,100}|'(?:[^']|''){0,100}'|"(?:[^"\\]|\\.){0,100}") *:"""
                   rf"""(?: +({_QUOTED}|[^ '"#].*?))?(?: +#.*| *)|#.*)?""")
_INT = re.compile(r"[-+]?(?:0|[1-9][0-9]*)")
_FLOAT = re.compile(r"[-+]?(?:[0-9]+\.[0-9]*|\.?[0-9]+(?=[eE]))(?:[eE][-+]?[0-9]+)?|\.[0-9]+")
_NUMBERISH = re.compile(r"[-+.0-9][-+.:\w ]*")  # what YAML 1.1 may read as a number or date
# the plain words PyYAML reads as null, true, false, infinity and nan
_WORDS = {"~": None, **dict.fromkeys((".nan", ".NaN", ".NAN"), float("nan")), **{
    case(word): value for case in (str.lower, str.title, str.upper) for word, value in (
        ("null", None), ("true", True), ("false", False),
        (".inf", float("inf")), ("+.inf", float("inf")), ("-.inf", -float("inf")))}}


def _scalar(text):
    """A scalar's value as PyYAML reads it; ValueError if the subset does not hold it."""
    if text[0] == "'":
        return text[1:-1].replace("''", "'")
    # JSON joins an escaped surrogate pair into one character, YAML does not
    if text[0] == '"' and not re.search(r"\\u[dD][89abAB]", text):
        return json.loads(text)
    if text in _WORDS or text == "{}":
        return _WORDS.get(text, {})
    if _INT.fullmatch(text):
        return int(text)
    if _FLOAT.fullmatch(text):
        return float(text)
    if (text.lower() in ("yes", "no", "on", "off", "<<", "=") or text[0] in "-\"[]{},?:&*!|>%@`"
            or ": " in text or text[-1] == ":" or _NUMBERISH.fullmatch(text)):
        raise ValueError(f"unsupported scalar {text!r}")
    return text


def _read(text: str, source: str):
    """The tree PyYAML's safe loader gives a scenario document, with exponent floats,
    or ``None`` if it has no keys; refuses the rest naming ``source`` and the line."""
    root = {}
    mappings = [(0, root)]  # the open mappings, by the indent of their keys
    parent = None  # the mapping and key a deeper next line opens a mapping under
    for n, line in enumerate(text.split("\n"), 1):
        try:
            bad = _UNREADABLE.search(line)
            if bad:
                raise ValueError(f"character {bad[0]!r} is not allowed")
            match = _LINE.fullmatch(line)
            if match is None:
                raise ValueError("expected 'key: value' or 'key:'")
            if match[2] is None:
                continue
            indent, key, value = len(match[1]), _scalar(match[2]), match[3]
            if parent and indent > mappings[-1][0]:
                mappings.append((indent, {}))
                parent[0][parent[1]] = mappings[-1][1]
            while indent < mappings[-1][0]:
                mappings.pop()
            if indent != mappings[-1][0]:
                raise ValueError("the indentation matches no open mapping")
            mapping = mappings[-1][1]
            if key in mapping:
                raise ValueError(f"duplicate key {key!r}")
            mapping[key] = None if value is None else _scalar(value)
            parent = (mapping, key) if value is None else None
        except ValueError as exc:
            raise ScenarioError(f"scenario is not valid YAML: {source}, line {n}: {exc}") from exc
    return root or None


class _Interval(namedtuple("_Interval", "low high zero", defaults=(False,))):
    """A key's range: a number in ``[low, high]``, and 0 as well if ``zero``.

    A range with int ends holds ints and returns them unchanged, so an int
    key stays an int in the hashed configuration; one with float ends holds
    any real and returns a float.  The ranges hold every detector a lab could
    build and keep each quantity the model derives from them finite and
    normal, so no model code guards against overflow or subnormal values.
    """

    __slots__ = ()

    def __str__(self) -> str:
        form = "d" if isinstance(self.low, int) else "g"
        return f"in [{self.low:{form}}, {self.high:{form}}]" + (" or 0" if self.zero else "")

    def __call__(self, value, path):
        integer = isinstance(self.low, int)
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            raise ScenarioError(
                f"{path}: expected {'an integer' if integer else 'a number'}, got {value!r}")
        # compared before the conversion, which an int too large for a float refuses
        if not (self.low <= value <= self.high or self.zero and value == 0):
            raise ScenarioError(f"{path}: must be {self}, got {value}")
        return value if integer else float(value)


def _label(value, path):
    # a CSV's first line holds the name, an SVG's XML the label and a wrote,
    # line of stdout the output directory: none may hold a line break or
    # another character YAML refuses, escaped or not
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string, got {value!r}")
    bad = _UNREADABLE.search(value)
    if bad:
        raise ScenarioError(f"{path}: character {bad[0]!r} is not allowed")
    return value


def _string(value, path):
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{path}: expected a non-empty string, got {value!r}")
    return _label(value, path)


def _signal(value, path):
    if value not in ("gaussian", "timebin"):
        raise ScenarioError(f"{path}: must be 'gaussian' or 'timebin', got {value!r}")
    return value


def _boolean(value, path):
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected true or false, got {value!r}")
    return value


# The schema: key -> (check, default or _REQUIRED), or key -> nested section.
_SCHEMA = {
    "name": (_string, _REQUIRED),
    "seed": (_Interval(0, 2 ** 64 - 1), _REQUIRED),
    "output_dir": (_string, "out"),
    "detector": {
        "crystal": {
            "length_mm": (_Interval(1e-3, 1e3), _REQUIRED),
            # the pump/signal group-delay difference of PPMgSLT at the
            # operating wavelengths; the gate is tau_g * L wide
            "tau_g_fs_per_mm": (_Interval(1e-3, 1e4), 204.3),
            "label": (_label, ""),  # names the crystal on plots, enters no calculation
        },
        # the reference setup: a silicon APD, single-mode fiber re-coupling
        # of the up-converted light, and the pump/background rejection filters
        "chain": {
            "apd_efficiency": (_Interval(1e-6, 1.0, zero=True), 0.41),
            "fiber_coupling": (_Interval(1e-6, 1.0, zero=True), 0.85),
            "filter_transmittance": (_Interval(1e-6, 1.0, zero=True), 0.94),
        },
        "pump": {
            "p_sat_mw": (_Interval(1e-3, 1e6), _REQUIRED),
            "calibration_power_mw": (_Interval(1e-3, 1e6), _REQUIRED),
            "calibration_eta": (_Interval(1e-6, 1.0), _REQUIRED),
        },
        "noise": {
            "dark_cps": (_Interval(1e-3, 1e9, zero=True), _REQUIRED),
            # exp(growth * eta) stays finite for every eta up to 1; a growth of
            # 0 (no pump-induced noise) passes, and noise_n0 refuses it because
            # it fixes no n0_cps
            "growth_per_unit_eta": (_Interval(1e-3, 500.0, zero=True), _REQUIRED),
            "calibration_eta": (_Interval(1e-6, 1.0), _REQUIRED),
            "calibration_noise_cps": (_Interval(1e-3, 1e9, zero=True), _REQUIRED),
        },
    },
    "source": {
        "pump_fwhm_fs": (_Interval(1.0, 1e6), _REQUIRED),
        "signal_fwhm_fs": (_Interval(1.0, 1e6), _REQUIRED),
        "mean_photons_per_pulse": (_Interval(1e-12, 1e12, zero=True), 0.1),
        "rep_rate_hz": (_Interval(1.0, 1e12), 76.3e6),
        "pump_power_mw": (_Interval(1e-3, 1e6), _REQUIRED),
    },
    "experiment": {
        "dt_fs": (_Interval(1e-3, 1e4), 1.0),
        "scan": {
            "start_fs": (_Interval(-1e9, 1e9), _REQUIRED),
            "stop_fs": (_Interval(-1e9, 1e9), _REQUIRED),
            "step_fs": (_Interval(1e-3, 1e9), _REQUIRED),
            "dwell_s": (_Interval(1e-6, 1e6), 1.0),
            "signal": (_signal, "gaussian"),
        },
        "sweep": {
            "n_points": (_Interval(5, MAX_SAMPLES), 24),
            "dwell_s": (_Interval(1e-6, 1e6), 1.0),
            # wide enough that a mean above the Poisson sampler's limit stays possible
            "counts_scale": (_Interval(1e-3, 1e20), _REQUIRED),
            "include_noise": (_boolean, False),
        },
        "timebin": {
            "slot_spacing_fs": (_Interval(1.0, 1e6), _REQUIRED),
            "phase_rad": (_Interval(-1e6, 1e6), 0.0),
            "phase_prime_rad": (_Interval(-1e6, 1e6), 0.0),
            "contrast": (_Interval(1e-6, 1.0), 1.0),
        },
        "limits": {
            "power_start_mw": (_Interval(1e-3, 1e6), _REQUIRED),
            "power_stop_mw": (_Interval(1e-3, 1e6), _REQUIRED),
            "power_step_mw": (_Interval(1e-3, 1e6), _REQUIRED),
            "integration_s": (_Interval(1e-6, 1e6), 1.0),
        },
    },
}


def _default(spec):
    """A key's default: ``{}`` for a section whose keys all have defaults."""
    if isinstance(spec, dict):
        optional = all(_default(inner) is not _REQUIRED for inner in spec.values())
        return {} if optional else _REQUIRED
    return spec[1]


def _walk(node, table, path=""):
    """Check a mapping against a schema table; return it with defaults filled in."""
    where = path or "scenario"
    if not isinstance(node, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {type(node).__name__}")
    tree = {}
    for key, spec in table.items():
        value = node.get(key, _default(spec))
        if value is _REQUIRED:
            raise ScenarioError(f"{where}: missing required key {key!r}")
        key_path = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            tree[key] = _walk(value, spec, key_path)
        else:
            tree[key] = spec[0](value, key_path)
    extra = node.keys() - table.keys()
    if extra:
        raise ScenarioError(f"{where}: unknown keys: {', '.join(sorted(map(str, extra)))}")
    return tree


def _build(path, factory, *args):
    """Call ``factory``, reporting its refusal under the section path."""
    try:
        return factory(*args)
    except ValidationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _check_together(tree: dict) -> None:
    """Refuse values that are in range alone but not together, naming their section or key."""
    source, experiment = tree["source"], tree["experiment"]
    # every pulse is sampled on the model grid, which must resolve the narrower one
    narrower = min(("pump_fwhm_fs", "signal_fwhm_fs"), key=source.__getitem__)
    if experiment["dt_fs"] > 0.5 * source[narrower]:
        raise ScenarioError(f"experiment.dt_fs: must be at most half of source.{narrower} "
                            f"({source[narrower]} fs), got {experiment['dt_fs']}")
    scan = experiment["scan"]
    start, stop, step = scan["start_fs"], scan["stop_fs"], scan["step_fs"]
    if stop <= start:
        raise ScenarioError(f"experiment.scan: scan stop {stop} must exceed start {start}")
    count = ScanSection(**scan).point_count()
    _build("experiment.scan", check_sample_count, count, f"step_fs {step}")
    if count < 2.0:
        raise ScenarioError(
            f"experiment.scan: step_fs {step} leaves one scan point from start_fs {start} "
            f"to stop_fs {stop}; a scan needs at least 2"
        )
    limits = experiment["limits"]
    start, stop, step = limits["power_start_mw"], limits["power_stop_mw"], limits["power_step_mw"]
    if stop <= start:
        raise ScenarioError(f"experiment.limits: power sweep stop {stop} must exceed "
                            f"start {start}")
    _build("experiment.limits", check_sample_count, LimitsSection(**limits).point_count(),
           f"power_step_mw {step}")


def _leaves(mapping: dict) -> list:
    """The keys of a schema table or a checked tree that hold values, not sections."""
    return [key for key, value in mapping.items() if not isinstance(value, dict)]


_DETECTOR, _EXPERIMENT = _SCHEMA["detector"], _SCHEMA["experiment"]


class ScanSection(namedtuple("ScanSection", _EXPERIMENT["scan"])):
    """Delay-scan parameters for the ``scan`` and ``deconv`` subcommands."""

    __slots__ = ()

    def coordinates(self) -> np.ndarray:
        """Delays from ``start_fs`` in ``step_fs`` steps, up to ``stop_fs`` plus half a step."""
        return np.arange(self.start_fs, self.stop_fs + 0.5 * self.step_fs, self.step_fs)

    def point_count(self) -> float:
        """The length of :meth:`coordinates`, as ``np.arange`` counts it."""
        return float(np.ceil((self.stop_fs + 0.5 * self.step_fs - self.start_fs) / self.step_fs))


SweepSection = namedtuple("SweepSection", _EXPERIMENT["sweep"])
SweepSection.__doc__ = "Phase-sweep parameters for the ``sweep`` and ``fitvis`` subcommands."

TimebinSection = namedtuple("TimebinSection", _EXPERIMENT["timebin"])
TimebinSection.__doc__ = "Qubit-state parameters for the ``timebin`` subcommand."


class LimitsSection(namedtuple("LimitsSection", _EXPERIMENT["limits"])):
    """Pump-power sweep for the ``limits`` subcommand."""

    __slots__ = ()

    def point_count(self) -> float:
        """Whole steps up to 1e-12 relative past the stop, plus one."""
        last = (self.power_stop_mw * (1.0 + 1e-12) - self.power_start_mw) / self.power_step_mw
        return float(np.floor(last)) + 1.0

    def powers_mw(self) -> list:
        """``point_count()`` powers from ``power_start_mw`` in ``power_step_mw`` steps."""
        return (self.power_start_mw + self.power_step_mw * np.arange(self.point_count())).tolist()


_SECTIONS = {
    "scan": ScanSection, "sweep": SweepSection, "timebin": TimebinSection, "limits": LimitsSection,
}


class Scenario(namedtuple("Scenario", [
    *_leaves(_SCHEMA), *_DETECTOR["crystal"], *_DETECTOR["chain"], "pump_curve", "noise_curve",
    *_SCHEMA["source"], *_EXPERIMENT, "effective_json",
])):
    """A fully validated run configuration, with fields taken from the schema.

    The top-level, crystal, chain and source keys are fields, and so is each
    experiment key, a section as a record of its own keys.  The pump and noise
    keys become two curves at parse time: ``pump_curve`` is
    ``(eta_max, p_sat_mw)`` and ``noise_curve`` is
    ``(dark_cps, n0_cps, growth_per_unit_eta)``, which ``operating_point``
    evaluates.  ``effective_json`` is the canonical form the scenario hash is
    computed from.
    """

    __slots__ = ()

    @property
    def gate_width_fs(self) -> float:
        """Full width of the crystal's rectangular time gate."""
        return self.length_mm * self.tau_g_fs_per_mm

    @property
    def scenario_hash(self) -> str:
        digest = hashlib.sha256(self.effective_json.encode("utf-8")).hexdigest()
        return digest[:_HASH_LENGTH]

    def effective(self) -> dict:
        """The defaults-filled configuration the hash is computed over."""
        return json.loads(self.effective_json)

    def operating_point(self, power_mw: float | None = None) -> tuple:
        """``(internal efficiency, external efficiency, noise cps)`` at a pump power.

        The power is ``pump_power_mw`` unless one is given.
        """
        power = self.pump_power_mw if power_mw is None else power_mw
        internal = efficiency_at_power(*self.pump_curve, power)
        external = external_efficiency(
            internal, self.apd_efficiency, self.fiber_coupling, self.filter_transmittance
        )
        return internal, external, noise_cps(*self.noise_curve, internal)


def _canonical_json(effective: dict) -> str:
    return json.dumps(effective, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=8)
def parse_scenario(text: str, path: str | None = None) -> Scenario:
    """Parse and validate a scenario document, read from the file ``path`` if given.

    The last few texts are cached: the same text returns the same object,
    which is immutable, and a text that is refused raises on every call.

    Raises
    ------
    ScenarioError
        YAML outside the subset ``_read`` reads, naming ``path`` (or
        ``<string>``) and the line; missing or unknown keys, or values out of
        range alone or together, naming the key or section path.
    """
    doc = _read(text, path or "<string>")
    if doc is None:
        required = [key for key, spec in _SCHEMA.items() if _default(spec) is _REQUIRED]
        raise ScenarioError("scenario is empty; required keys: " + ", ".join(required))
    tree = _walk(doc, _SCHEMA)
    _check_together(tree)
    output_dir = tree.pop("output_dir")
    detector, experiment = tree["detector"], tree["experiment"]
    pump, noise = detector["pump"], detector["noise"]
    eta_max = _build("detector.pump", pump_eta_max, pump["calibration_power_mw"],
                     pump["calibration_eta"], pump["p_sat_mw"])
    n0_cps = _build("detector.noise", noise_n0, noise["dark_cps"], noise["growth_per_unit_eta"],
                    noise["calibration_eta"], noise["calibration_noise_cps"])
    noise_curve = (noise["dark_cps"], n0_cps, noise["growth_per_unit_eta"])
    return Scenario(
        **{key: tree[key] for key in _leaves(tree)},
        output_dir=output_dir,
        **detector["crystal"],
        **detector["chain"],
        pump_curve=(eta_max, pump["p_sat_mw"]),
        noise_curve=noise_curve,
        **tree["source"],
        **{key: _SECTIONS[key](**value) if key in _SECTIONS else value
           for key, value in experiment.items()},
        effective_json=_canonical_json(tree),
    )


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    return parse_scenario(text, str(path))


def scenario_with_seed(scenario: Scenario, seed: int) -> Scenario:
    """A copy with a different seed (and therefore a different hash)."""
    seed = _SCHEMA["seed"][0](seed, "seed")
    effective = dict(scenario.effective(), seed=seed)
    return scenario._replace(seed=seed, effective_json=_canonical_json(effective))
