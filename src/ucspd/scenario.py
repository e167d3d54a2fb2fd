"""Declarative run configuration: one YAML document drives every subcommand.

A scenario file is the reproducibility contract: it pins the detector
(crystal, efficiency chain, pump saturation, noise model), the source
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
import math
import re
from collections import namedtuple

import numpy as np
import yaml

from .detector import (
    NoiseModel,
    PumpEfficiencyModel,
    efficiency_at_power,
    external_efficiency,
    noise_cps,
)
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


def _loader(base):
    """``base`` that refuses duplicate keys and reads exponent floats such as ``1e20``.

    PyYAML keeps the last of two equal keys in a mapping, so a key written
    twice would silently override the first; YAML requires keys to be
    unique, and this loader refuses the second with its line.  PyYAML also
    follows YAML 1.1, whose floats need a dot in the mantissa and a sign in
    the exponent, so ``1e20`` and ``1.0e20`` would load as strings.  The
    added resolver is tried after the YAML 1.1 ones and only matches plain
    scalars that were strings before.
    """
    class Loader(base):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key, _ in node.value:
                if isinstance(key, yaml.ScalarNode):
                    if (key.tag, key.value) in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found duplicate key {key.value!r}", key.start_mark,
                        )
                    seen.add((key.tag, key.value))
            return super().construct_mapping(node, deep)

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."),
    )
    return Loader


# libyaml's loader when PyYAML was built with it: same documents, several times faster
_LOADER = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _real(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: must be finite, got {value!r}")
    return value


def _positive(value, path):
    value = _real(value, path)
    if value <= 0.0:
        raise ScenarioError(f"{path}: must be positive, got {value}")
    return value


def _nonnegative(value, path):
    value = _real(value, path)
    if value < 0.0:
        raise ScenarioError(f"{path}: must be >= 0, got {value}")
    return value


def _fraction(value, path):
    value = _real(value, path)
    if not 0.0 <= value <= 1.0:
        raise ScenarioError(f"{path}: must be in [0, 1], got {value}")
    return value


def _positive_fraction(value, path):
    value = _real(value, path)
    if not 0.0 < value <= 1.0:
        raise ScenarioError(f"{path}: must be in (0, 1], got {value}")
    return value


def _integer(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    return value


def _seed(value, path):
    value = _integer(value, path)
    if not (0 <= value < 2 ** 64):
        raise ScenarioError(f"{path}: must be in [0, 2^64), got {value}")
    return value


def _string(value, path):
    if not isinstance(value, str) or not value:
        raise ScenarioError(f"{path}: expected a non-empty string, got {value!r}")
    return value


def _label(value, path):
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string, got {value!r}")
    return value


def _signal(value, path):
    if value not in ("gaussian", "timebin"):
        raise ScenarioError(f"{path}: must be 'gaussian' or 'timebin', got {value!r}")
    return value


def _sweep_points(value, path):
    value = _integer(value, path)
    if value < 5:
        raise ScenarioError(f"{path}: must be at least 5, got {value}")
    if value > MAX_SAMPLES:
        raise ScenarioError(f"{path}: {value} points are more than the {MAX_SAMPLES} allowed")
    return value


def _boolean(value, path):
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: expected true or false, got {value!r}")
    return value


# The schema: key -> (check, default or _REQUIRED), or key -> nested section.
_SCHEMA = {
    "name": (_string, _REQUIRED),
    "seed": (_seed, _REQUIRED),
    "output_dir": (_string, "out"),
    "detector": {
        "crystal": {
            "length_mm": (_positive, _REQUIRED),
            # the pump/signal group-delay difference of PPMgSLT at the
            # operating wavelengths; the gate is tau_g * L wide
            "tau_g_fs_per_mm": (_positive, 204.3),
            "label": (_label, ""),  # names the crystal on plots, enters no calculation
        },
        # the reference setup: a silicon APD, single-mode fiber re-coupling
        # of the up-converted light, and the pump/background rejection filters
        "chain": {
            "apd_efficiency": (_fraction, 0.41),
            "fiber_coupling": (_fraction, 0.85),
            "filter_transmittance": (_fraction, 0.94),
        },
        "pump": {
            "p_sat_mw": (_positive, _REQUIRED),
            "calibration_power_mw": (_positive, _REQUIRED),
            "calibration_eta": (_positive_fraction, _REQUIRED),
        },
        "noise": {
            "dark_cps": (_nonnegative, _REQUIRED),
            "growth_per_unit_eta": (_nonnegative, _REQUIRED),
            "calibration_eta": (_positive_fraction, _REQUIRED),
            "calibration_noise_cps": (_real, _REQUIRED),
        },
    },
    "source": {
        "pump_fwhm_fs": (_positive, _REQUIRED),
        "signal_fwhm_fs": (_positive, _REQUIRED),
        "mean_photons_per_pulse": (_nonnegative, 0.1),
        "rep_rate_hz": (_positive, 76.3e6),
        "pump_power_mw": (_positive, _REQUIRED),
    },
    "experiment": {
        "dt_fs": (_positive, 1.0),
        "scan": {
            "start_fs": (_real, _REQUIRED),
            "stop_fs": (_real, _REQUIRED),
            "step_fs": (_positive, _REQUIRED),
            "dwell_s": (_positive, 1.0),
            "signal": (_signal, "gaussian"),
        },
        "sweep": {
            "n_points": (_sweep_points, 24),
            "dwell_s": (_positive, 1.0),
            "counts_scale": (_positive, _REQUIRED),
            "include_noise": (_boolean, False),
        },
        "timebin": {
            "slot_spacing_fs": (_positive, _REQUIRED),
            "phase_rad": (_real, 0.0),
            "phase_prime_rad": (_real, 0.0),
            "contrast": (_positive_fraction, 1.0),
        },
        "limits": {
            "power_start_mw": (_positive, _REQUIRED),
            "power_stop_mw": (_real, _REQUIRED),
            "power_step_mw": (_positive, _REQUIRED),
            "integration_s": (_positive, 1.0),
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
    _build("experiment.scan", check_sample_count, (stop - start) / step + 1.0, f"step_fs {step}")
    # the ceiling of this ratio is the length of ScanSection.coordinates()
    if (stop + 0.5 * step - start) / step <= 1.0:
        raise ScenarioError(
            f"experiment.scan: step_fs {step} leaves one scan point from start_fs {start} "
            f"to stop_fs {stop}; a scan needs at least 2"
        )
    limits = experiment["limits"]
    start, stop, step = limits["power_start_mw"], limits["power_stop_mw"], limits["power_step_mw"]
    if stop <= start:
        raise ScenarioError(f"experiment.limits: power sweep stop {stop} must exceed "
                            f"start {start}")
    _build("experiment.limits", check_sample_count,
           (stop * (1.0 + 1e-12) - start) / step + 1.0, f"power_step_mw {step}")


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


SweepSection = namedtuple("SweepSection", _EXPERIMENT["sweep"])
SweepSection.__doc__ = "Phase-sweep parameters for the ``sweep`` and ``fitvis`` subcommands."

TimebinSection = namedtuple("TimebinSection", _EXPERIMENT["timebin"])
TimebinSection.__doc__ = "Qubit-state parameters for the ``timebin`` subcommand."


class LimitsSection(namedtuple("LimitsSection", _EXPERIMENT["limits"])):
    """Pump-power sweep for the ``limits`` subcommand."""

    __slots__ = ()

    def powers_mw(self) -> list:
        out = []
        k = 0
        while True:
            p = self.power_start_mw + k * self.power_step_mw
            if p > self.power_stop_mw * (1.0 + 1e-12):
                return out
            out.append(p)
            k += 1


_SECTIONS = {
    "scan": ScanSection, "sweep": SweepSection, "timebin": TimebinSection, "limits": LimitsSection,
}


class Scenario(namedtuple("Scenario", [
    *_leaves(_SCHEMA), *_DETECTOR["crystal"], *_DETECTOR["chain"], "pump_model", "noise_model",
    *_SCHEMA["source"], *_EXPERIMENT, "effective_json",
])):
    """A fully validated run configuration, with fields taken from the schema.

    The top-level, crystal, chain and source keys are fields, and so is each
    experiment key, a section as a record of its own keys; the pump and noise
    keys become ``pump_model`` and ``noise_model`` at parse time.
    ``effective_json`` is the canonical form the scenario hash is computed from.
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

    def internal_eta_at(self, power_mw: float | None = None) -> float:
        power = self.pump_power_mw if power_mw is None else power_mw
        return efficiency_at_power(self.pump_model, power)

    def external_eta_at(self, power_mw: float | None = None) -> float:
        return external_efficiency(
            self.internal_eta_at(power_mw),
            self.apd_efficiency,
            self.fiber_coupling,
            self.filter_transmittance,
        )

    def noise_cps_at(self, power_mw: float | None = None) -> float:
        return noise_cps(self.noise_model, self.internal_eta_at(power_mw))


def _canonical_json(effective: dict) -> str:
    return json.dumps(effective, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=8)
def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    The last few texts are cached: the same text returns the same object,
    which is immutable, and a text that is refused raises on every call.

    Raises
    ------
    ScenarioError
        Malformed YAML, missing or unknown keys, or values out of range alone
        or together; the message names the key or section path.
    """
    try:
        doc = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    if doc is None or doc == {}:
        required = [key for key, spec in _SCHEMA.items() if _default(spec) is _REQUIRED]
        raise ScenarioError("scenario is empty; required keys: " + ", ".join(required))
    tree = _walk(doc, _SCHEMA)
    _check_together(tree)
    output_dir = tree.pop("output_dir")
    detector, experiment = tree["detector"], tree["experiment"]
    pump, noise = detector["pump"], detector["noise"]
    pump_model = _build(
        "detector.pump", PumpEfficiencyModel.from_calibration,
        pump["calibration_power_mw"], pump["calibration_eta"], pump["p_sat_mw"],
    )
    noise_model = _build(
        "detector.noise", NoiseModel.from_calibration,
        noise["dark_cps"], noise["growth_per_unit_eta"],
        noise["calibration_eta"], noise["calibration_noise_cps"],
    )
    # noise grows with efficiency, and no pump power takes the efficiency
    # beyond eta_max, so a noise rate that is finite there is finite everywhere
    _build("detector.noise", noise_cps, noise_model, pump_model.eta_max)
    return Scenario(
        **{key: tree[key] for key in _leaves(tree)},
        output_dir=output_dir,
        **detector["crystal"],
        **detector["chain"],
        pump_model=pump_model,
        noise_model=noise_model,
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
    return parse_scenario(text)


def scenario_with_seed(scenario: Scenario, seed: int) -> Scenario:
    """A copy with a different seed (and therefore a different hash)."""
    seed = _seed(seed, "seed")
    effective = dict(scenario.effective(), seed=seed)
    return scenario._replace(seed=seed, effective_json=_canonical_json(effective))
