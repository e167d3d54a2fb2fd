"""Declarative run configuration: one YAML document drives every subcommand.

A scenario file is the reproducibility contract: it pins the detector
(crystal, efficiency chain, pump saturation, noise model), the source
(pulse widths, photon flux), the experiment parameters for each subcommand,
and the random seed.

This module is the one boundary where scenario values are checked.  One
field table, ``_SCHEMA``, gives every key with its check and its default
(or ``_REQUIRED``); a section is optional when every key in it has a
default.  A key's own range is its check there (the sweep's point count and
the scan's signal are checked by their sections), and what involves several
keys is checked after the walk; every refusal, unknown keys included, names
a key or section path.  The model code checks only what it computes from
these values.  The tree the walk returns, without ``output_dir``, is the
effective configuration that is hashed and from which the detector, source
and experiment objects are built.

The scenario hash is the first 12 hex characters of the SHA-256 of the
effective configuration (defaults filled in, sorted keys, compact JSON).
The output directory is excluded from the hash, because moving artifacts
must not change their identity; the seed is included, because it changes
the counts.  Every artifact file embeds this hash so downstream aggregation
can refuse to mix runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, replace

import yaml

from .detector import (
    EfficiencyChain,
    NoiseModel,
    PumpEfficiencyModel,
    efficiency_at_power,
    external_efficiency,
    noise_cps,
)
from .errors import ScenarioError, ValidationError
from .response import DEFAULT_GROUP_DELAY_FS_PER_MM, CrystalSpec
from .waveform import MAX_SAMPLES, PulseSpec, check_sample_count

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
    """``base`` that also reads YAML 1.2 exponent floats such as ``1e20``.

    PyYAML follows YAML 1.1, whose floats need a dot in the mantissa and a
    sign in the exponent, so ``1e20`` and ``1.0e20`` would load as strings.
    The added resolver is tried after the YAML 1.1 ones and only matches
    plain scalars that were strings before.
    """
    class Loader(base):
        pass

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
            "tau_g_fs_per_mm": (_positive, DEFAULT_GROUP_DELAY_FS_PER_MM),
            "label": (_label, ""),
        },
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
            "signal": (_string, "gaussian"),
        },
        "sweep": {
            "n_points": (_integer, 24),
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


def _build(path, factory, *args, **kwargs):
    """Construct a module object, reporting a cross-field refusal under the section path."""
    try:
        return factory(*args, **kwargs)
    except ValidationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ScanSection:
    """Delay-scan parameters for the ``scan`` and ``deconv`` subcommands."""

    start_fs: float
    stop_fs: float
    step_fs: float
    dwell_s: float
    signal: str

    def __post_init__(self) -> None:
        if self.stop_fs <= self.start_fs:
            raise ScenarioError(
                f"scan stop {self.stop_fs} must exceed start {self.start_fs}"
            )
        steps = (self.stop_fs - self.start_fs) / self.step_fs
        check_sample_count(steps + 1.0, f"step_fs {self.step_fs}")
        if self.signal not in ("gaussian", "timebin"):
            raise ScenarioError(
                f"scan signal must be 'gaussian' or 'timebin', got {self.signal!r}"
            )


@dataclass(frozen=True)
class SweepSection:
    """Phase-sweep parameters for the ``sweep`` and ``fitvis`` subcommands."""

    n_points: int
    dwell_s: float
    counts_scale: float
    include_noise: bool

    def __post_init__(self) -> None:
        if self.n_points < 5:
            raise ScenarioError(f"sweep needs at least 5 points, got {self.n_points}")
        if self.n_points > MAX_SAMPLES:
            raise ScenarioError(
                f"sweep has {self.n_points} points, more than the {MAX_SAMPLES} allowed"
            )


@dataclass(frozen=True)
class TimebinSection:
    """Qubit-state parameters for the ``timebin`` subcommand."""

    slot_spacing_fs: float
    phase_rad: float
    phase_prime_rad: float
    contrast: float


@dataclass(frozen=True)
class LimitsSection:
    """Pump-power sweep for the ``limits`` subcommand."""

    power_start_mw: float
    power_stop_mw: float
    power_step_mw: float
    integration_s: float

    def __post_init__(self) -> None:
        if self.power_stop_mw <= self.power_start_mw:
            raise ScenarioError(
                f"power sweep stop {self.power_stop_mw} must exceed start "
                f"{self.power_start_mw}"
            )
        steps = (self.power_stop_mw * (1.0 + 1e-12) - self.power_start_mw) / self.power_step_mw
        check_sample_count(steps + 1.0, f"power_step_mw {self.power_step_mw}")

    def powers_mw(self) -> list:
        out = []
        k = 0
        while True:
            p = self.power_start_mw + k * self.power_step_mw
            if p > self.power_stop_mw * (1.0 + 1e-12):
                return out
            out.append(p)
            k += 1


@dataclass(frozen=True)
class Scenario:
    """A fully validated run configuration.

    All detector and source objects are constructed at parse time from
    values the schema has already checked; the sections below carry the
    per-subcommand experiment parameters.  ``effective_json`` is the
    canonical serialized form that the scenario hash is computed from.
    """

    name: str
    seed: int
    output_dir: str
    crystal: CrystalSpec
    apd_efficiency: float
    fiber_coupling: float
    filter_transmittance: float
    pump_model: PumpEfficiencyModel
    noise_model: NoiseModel
    pump_fwhm_fs: float
    signal_fwhm_fs: float
    mean_photons_per_pulse: float
    rep_rate_hz: float
    pump_power_mw: float
    dt_fs: float
    scan: ScanSection
    sweep: SweepSection
    timebin: TimebinSection
    limits: LimitsSection
    effective_json: str

    @property
    def scenario_hash(self) -> str:
        digest = hashlib.sha256(self.effective_json.encode("utf-8")).hexdigest()
        return digest[:_HASH_LENGTH]

    @property
    def pump_pulse(self) -> PulseSpec:
        return PulseSpec(fwhm_fs=self.pump_fwhm_fs)

    @property
    def signal_pulse(self) -> PulseSpec:
        return PulseSpec(fwhm_fs=self.signal_fwhm_fs)

    def effective(self) -> dict:
        """The defaults-filled configuration the hash is computed over."""
        return json.loads(self.effective_json)

    def internal_eta_at(self, power_mw: float | None = None) -> float:
        power = self.pump_power_mw if power_mw is None else power_mw
        return efficiency_at_power(self.pump_model, power)

    def chain_at(self, power_mw: float | None = None) -> EfficiencyChain:
        return EfficiencyChain(
            internal_upconversion=self.internal_eta_at(power_mw),
            apd_efficiency=self.apd_efficiency,
            fiber_coupling=self.fiber_coupling,
            filter_transmittance=self.filter_transmittance,
        )

    def external_eta_at(self, power_mw: float | None = None) -> float:
        return external_efficiency(self.chain_at(power_mw))

    def noise_cps_at(self, power_mw: float | None = None) -> float:
        return noise_cps(self.noise_model, self.internal_eta_at(power_mw))


def _canonical_json(effective: dict) -> str:
    return json.dumps(effective, sort_keys=True, separators=(",", ":"))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

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
    output_dir = tree.pop("output_dir")
    detector, source, experiment = tree["detector"], tree["source"], tree["experiment"]
    pump, noise = detector["pump"], detector["noise"]
    # every pulse is sampled on the model grid, which must resolve the narrower one
    narrower = min(("pump_fwhm_fs", "signal_fwhm_fs"), key=source.__getitem__)
    if experiment["dt_fs"] > 0.5 * source[narrower]:
        raise ScenarioError(f"experiment.dt_fs: must be at most half of source.{narrower} "
                            f"({source[narrower]} fs), got {experiment['dt_fs']}")

    scenario = Scenario(
        name=tree["name"],
        seed=tree["seed"],
        output_dir=output_dir,
        crystal=_build("detector.crystal", CrystalSpec, **detector["crystal"]),
        **detector["chain"],
        pump_model=_build(
            "detector.pump", PumpEfficiencyModel.from_calibration,
            pump["calibration_power_mw"], pump["calibration_eta"], pump["p_sat_mw"],
        ),
        noise_model=_build(
            "detector.noise", NoiseModel.from_calibration,
            noise["dark_cps"], noise["growth_per_unit_eta"],
            noise["calibration_eta"], noise["calibration_noise_cps"],
        ),
        **source,
        dt_fs=experiment["dt_fs"],
        scan=_build("experiment.scan", ScanSection, **experiment["scan"]),
        sweep=_build("experiment.sweep", SweepSection, **experiment["sweep"]),
        timebin=_build("experiment.timebin", TimebinSection, **experiment["timebin"]),
        limits=_build("experiment.limits", LimitsSection, **experiment["limits"]),
        effective_json=_canonical_json(tree),
    )
    # noise grows with efficiency, and no pump power takes the efficiency
    # beyond eta_max, so a noise rate that is finite there is finite everywhere
    _build("detector.noise", noise_cps, scenario.noise_model, scenario.pump_model.eta_max)
    return scenario


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path!r}: {exc}") from exc
    return parse_scenario(text)


def scenario_with_seed(scenario: Scenario, seed: int) -> Scenario:
    """A copy with a different seed (and therefore a different hash)."""
    seed = _seed(seed, "seed")
    effective = scenario.effective()
    effective["seed"] = seed
    return replace(scenario, seed=seed, effective_json=_canonical_json(effective))
