"""Scenario documents: reading, schema, validation diagnostics, and hashing."""

import json
import math
import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import ScenarioLoader, power_list_loop
from scenario_edits import RANGES, edited
from ucspd import cli
from ucspd.detector import detection_limit
from ucspd.errors import NumericalError, ScenarioError
from ucspd.scenario import (
    _REQUIRED, _SCHEMA, _UNREADABLE, LimitsSection, _default, _read, load_scenario,
    parse_scenario, scenario_with_seed,
)
from ucspd.waveform import MAX_SAMPLES

BUNDLED = resources.files("ucspd") / "scenarios"
NAMES = ("l1_300mw", "l2_300mw", "l3_300mw")
README = Path(__file__).resolve().parents[1] / "README.md"


def bundled_text(name="l2_300mw"):
    return (BUNDLED / f"{name}.scenario").read_text(encoding="utf-8")


def schema_keys(table=_SCHEMA, prefix=()):
    """(key path, table entry) for every key and section in the schema."""
    for key, spec in table.items():
        yield prefix + (key,), spec
        if isinstance(spec, dict):
            yield from schema_keys(spec, prefix + (key,))


def section_paths():
    return [()] + [path for path, spec in schema_keys() if isinstance(spec, dict)]


def default_valued(doc, table=_SCHEMA, prefix=()):
    """Key paths in ``doc`` whose value is what the schema fills in anyway."""
    found = []
    for key, spec in table.items():
        if key not in doc:
            continue
        path = prefix + (key,)
        if isinstance(spec, dict):
            inner = default_valued(doc[key], spec, path)
            found += inner
            if _default(spec) == {} and all(path + (k,) in inner for k in doc[key]):
                found.append(path)
        elif spec[1] is not _REQUIRED and doc[key] == spec[1]:
            found.append(path)
    return found


class TestParseBundled:
    def test_reference_scenario_parses(self):
        s = parse_scenario(bundled_text())
        assert s.name == "l2_300mw"
        assert s.length_mm == 2.0
        assert s.gate_width_fs == pytest.approx(408.6)
        assert s.pump_fwhm_fs == 200.0
        assert s.signal_fwhm_fs == 240.0
        assert s.mean_photons_per_pulse == 0.1
        assert s.rep_rate_hz == 76.3e6

    def test_calibration_anchors_reproduce(self):
        s = parse_scenario(bundled_text())
        # the pump and noise curves pass exactly through their anchors
        internal, _, noise = s.operating_point(300.0)
        assert internal == pytest.approx(0.101, rel=1e-12)
        assert noise == pytest.approx(800.0, rel=1e-12)
        assert s.operating_point()[1] == pytest.approx(0.101 * 0.41 * 0.85 * 0.94, rel=1e-12)

    @pytest.mark.parametrize("name", ["l1_300mw", "l2_300mw", "l3_300mw"])
    def test_all_bundled_scenarios_parse(self, name):
        s = parse_scenario(bundled_text(name))
        assert s.name == name
        assert len(s.scenario_hash) == 12
        int(s.scenario_hash, 16)

    def test_load_scenario_reads_files(self, tmp_path):
        path = tmp_path / "copy.scenario"
        path.write_text(bundled_text(), encoding="utf-8")
        assert load_scenario(path).scenario_hash == parse_scenario(bundled_text()).scenario_hash

    def test_load_scenario_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.scenario")

    def test_a_text_is_parsed_once(self):
        assert parse_scenario(bundled_text()) is parse_scenario(bundled_text())

    def test_a_rewritten_file_is_read_again(self, tmp_path):
        path = tmp_path / "edited.scenario"
        path.write_text(bundled_text(), encoding="utf-8")
        first = load_scenario(path).scenario_hash
        edited = bundled_text().replace("seed: 20260815", "seed: 7")
        path.write_text(edited, encoding="utf-8")
        assert load_scenario(path).scenario_hash == parse_scenario(edited).scenario_hash != first

    def test_a_refused_text_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ScenarioError, match="YAML"):
                parse_scenario("{unbalanced")


class TestHash:
    def test_echo_round_trip_preserves_hash(self):
        s = parse_scenario(bundled_text())
        doc = s.effective()
        doc["output_dir"] = s.output_dir
        again = parse_scenario(yaml.safe_dump(doc))
        assert again.scenario_hash == s.scenario_hash
        assert again.effective_json == s.effective_json

    def test_output_dir_does_not_affect_hash(self):
        a = parse_scenario(bundled_text())
        b = parse_scenario(bundled_text().replace("output_dir: out", "output_dir: elsewhere"))
        assert b.output_dir == "elsewhere"
        assert b.scenario_hash == a.scenario_hash

    def test_seed_affects_hash(self):
        a = parse_scenario(bundled_text())
        b = scenario_with_seed(a, a.seed + 1)
        assert b.scenario_hash != a.scenario_hash
        assert json.loads(b.effective_json)["seed"] == a.seed + 1

    def test_any_physics_key_affects_hash(self):
        a = parse_scenario(bundled_text())
        b = parse_scenario(bundled_text().replace("length_mm: 2.0", "length_mm: 2.5"))
        assert b.scenario_hash != a.scenario_hash

    def test_seed_override_rejects_bad_values(self):
        s = parse_scenario(bundled_text())
        with pytest.raises(ScenarioError):
            scenario_with_seed(s, -1)
        with pytest.raises(ScenarioError):
            scenario_with_seed(s, 2 ** 64)

    def test_seed_override_rejects_bool(self):
        # the parser refuses `seed: true`; the override shares its check
        with pytest.raises(ScenarioError, match="seed"):
            scenario_with_seed(parse_scenario(bundled_text()), True)

    @pytest.mark.parametrize("name,digest", [
        ("l1_300mw", "1c0f53e45628"),
        ("l2_300mw", "0464bec34131"),
        ("l3_300mw", "d5ad011af80f"),
    ])
    def test_bundled_hashes_are_pinned(self, name, digest):
        assert parse_scenario(bundled_text(name)).scenario_hash == digest


def oracle(text):
    return yaml.load(text, Loader=ScenarioLoader)


def read(text):
    return _read(text, "<string>")


# strings that a dump quotes, or that YAML 1.1 reads as something else
TRICKY_STRINGS = [
    "", " ", " lead", "trail ", "yes", "No", "ON", "off", "null", "~", "true", "<<", "=", "1e5",
    "1.0e20", "0x10", "017", "08", "1_000", "-.5", "+.5", "1:30", "2026-10-20", ".inf", ".nan",
    "a: b", "a:", ":a", "?a", "-", "- a", "#a", "a #b", "'a'", '"a"', "it's", "&a", "*a", "!a",
    "[a]", "{}", "|", "a\tb", "a\nb", "\\", "\u00e9", "\ufeffa", "a\xa0",
]
SCALARS = st.one_of(st.floats(), st.integers(-(2 ** 64) + 1, 2 ** 64 - 1), st.booleans(),
                    st.none(), st.sampled_from(TRICKY_STRINGS), st.text())


def schema_shaped(table=_SCHEMA):
    """Trees of some keys of ``table``, a section's value a tree, ``{}`` or a scalar."""
    return st.fixed_dictionaries({}, optional={
        key: st.one_of(schema_shaped(spec), st.just({}), SCALARS)
        if isinstance(spec, dict) else SCALARS
        for key, spec in table.items()
    })


def read_as_pyyaml_or_refused(tree, sort_keys=False):
    """The reader gives the oracle's tree for ``tree`` as dumped, or refuses naming a line."""
    text = yaml.safe_dump(tree, sort_keys=sort_keys)
    try:
        doc = read(text)
    except ScenarioError as exc:
        line = re.match(r"scenario is not valid YAML: <string>, line (\d+): ", str(exc))
        assert line and 1 <= int(line[1]) <= text.count("\n"), str(exc)
        return
    assert repr(doc) == repr(oracle(text))


class TestReader:
    """The scenario reader gives the tree of PyYAML's loader (``oracles.ScenarioLoader``)
    or refuses naming a line.  ``repr`` compares trees: it tells 1 from 1.0
    and True, and -0.0 from 0.0, and it equates nans."""

    @pytest.mark.parametrize("name", NAMES)
    def test_bundled_trees_are_pyyamls(self, name):
        tree = oracle(bundled_text(name))
        assert repr(read(bundled_text(name))) == repr(tree)
        dumped = yaml.safe_dump(tree, sort_keys=False)
        assert repr(read(dumped)) == repr(oracle(dumped)) == repr(tree)

    @settings(max_examples=300, deadline=None)
    @given(tree=schema_shaped(), sort_keys=st.booleans())
    @example(tree={"name": "", "seed": 2 ** 64 - 1, "source": {}}, sort_keys=False)
    def test_reader_gives_pyyamls_tree_or_refuses_a_line(self, tree, sort_keys):
        read_as_pyyaml_or_refused(tree, sort_keys)

    @pytest.mark.parametrize("value", TRICKY_STRINGS)
    def test_tricky_strings_read_as_pyyaml_or_refused(self, value):
        read_as_pyyaml_or_refused({"detector": {"crystal": {"label": value}}})

    def test_unreadable_class_is_the_complement_of_the_readable_one(self):
        # the reference: every character outside what a scenario line may
        # hold, YAML's printable set less the tab and the line breaks
        negated = re.compile("[^ -~\xa0-\u2027\u202a-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        refused = _UNREADABLE.findall(every)
        assert refused == negated.findall(every)
        assert len(refused) == 2117

    @pytest.mark.parametrize("text,value", [
        ("1e20", 1e20), ("1.0e20", 1e20), ("1.0e+20", 1e20), ("2E-1", 0.2), (".5e1", 5.0),
    ])
    def test_exponent_floats_are_numbers(self, text, value):
        # YAML 1.1 reads the first two as strings; YAML 1.2 and users read numbers
        edited = bundled_text().replace("counts_scale: 2000000.0", f"counts_scale: {text}")
        assert edited != bundled_text()
        assert parse_scenario(edited).sweep.counts_scale == value

    def test_a_key_written_twice_is_refused_at_its_line(self):
        # PyYAML alone keeps the last one: l2, labelled l2, with l3's crystal
        twice = "    length_mm: 2.0\n    length_mm: 3.0\n"
        text = bundled_text().replace("    length_mm: 2.0\n", twice)
        line = text.splitlines().index("    length_mm: 3.0") + 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert str(err.value) == (
            f"scenario is not valid YAML: <string>, line {line}: duplicate key 'length_mm'"
        )

    # YAML 1.1 reads 0x10 and 1_000 as 16 and 1000, and the others as they
    # look: a plain word that starts with a digit, a sign or a dot and is not
    # a decimal int, a float or a float word such as .nan is refused
    @pytest.mark.parametrize("word,value", [
        ("1e", None), ("e5", "e5"), ("1e2.5", None), ("0x10", None), ("1_000", None),
        ("1.5", 1.5), ("-.5", None), (".Nan", None), ("-.nan", None),
    ])
    def test_words_that_look_like_numbers(self, word, value):
        text = f"label: {word}\n"
        if value is None:
            with pytest.raises(ScenarioError, match=f"line 1: unsupported scalar '{word}'$"):
                read(text)
        else:
            assert read(text) == oracle(text) == {"label": value}

    # plain scalars the reader reads, each as PyYAML does: the words it
    # reads as null, bools and float specials in each of their cases, the
    # forms of numbers, and strings that are near them
    @pytest.mark.parametrize("word", [
        "~", "null", "Null", "NULL", "true", "True", "TRUE", "false", "False", "FALSE",
        ".inf", ".Inf", ".INF", "+.inf", "-.Inf", "+.INF", ".nan", ".NaN", ".NAN",
        "0", "-0", "+7", "18446744073709551615", "1.", "-0.0", "01.5", "1.e5", ".5", "-.5e1",
        "+.5E-1", "08e5", "0e5", "1e400", "1" + "0" * 5000 + ".0",
        "nULL", "tRUE", "inf", "e5", "a#b", "a:b", "./out", "x\xa0", "é",
    ], ids=lambda word: word[:24])
    def test_plain_scalars_read_as_pyyaml(self, word):
        text = f"label: {word}  # a comment\n"
        assert repr(read(text)) == repr(oracle(text))

    # documents whose lines look like the subset, but which PyYAML reads
    # otherwise than a line-by-line reading would, or refuses
    @pytest.mark.parametrize("text, line, cause", [
        # JSON would join the pair into one character; YAML keeps two
        ('label: "\\ud83d\\ude00"\n', 1, "unsupported scalar"),
        # PyYAML merges the mapping into its parent
        ("<<:\n  label: x\n", 1, "expected 'key: value' or 'key:'"),
        ("label: 2026-10-20\n", 1, "unsupported scalar '2026-10-20'"),
        ("label: =\n", 1, "unsupported scalar '='"),
        # PyYAML refuses a key of more than 1024 characters
        ("k" * 1100 + ": 1\n", 1, "expected 'key: value' or 'key:'"),
        # YAML reads a next-line character as a line break
        ("label: a\x85b\n", 1, "character '\\x85' is not allowed"),
        ("name: x\n  label: y\n", 2, "the indentation matches no open mapping"),
        # neither a mapping nor a sequence can be a value on its key's line
        ("label: a: b\n", 1, "unsupported scalar 'a: b'"),
        ("label: - a#b\n", 1, "unsupported scalar '- a#b'"),
    ], ids=["surrogate-pair", "merge-key", "date", "equals-sign", "long-key", "next-line",
            "indentation", "value-holds-a-key", "value-holds-an-entry"])
    def test_lines_pyyaml_reads_otherwise_are_refused(self, text, line, cause):
        with pytest.raises(ScenarioError) as err:
            read(text)
        assert str(err.value).startswith(
            f"scenario is not valid YAML: <string>, line {line}: {cause}"
        )


def _shuffled(node, data):
    if not isinstance(node, dict):
        return node
    return {k: _shuffled(node[k], data) for k in data.draw(st.permutations(list(node)))}


def anywhere(path):
    """Any value in the key's range: each end, 0 where the range holds it, or
    between, spread evenly in value and, for a positive real range, in its log;
    an int range gives ints."""
    low, high, zero = RANGES[path]
    if isinstance(low, int):
        return st.one_of(st.sampled_from([low, high]), st.integers(low, high))
    values = [st.sampled_from([low, high, *[0.0] * zero]), st.floats(low, high)]
    if low > 0.0:
        values.append(st.floats(math.log(low), math.log(high))
                      .map(lambda log: min(max(math.exp(log), low), high)))
    return st.one_of(values)


def normal(values, zero=False):
    """Whether every value is finite and normal, or exactly 0 where ``zero`` allows it."""
    values = np.asarray(values)
    return bool(np.all((values >= sys.float_info.min) & (values < math.inf)
                       | zero & (values == 0.0)))


def every_key(edits, name="l2_300mw"):
    """A value for each key of ``RANGES``, in order: ``edits`` over the bundled scenario's."""
    doc = yaml.safe_load(bundled_text(name))
    values = []
    for path in RANGES:
        node = doc
        for key in path.split("."):
            node = node[key]
        values.append(edits.get(path, node))
    return tuple(values)


# a refusal of values each in range: a section's rule, or the model grid's
CROSS_KEY_REFUSAL = re.compile(
    r"(detector\.pump|detector\.noise|experiment\.scan|experiment\.limits): "
    r"|experiment\.dt_fs: must be at most half of "
)


# whole, decimal and real starts and steps of a grid-like power sweep
GRID_VALUES = st.one_of(st.integers(1, 10_000).map(float),
                        st.integers(1, 1_000_000).map(lambda k: k / 1000),
                        st.floats(1e-3, 1e4))


class TestProperties:
    @given(name=st.sampled_from(NAMES), data=st.data())
    def test_key_order_never_changes_hash(self, name, data):
        doc = _shuffled(yaml.safe_load(bundled_text(name)), data)
        again = parse_scenario(yaml.safe_dump(doc, sort_keys=False))
        assert again.scenario_hash == parse_scenario(bundled_text(name)).scenario_hash

    @given(name=st.sampled_from(NAMES), data=st.data())
    def test_dropping_default_valued_keys_round_trips(self, name, data):
        doc = yaml.safe_load(bundled_text(name))
        full = parse_scenario(bundled_text(name))
        for path in data.draw(st.sets(st.sampled_from(default_valued(doc)))):
            parent = doc
            for key in path[:-1]:
                parent = parent.get(key, {})
            parent.pop(path[-1], None)
        reduced = parse_scenario(yaml.safe_dump(doc))
        assert reduced.effective_json == full.effective_json
        echo = dict(reduced.effective(), output_dir=reduced.output_dir)
        assert parse_scenario(yaml.safe_dump(echo)).effective_json == full.effective_json

    @given(name=st.sampled_from(NAMES), path=st.sampled_from(section_paths()),
           key=st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True))
    def test_unknown_key_is_reported_by_its_path(self, name, path, key):
        table = _SCHEMA
        for part in path:
            table = table[part]
        assume(key not in table)
        doc = yaml.safe_load(bundled_text(name))
        node = doc
        for part in path:
            node = node[part]
        node[key] = 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(doc))
        assert str(err.value) == f"{'.'.join(path) or 'scenario'}: unknown keys: {key}"

    # a span split into about 2 ** log2_steps steps: from fewer than one
    # step to more than MAX_SAMPLES, so both refusals are near
    @settings(deadline=None)
    @given(ends=st.lists(anywhere("experiment.scan.start_fs"), min_size=2, max_size=2),
           log2_steps=st.floats(-1.5, 20.5))
    # the widest scan in range, at the most points
    @example(ends=[RANGES["experiment.scan.start_fs"].low, RANGES["experiment.scan.stop_fs"].high],
             log2_steps=math.log2(MAX_SAMPLES - 1))
    def test_every_accepted_scan_has_from_2_to_max_samples_points(self, ends, log2_steps):
        start, stop = sorted(ends)
        scan = accepted({"experiment.scan.start_fs": start,
                         "experiment.scan.stop_fs": stop,
                         "experiment.scan.step_fs": (stop - start) / 2.0 ** log2_steps}).scan
        coordinates = scan.coordinates()
        assert 2 <= coordinates.size <= MAX_SAMPLES
        assert coordinates[0] == scan.start_fs

    @settings(deadline=None)
    @given(ends=st.lists(anywhere("experiment.limits.power_start_mw"), min_size=2, max_size=2),
           log2_steps=st.floats(-1.5, 20.5))
    def test_every_accepted_power_sweep_has_from_1_to_max_samples_powers(self, ends, log2_steps):
        start, stop = sorted(ends)
        step = (stop - start) / 2.0 ** log2_steps
        limits = accepted({"experiment.limits.power_start_mw": start,
                           "experiment.limits.power_stop_mw": stop,
                           "experiment.limits.power_step_mw": step}).limits
        powers = limits.powers_mw()
        assert 1 <= len(powers) <= MAX_SAMPLES
        assert powers[0] == limits.power_start_mw

    # grid-like sweeps: whole, decimal or real starts and steps, and a stop a
    # whole number of steps and at most 0.99 of a step past the start.  The
    # count and the loop can decide a power apart only when it lies within
    # rounding of the stop and the step is a few hundred ulp of the start
    @settings(deadline=None)
    @given(start=GRID_VALUES, step=GRID_VALUES, n=st.integers(1, 5000),
           past=st.floats(0.0, 0.99))
    def test_power_list_matches_the_loop_on_grid_like_sweeps(self, start, step, n, past):
        stop = start + (n - 1 + past) * step
        limits = LimitsSection(power_start_mw=start, power_stop_mw=stop, power_step_mw=step,
                               integration_s=1.0)
        assert limits.powers_mw() == power_list_loop(start, stop, step)

    # the pump curve through its calibration, at any eta_max and saturation
    # in range, and the noise curve through any calibration above its dark
    # floor: the pump's efficiency stays at or below eta_max and the noise
    # finite and at or above its floor at every pump power in range
    @settings(max_examples=50, deadline=None)
    @given(eta_max=anywhere("detector.pump.calibration_eta"),
           p_sat=anywhere("detector.pump.p_sat_mw"),
           power=anywhere("detector.pump.calibration_power_mw"),
           noise_eta=anywhere("detector.noise.calibration_eta"),
           growth=anywhere("detector.noise.growth_per_unit_eta"),
           noise=st.lists(anywhere("detector.noise.dark_cps"), min_size=2, max_size=2),
           powers=st.lists(anywhere("source.pump_power_mw"), min_size=1, max_size=8))
    def test_every_accepted_calibration_is_finite_at_every_power(
        self, eta_max, p_sat, power, noise_eta, growth, noise, powers
    ):
        dark, reference = sorted(noise)
        s = accepted({"detector.pump.p_sat_mw": p_sat,
                      "detector.pump.calibration_power_mw": power,
                      "detector.pump.calibration_eta": eta_max * -math.expm1(-power / p_sat),
                      "detector.noise.dark_cps": dark,
                      "detector.noise.growth_per_unit_eta": growth,
                      "detector.noise.calibration_eta": noise_eta,
                      "detector.noise.calibration_noise_cps": reference})
        for p in powers:
            internal, external, noise = s.operating_point(p)
            assert all(map(math.isfinite, (internal, external, noise)))
            assert internal <= s.pump_curve[0]
            assert noise >= s.noise_curve[0]

    # every bounded key at once, anywhere in its range: a scenario is refused
    # only by a rule across keys, and each quantity the model derives from an
    # accepted one is finite and normal, or 0 where an input is 0 on purpose.
    # These hold by the ranges alone: the model has no overflow or subnormal
    # guards
    @settings(max_examples=200, deadline=None)
    @given(values=st.tuples(*map(anywhere, RANGES)))
    # the largest noise, noise counts and scan mean in range: about 2.8e229
    # cps, 2.8e235 and 2.8e235, with exp(growth * eta) at 1.4e217
    @example(values=every_key(dict(
        {path: RANGES[path].high for path in (
            "detector.noise.growth_per_unit_eta", "detector.noise.calibration_noise_cps",
            "detector.pump.calibration_power_mw", "detector.pump.calibration_eta",
            "source.pump_power_mw", "experiment.limits.integration_s", "source.rep_rate_hz",
            "source.mean_photons_per_pulse", "experiment.scan.dwell_s")},
        **{path: RANGES[path].low for path in (
            "detector.noise.calibration_eta", "detector.pump.p_sat_mw")},
        **{"detector.noise.dark_cps": 0.0, "experiment.limits.power_start_mw": 999999.0,
           "experiment.limits.power_stop_mw": 1000000.0},
    )))
    # the smallest: noise counts of about 5.6e-239, detected pulses of 1.6e-39
    # and a limit of 1.4e-80 per pulse
    @example(values=every_key(dict(
        {path: RANGES[path].low for path in (
            "detector.noise.calibration_noise_cps", "detector.pump.calibration_eta",
            "source.pump_power_mw", "experiment.limits.power_start_mw",
            "experiment.limits.integration_s", "source.rep_rate_hz",
            "source.mean_photons_per_pulse", "experiment.scan.dwell_s",
            "detector.chain.apd_efficiency", "detector.chain.fiber_coupling",
            "detector.chain.filter_transmittance")},
        **{path: RANGES[path].high for path in (
            "detector.noise.growth_per_unit_eta", "detector.noise.calibration_eta",
            "detector.pump.calibration_power_mw", "detector.pump.p_sat_mw")},
        **{"detector.noise.dark_cps": 0.0, "experiment.limits.power_stop_mw": 0.002},
    )))
    def test_every_scenario_in_range_derives_finite_normal_quantities(self, values):
        edits = dict(zip(RANGES, values))
        # the ends of a scan, of a power sweep and of the noise curve in order
        for pair in (("experiment.scan.start_fs", "experiment.scan.stop_fs"),
                     ("experiment.limits.power_start_mw", "experiment.limits.power_stop_mw"),
                     ("detector.noise.dark_cps", "detector.noise.calibration_noise_cps")):
            edits.update(zip(pair, sorted(map(edits.get, pair))))
        # a model grid that resolves the narrower pulse
        narrower = min(edits["source.pump_fwhm_fs"], edits["source.signal_fwhm_fs"])
        edits["experiment.dt_fs"] = min(edits["experiment.dt_fs"], 0.5 * narrower)
        try:
            s = parse_scenario(edited(edits))
        except ScenarioError as exc:
            assert CROSS_KEY_REFUSAL.match(str(exc)), str(exc)
            return
        dt, (dark, n0, growth) = s.dt_fs, s.noise_curve
        margin = 3.0 * s.signal_fwhm_fs + dt
        for count in (
            cli._kernel_half_fs(s) / dt,  # half the model grid
            margin / dt,  # half a Gaussian signal's grid
            (2.0 * s.timebin.slot_spacing_fs + 2.0 * margin) / dt,  # a time-bin signal's grid
            s.scan.point_count(), s.limits.point_count(),
        ):
            assert normal(count), count
        assert normal(s.gate_width_fs)
        assert normal(math.exp(growth * s.pump_curve[0]))
        chain = (s.apd_efficiency, s.fiber_coupling, s.filter_transmittance)
        # no noise at all only from a calibration at a dark floor of 0
        quiet = dark == 0.0 and n0 == 0.0
        dim = s.mean_photons_per_pulse == 0.0 or 0.0 in chain
        _, external, noise = s.operating_point()
        flux = s.rep_rate_hz * s.mean_photons_per_pulse * external
        # the largest scan and sweep means, and the background of deconv
        assert normal((flux + noise) * s.scan.dwell_s, zero=dim and quiet)
        sweep = s.sweep
        fringe = (1.0 + s.timebin.contrast) / 3.0
        assert normal((sweep.counts_scale * fringe / sweep.dwell_s + noise) * sweep.dwell_s)
        assert normal(noise * s.scan.dwell_s, zero=quiet)
        integration, rate = s.limits.integration_s, s.rep_rate_hz
        points = [s.operating_point(power) for power in [s.pump_power_mw, *s.limits.powers_mw()]]
        assert np.isfinite(points).all()
        _, externals, noises = np.array(points).T
        assert normal(noises, zero=quiet) and normal(noises * integration, zero=quiet)
        assert normal(integration * rate * externals, zero=0.0 in chain)
        if 0.0 in chain:
            _, external, noise = points[0]
            with pytest.raises(NumericalError, match="is 0, so the limit"):
                detection_limit(noise, integration, external, rate)
        else:
            assert normal([detection_limit(noise, integration, external, rate)
                           for _, external, noise in points], zero=quiet)


def accepted(edits):
    """The bundled scenario with ``edits``; a draw the parser refuses is discarded."""
    try:
        return parse_scenario(edited(edits))
    except ScenarioError:
        assume(False)


class TestReadme:
    """README.md's key block and range table under "Scenario files" match the
    schema, and its "Library example" runs."""

    @staticmethod
    def block(heading="Scenario files", language="yaml"):
        section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1]
        return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]

    def test_library_example_runs(self, capsys):
        exec(self.block("Library example", "python"), {})
        assert capsys.readouterr().out == "gate 408.6 fs -> resolution 412.4 fs FWHM\n"

    def test_block_is_the_reference_scenario(self):
        expected = parse_scenario(bundled_text()).effective_json
        assert parse_scenario(self.block()).effective_json == expected

    def test_ranges_match_the_schema(self):
        section = README.read_text(encoding="utf-8").split("## Scenario files", 1)[1]
        section = section.split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([\w.]+)` \| (.+) \|$", section, flags=re.MULTILINE)
        assert rows == [(path, str(interval)) for path, interval in RANGES.items()]

    def test_keys_and_defaults_match_the_schema(self):
        notes, stack = {}, []
        for line in self.block().splitlines():
            match = re.match(r"( *)(\w+):[^#]*(?:#\s*(?:\((.*?)\))?.*)?$", line)
            if match is None:
                continue
            indent = len(match.group(1))
            while stack and stack[-1][0] >= indent:
                stack.pop()
            stack.append((indent, match.group(2)))
            notes[tuple(key for _, key in stack)] = match.group(3)
        table = dict(schema_keys())
        assert sorted(notes) == sorted(table)
        for path, spec in table.items():
            default = _default(spec)
            if default is _REQUIRED:
                assert notes[path] is None, path
            elif isinstance(spec, dict):
                assert notes[path] == "whole section optional", path
            else:
                note = json.loads(notes[path])
                assert (type(note), note) == (type(default), default), path


class TestDiagnostics:
    def test_empty_document_lists_required_keys(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("")
        for key in ("name", "seed", "detector", "source", "experiment"):
            assert key in str(err.value)

    def test_missing_section_names_it(self):
        with pytest.raises(ScenarioError, match="detector"):
            parse_scenario("name: x\nseed: 1\n")

    def test_unknown_key_names_path(self):
        text = bundled_text().replace("dt_fs: 1.0", "dt_fs: 1.0\n  extra_knob: 3")
        with pytest.raises(ScenarioError, match=r"experiment.*extra_knob"):
            parse_scenario(text)

    def test_negative_crystal_length_cites_invariant(self):
        text = bundled_text().replace("length_mm: 2.0", "length_mm: -2.0")
        with pytest.raises(ScenarioError, match=r"detector\.crystal\.length_mm: must be in \["):
            parse_scenario(text)

    def test_integer_too_large_for_a_float_names_its_key(self):
        # the range is checked before the conversion to float, which refuses it
        text = bundled_text().replace("length_mm: 2.0", "length_mm: 1" + "0" * 400)
        with pytest.raises(ScenarioError, match=r"detector\.crystal\.length_mm: must be in \["):
            parse_scenario(text)

    def test_type_mismatch_names_path(self):
        text = bundled_text().replace("step_fs: 25.0", "step_fs: wide")
        with pytest.raises(ScenarioError, match=r"experiment\.scan\.step_fs"):
            parse_scenario(text)

    def test_bool_is_not_a_number(self):
        text = bundled_text().replace("dwell_s: 1.0\n    signal", "dwell_s: true\n    signal")
        with pytest.raises(ScenarioError, match="dwell_s"):
            parse_scenario(text)

    def test_not_yaml_at_all(self):
        with pytest.raises(ScenarioError, match="YAML"):
            parse_scenario("{unbalanced")

    def test_scalar_document_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("42")

    # an edit of l2's text and a regex of the refusal it gets; the edit's
    # key=value names the test, so a changed refusal text keeps its id
    INVARIANT_EDITS = [
        ("seed: 20260815", "seed: -5", "seed"),
        ("start_fs: -1800.0", "start_fs: 1800.0", "scan"),
        ("n_points: 24", "n_points: 3", r"sweep\.n_points: must be in \[5, 1000000\], got 3"),
        ("contrast: 0.982", "contrast: 0.0", "contrast"),
        ("power_stop_mw: 500.0", "power_stop_mw: 10.0", "power"),
        ("signal: timebin", "signal: chirped", r"experiment\.scan\.signal"),
        ("calibration_noise_cps: 800.0", "calibration_noise_cps: 10.0", "noise"),
        # a key's own range is checked by the schema, which names the key
        ("step_fs: 25.0", "step_fs: 0.0", r"experiment\.scan\.step_fs: must be in \["),
        ("dwell_s: 1.0\n    signal", "dwell_s: -1.0\n    signal",
         r"experiment\.scan\.dwell_s: must be in \["),
        ("dwell_s: 1.0\n    counts", "dwell_s: 0.0\n    counts",
         r"experiment\.sweep\.dwell_s: must be in \["),
        ("counts_scale: 2000000.0", "counts_scale: -5.0",
         r"experiment\.sweep\.counts_scale: must be in \["),
        ("slot_spacing_fs: 800.0", "slot_spacing_fs: 0.0",
         r"experiment\.timebin\.slot_spacing_fs: must be in \["),
        ("power_start_mw: 50.0", "power_start_mw: -50.0",
         r"experiment\.limits\.power_start_mw: must be in \["),
        ("power_step_mw: 25.0", "power_step_mw: 0.0",
         r"experiment\.limits\.power_step_mw: must be in \["),
        ("integration_s: 1.0", "integration_s: 0.0",
         r"experiment\.limits\.integration_s: must be in \["),
        ("pump_fwhm_fs: 200.0", "pump_fwhm_fs: 0.0", r"source\.pump_fwhm_fs: must be in \["),
        ("signal_fwhm_fs: 240.0", "signal_fwhm_fs: -240.0",
         r"source\.signal_fwhm_fs: must be in \["),
        ("calibration_power_mw: 300.0", "calibration_power_mw: -300.0",
         r"detector\.pump\.calibration_power_mw: must be in \["),
        ("dark_cps: 100.0", "dark_cps: -1.0", r"detector\.noise\.dark_cps: must be in \["),
        ("mean_photons_per_pulse: 0.1", "mean_photons_per_pulse: -0.1",
         r"source\.mean_photons_per_pulse: must be in \["),
        ("growth_per_unit_eta: 40.0", "growth_per_unit_eta: -40.0",
         r"detector\.noise\.growth_per_unit_eta: must be in \["),
        ("dt_fs: 1.0", "dt_fs: 1.0e+300", r"experiment\.dt_fs: must be in \["),
        # the model grid must resolve the narrower pulse
        ("pump_fwhm_fs: 200.0", "pump_fwhm_fs: 1.0",
         r"experiment\.dt_fs: must be at most half of source\.pump_fwhm_fs \(1\.0 fs\)"),
        ("signal_fwhm_fs: 240.0", "signal_fwhm_fs: 1.0",
         r"experiment\.dt_fs: must be at most half of source\.signal_fwhm_fs \(1\.0 fs\)"),
    ]

    @pytest.mark.parametrize("old,new,path", INVARIANT_EDITS, ids=[
        new.partition("\n")[0].replace(": ", "=") for _, new, _ in INVARIANT_EDITS])
    def test_section_invariants_enforced(self, old, new, path):
        text = bundled_text().replace(old, new)
        assert text != bundled_text()
        with pytest.raises(ScenarioError, match=path):
            parse_scenario(text)


class TestSections:
    def test_power_grid_includes_both_ends(self):
        s = parse_scenario(bundled_text())
        powers = s.limits.powers_mw()
        assert powers[0] == 50.0
        assert powers[-1] == 500.0
        assert len(powers) == 19

    # the refusal counts the powers the list holds: MAX_SAMPLES of them pass
    @pytest.mark.parametrize("stop, refusal", [
        (500000.0, None),
        (500000.5, "experiment.limits: power_step_mw 0.5 needs 1000001 samples, "
                   "more than the 1000000 allowed"),
    ], ids=["max-samples", "one-more"])
    def test_power_list_holds_the_count_its_refusal_names(self, stop, refusal):
        text = edited({"experiment.limits.power_start_mw": 0.5,
                       "experiment.limits.power_stop_mw": stop,
                       "experiment.limits.power_step_mw": 0.5})
        if refusal is not None:
            with pytest.raises(ScenarioError) as err:
                parse_scenario(text)
            assert str(err.value) == refusal
            return
        powers = parse_scenario(text).limits.powers_mw()
        assert len(powers) == MAX_SAMPLES
        assert powers[-1] == stop

    def test_defaults_fill_in(self):
        text = """
name: tiny
seed: 7
detector:
  crystal:
    length_mm: 1.5
  pump:
    p_sat_mw: 200.0
    calibration_power_mw: 300.0
    calibration_eta: 0.1
  noise:
    dark_cps: 100.0
    growth_per_unit_eta: 40.0
    calibration_eta: 0.1
    calibration_noise_cps: 900.0
source:
  pump_fwhm_fs: 200.0
  signal_fwhm_fs: 240.0
  pump_power_mw: 300.0
experiment:
  scan:
    start_fs: -600.0
    stop_fs: 600.0
    step_fs: 20.0
  sweep:
    counts_scale: 1000000.0
  timebin:
    slot_spacing_fs: 700.0
  limits:
    power_start_mw: 100.0
    power_stop_mw: 400.0
    power_step_mw: 50.0
"""
        s = parse_scenario(text)
        assert s.output_dir == "out"
        assert s.tau_g_fs_per_mm == 204.3
        assert s.apd_efficiency == 0.41
        assert s.mean_photons_per_pulse == 0.1
        assert s.rep_rate_hz == 76.3e6
        assert s.dt_fs == 1.0
        assert s.scan.dwell_s == 1.0
        assert s.scan.signal == "gaussian"
        assert s.sweep.n_points == 24
        assert s.timebin.contrast == 1.0
        assert s.limits.integration_s == 1.0
