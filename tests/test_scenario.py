"""Scenario documents: schema, validation diagnostics, and hashing."""

import json
import re
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scenario_edits import edited
from ucspd import scenario as scenario_module
from ucspd.errors import ScenarioError
from ucspd.scenario import (
    _REQUIRED, _SCHEMA, _default, load_scenario, parse_scenario, scenario_with_seed,
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
        # the pump and noise models pass exactly through their anchors
        assert s.internal_eta_at(300.0) == pytest.approx(0.101, rel=1e-12)
        assert s.noise_cps_at(300.0) == pytest.approx(800.0, rel=1e-12)
        assert s.external_eta_at() == pytest.approx(0.101 * 0.41 * 0.85 * 0.94, rel=1e-12)

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


# the loader the module picks (libyaml's when PyYAML was built with it) and
# the pure-Python one, configured the same way
LOADERS = {
    "module": scenario_module._LOADER,
    "pure": scenario_module._loader(yaml.SafeLoader),
}


def use_loader(monkeypatch, name):
    """Parse with loader ``name``; a cached parse would not run it."""
    monkeypatch.setattr(scenario_module, "_LOADER", LOADERS[name])
    parse_scenario.cache_clear()


class TestLoader:
    """Both PyYAML loaders read the same documents (libyaml is used when built)."""

    @pytest.mark.parametrize("name", NAMES)
    def test_pure_python_loader_gives_the_same_tree(self, name, monkeypatch):
        expected = parse_scenario(bundled_text(name)).effective_json
        use_loader(monkeypatch, "pure")
        assert parse_scenario(bundled_text(name)).effective_json == expected

    def test_pure_python_loader_reports_bad_yaml(self, monkeypatch):
        use_loader(monkeypatch, "pure")
        with pytest.raises(ScenarioError, match="YAML"):
            parse_scenario("{unbalanced")

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("text,value", [
        ("1e20", 1e20), ("1.0e20", 1e20), ("1.0e+20", 1e20), ("2E-1", 0.2), (".5e1", 5.0),
    ])
    def test_exponent_floats_are_numbers(self, loader, text, value, monkeypatch):
        # YAML 1.1 reads the first two as strings; YAML 1.2 and users read numbers
        use_loader(monkeypatch, loader)
        edited = bundled_text().replace(
            "mean_photons_per_pulse: 0.1", f"mean_photons_per_pulse: {text}"
        )
        assert edited != bundled_text()
        assert parse_scenario(edited).mean_photons_per_pulse == value

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_a_key_written_twice_is_refused_at_its_line(self, loader, monkeypatch):
        # PyYAML alone keeps the last one: l2, labelled l2, with l3's crystal
        use_loader(monkeypatch, loader)
        twice = "    length_mm: 2.0\n    length_mm: 3.0\n"
        text = bundled_text().replace("    length_mm: 2.0\n", twice)
        line = text.splitlines().index("    length_mm: 3.0") + 1
        cause = rf"duplicate key 'length_mm'\n  in .*, line {line},"
        with pytest.raises(ScenarioError, match=cause):
            parse_scenario(text)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_words_that_look_like_exponents_stay_strings(self, loader):
        doc = yaml.load("[1e, e5, 1e2.5, 0x10, 1_000, 1.5]", Loader=LOADERS[loader])
        assert doc == ["1e", "e5", "1e2.5", 16, 1000, 1.5]


def _shuffled(node, data):
    if not isinstance(node, dict):
        return node
    return {k: _shuffled(node[k], data) for k in data.draw(st.permutations(list(node)))}


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
    @given(start=st.floats(-1e15, 1e15), span=st.floats(1e-300, 1e15),
           log2_steps=st.floats(-1.5, 20.5))
    def test_every_accepted_scan_has_from_2_to_max_samples_points(self, start, span, log2_steps):
        scan = accepted({"experiment.scan.start_fs": start,
                         "experiment.scan.stop_fs": start + span,
                         "experiment.scan.step_fs": span / 2.0 ** log2_steps}).scan
        coordinates = scan.coordinates()
        assert 2 <= coordinates.size <= MAX_SAMPLES
        assert coordinates[0] == scan.start_fs

    @settings(deadline=None)
    @given(start=st.floats(1e-300, 1e15), span=st.floats(1e-300, 1e15),
           log2_steps=st.floats(-1.5, 20.5))
    def test_every_accepted_power_sweep_has_from_1_to_max_samples_powers(
        self, start, span, log2_steps
    ):
        limits = accepted({"experiment.limits.power_start_mw": start,
                           "experiment.limits.power_stop_mw": start + span,
                           "experiment.limits.power_step_mw": span / 2.0 ** log2_steps}).limits
        powers = limits.powers_mw()
        assert 1 <= len(powers) <= MAX_SAMPLES
        assert powers[0] == limits.power_start_mw


def accepted(edits):
    """The bundled scenario with ``edits``; a draw the parser refuses is discarded."""
    try:
        return parse_scenario(edited(edits))
    except ScenarioError:
        assume(False)


class TestReadme:
    """README.md's key table under "Scenario files" matches the schema, and its
    "Library example" runs."""

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
        with pytest.raises(ScenarioError, match=r"detector\.crystal.*positive"):
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

    @pytest.mark.parametrize("old,new,path", [
        ("seed: 20260815", "seed: -5", "seed"),
        ("start_fs: -1800.0", "start_fs: 1800.0", "scan"),
        ("n_points: 24", "n_points: 3", r"sweep\.n_points: must be at least 5, got 3"),
        ("contrast: 0.982", "contrast: 0.0", "contrast"),
        ("power_stop_mw: 500.0", "power_stop_mw: 10.0", "power"),
        ("signal: timebin", "signal: chirped", r"experiment\.scan\.signal"),
        ("calibration_noise_cps: 800.0", "calibration_noise_cps: 10.0", "noise"),
        # a key's own range is checked by the schema, which names the key
        ("step_fs: 25.0", "step_fs: 0.0", r"experiment\.scan\.step_fs: must be positive"),
        ("dwell_s: 1.0\n    signal", "dwell_s: -1.0\n    signal",
         r"experiment\.scan\.dwell_s: must be positive"),
        ("dwell_s: 1.0\n    counts", "dwell_s: 0.0\n    counts",
         r"experiment\.sweep\.dwell_s: must be positive"),
        ("counts_scale: 2000000.0", "counts_scale: -5.0",
         r"experiment\.sweep\.counts_scale: must be positive"),
        ("slot_spacing_fs: 800.0", "slot_spacing_fs: 0.0",
         r"experiment\.timebin\.slot_spacing_fs: must be positive"),
        ("power_start_mw: 50.0", "power_start_mw: -50.0",
         r"experiment\.limits\.power_start_mw: must be positive"),
        ("power_step_mw: 25.0", "power_step_mw: 0.0",
         r"experiment\.limits\.power_step_mw: must be positive"),
        ("integration_s: 1.0", "integration_s: 0.0",
         r"experiment\.limits\.integration_s: must be positive"),
        ("pump_fwhm_fs: 200.0", "pump_fwhm_fs: 0.0", r"source\.pump_fwhm_fs: must be positive"),
        ("signal_fwhm_fs: 240.0", "signal_fwhm_fs: -240.0",
         r"source\.signal_fwhm_fs: must be positive"),
        ("calibration_power_mw: 300.0", "calibration_power_mw: -300.0",
         r"detector\.pump\.calibration_power_mw: must be positive"),
        ("dark_cps: 100.0", "dark_cps: -1.0", r"detector\.noise\.dark_cps: must be >= 0"),
        ("mean_photons_per_pulse: 0.1", "mean_photons_per_pulse: -0.1",
         r"source\.mean_photons_per_pulse: must be >= 0"),
        ("growth_per_unit_eta: 40.0", "growth_per_unit_eta: -40.0",
         r"detector\.noise\.growth_per_unit_eta: must be >= 0"),
        # the model grid must resolve the narrower pulse
        ("dt_fs: 1.0", "dt_fs: 1.0e+300",
         r"experiment\.dt_fs: must be at most half of source\.pump_fwhm_fs \(200\.0 fs\)"),
        ("pump_fwhm_fs: 200.0", "pump_fwhm_fs: 1.0e-300",
         r"experiment\.dt_fs: must be at most half of source\.pump_fwhm_fs \(1e-300 fs\)"),
        ("signal_fwhm_fs: 240.0", "signal_fwhm_fs: 5.0e-324",
         r"experiment\.dt_fs: must be at most half of source\.signal_fwhm_fs \(5e-324 fs\)"),
    ])
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

    def test_defaults_fill_in(self):
        text = """
name: tiny
seed: 7
detector:
  crystal: {length_mm: 1.5}
  pump: {p_sat_mw: 200.0, calibration_power_mw: 300.0, calibration_eta: 0.1}
  noise: {dark_cps: 100.0, growth_per_unit_eta: 40.0, calibration_eta: 0.1,
          calibration_noise_cps: 900.0}
source:
  pump_fwhm_fs: 200.0
  signal_fwhm_fs: 240.0
  pump_power_mw: 300.0
experiment:
  scan: {start_fs: -600.0, stop_fs: 600.0, step_fs: 20.0}
  sweep: {counts_scale: 1000000.0}
  timebin: {slot_spacing_fs: 700.0}
  limits: {power_start_mw: 100.0, power_stop_mw: 400.0, power_step_mw: 50.0}
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
