"""Bundled scenarios with some of their keys set to other values.

A scenario value's own range is checked once, by the schema in
``ucspd.scenario``, so a test of a refused value edits a real scenario and
parses it, rather than passing the value to the model code.  ``RANGES``
reads each numeric key's range from that schema, so the tests hold no
second copy of the bounds.
"""

import copy
import functools
from importlib import resources

import yaml

from ucspd.scenario import _SCHEMA, _Interval

BUNDLED = resources.files("ucspd") / "scenarios"
# libyaml's emitter writes the same text as PyYAML's pure-Python one, faster
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@functools.cache
def _bundled(name: str) -> dict:
    return yaml.safe_load((BUNDLED / f"{name}.scenario").read_text(encoding="utf-8"))


def edited(edits: dict, name: str = "l2_300mw") -> str:
    """The bundled scenario ``name`` as YAML, with each dotted key path in ``edits`` set."""
    doc = copy.deepcopy(_bundled(name))
    for path, value in edits.items():
        *sections, key = path.split(".")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    return yaml.dump(doc, Dumper=_DUMPER, sort_keys=False)


def _ranges(table: dict, prefix: str = ""):
    for key, spec in table.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(spec, dict):
            yield from _ranges(spec, path)
        elif isinstance(spec[0], _Interval):
            yield path, spec[0]


#: every numeric key's dotted path and its range, in schema order
RANGES = dict(_ranges(_SCHEMA))


def range_refusal(path: str, value) -> str:
    """The parser's refusal of ``value`` for the key ``path``, which is outside its range."""
    return f"{path}: must be {RANGES[path]}, got {value}"
