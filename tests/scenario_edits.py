"""Bundled scenarios with some of their keys set to other values.

A scenario value's own range is checked once, by the schema in
``ucspd.scenario``, so a test of a refused value edits a real scenario and
parses it, rather than passing the value to the model code.
"""

import copy
import functools
from importlib import resources

import yaml

BUNDLED = resources.files("ucspd") / "scenarios"


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
    return yaml.safe_dump(doc, sort_keys=False)
