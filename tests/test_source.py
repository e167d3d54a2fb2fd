"""Source hygiene: every name a package module imports is used there, and
only ``waveform`` decides how a convolution is evaluated or maps libm over an
array, and every numeric scenario key has a range."""

import ast
import re
from pathlib import Path

import pytest

from ucspd.scenario import _SCHEMA, _Interval, load_scenario

SRC = Path(__file__).resolve().parents[1] / "src" / "ucspd"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_detects_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom a import b, c\nc\n"
    )
    assert unused_imports(source) == ["math", "os", "b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# what choosing between direct summation and the FFT takes
CONVOLUTION_ENGINE = re.compile(r"\bnp\.convolve\b|\bnp\.fft\b|\bFFT_THRESHOLD\b|\bfast_fft_len\b")


def test_only_waveform_evaluates_convolutions():
    owners = [path.name for path in sorted(SRC.glob("*.py"))
              if CONVOLUTION_ENGINE.search(path.read_text(encoding="utf-8"))]
    assert owners == ["waveform.py"]


def test_only_waveform_maps_libm_over_arrays():
    owners = [path.name for path in sorted(SRC.glob("*.py"))
              if "np.fromiter(map(" in path.read_text(encoding="utf-8")]
    assert owners == ["waveform.py"]


def numeric_leaves(tree: dict, prefix: str = ""):
    """The dotted path of each int or float leaf of a scenario tree, bools excluded."""
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from numeric_leaves(value, path)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path


def test_every_numeric_key_has_a_range():
    # a key the schema checks another way would miss RANGES, README's range
    # table and the edge tests; the effective configuration holds every key
    scenario = load_scenario(SRC / "scenarios" / "l2_300mw.scenario")
    for path in numeric_leaves(scenario.effective()):
        node = _SCHEMA
        for key in path.split("."):
            node = node[key]
        assert isinstance(node[0], _Interval), path
