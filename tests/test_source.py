"""Source hygiene: every name a package module imports is used there, and
only ``waveform`` decides how a convolution is evaluated."""

import ast
import re
from pathlib import Path

import pytest

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
