"""The runtime is stdlib-only: every import in the package is the standard
library or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import loopgrowth

SOURCES = sorted(Path(loopgrowth.__file__).parent.glob("*.py"))


def imported_roots(source: str):
    """Top-level names of the absolute imports in a module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_module_is_checked():
    assert {p.stem for p in SOURCES} >= {"cli", "loop", "polynomial", "series"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"loopgrowth"}
    foreign = sorted(set(imported_roots(path.read_text())) - allowed)
    assert not foreign, f"{path.name} imports {foreign}"
