"""The runtime is stdlib-only: every import in the package is the standard
library or the package itself, and every name a module imports is used there."""

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


def unused_imports(source: str):
    """Names a module imports and never reads, `from __future__` aside."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_module_is_checked():
    assert {p.stem for p in SOURCES} >= {"cli", "loop", "polynomial", "series"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"loopgrowth"}
    foreign = sorted(set(imported_roots(path.read_text())) - allowed)
    assert not foreign, f"{path.name} imports {foreign}"


def test_unused_import_check_sees_dead_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom math import comb, gcd as g\n"
        "print(comb(4, 2), os.path.sep)\n"
    )
    assert unused_imports(source) == ["g", "regex"]


# __init__ imports names only to re-export them
@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.stem != "__init__"], ids=lambda p: p.stem
)
def test_every_imported_name_is_used(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports {unused} and never uses them"
