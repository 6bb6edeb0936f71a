"""The runtime is stdlib-only: every import in the package is the standard
library or the package itself, and every name a module imports is used there.
Records are `_Record` slot classes, never dataclasses or named tuples, and
are not written after construction. Sturm root counts serve only as the
independent recheck of a certificate."""

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


# every record is a slot `loopgrowth._Record`; these build records another way
RECORD_MAKERS = {"dataclasses", "typing", "namedtuple"}


def record_imports(source: str):
    """The modules and names of RECORD_MAKERS that a module's source imports."""
    found = set(imported_roots(source))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return sorted(found & RECORD_MAKERS)


def test_record_import_check_sees_every_way_in():
    source = (
        "import typing\nfrom dataclasses import dataclass\n"
        "from collections import namedtuple\nfrom enum import Enum\n"
    )
    assert record_imports(source) == ["dataclasses", "namedtuple", "typing"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_records_are_slot_records_only(path):
    found = record_imports(path.read_text())
    assert not found, f"{path.name} imports {found}; declare records as loopgrowth._Record"


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


# a record's fields are written in its __init__ and never after, but for the
# longest expansion a series keeps (`series.expand`)
SET_ALLOWED = {("series", "expand")}


def field_writes(source: str):
    """(line, enclosing function) of every `_set(` or `__setattr__(` call
    outside an `__init__`."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and function != "__init__":
                called = child.func
                name = called.id if isinstance(called, ast.Name) else getattr(called, "attr", None)
                if name in ("_set", "__setattr__"):
                    found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_field_write_check_sees_every_write_after_construction():
    source = (
        "class R:\n"
        "    def __init__(self, x):\n"
        "        _set(self, 'x', x)\n"
        "    @property\n"
        "    def cached(self):\n"
        "        _set(self, 'x', 1)\n"
        "        object.__setattr__(self, 'x', 2)\n"
        "def expand(r):\n"
        "    _set(r, 'x', 3)\n"
        "_set(R, 'y', 4)\n"
    )
    assert field_writes(source) == [(6, "cached"), (7, "cached"), (9, "expand"), (10, None)]


def test_records_are_written_only_in_their_constructor():
    allowed = []
    for path in SOURCES:
        for line, function in field_writes(path.read_text()):
            assert (path.stem, function) in SET_ALLOWED, f"{path.name}:{line} writes a field in {function}"
            allowed.append((path.stem, function))
    assert allowed == [("series", "expand")]


# Descartes subdivision isolates every pole and rechecks every certificate;
# Sturm counts are the tests' oracle, defined in `polynomial` alone
STURM_NAMES = {"sturm_chain", "sign_variations", "count_roots_halfopen"}


def sturm_references(source: str):
    """(line, name) of every Sturm name a module reads or imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in STURM_NAMES]
    return sorted(found)


def test_sturm_reference_check_sees_every_kind_of_reference():
    source = (
        "from .polynomial import sturm_chain\n"
        "from . import polynomial\n"
        "def pole(f):\n"
        "    return sign_variations(sturm_chain(f), 0), polynomial.count_roots_halfopen\n"
        "class Radius:\n"
        "    def certificate_holds(self):\n"
        "        from .polynomial import count_roots_halfopen\n"
        "        return count_roots_halfopen(self.f, 0, 1)\n"
    )
    assert sturm_references(source) == [
        (1, "sturm_chain"), (4, "count_roots_halfopen"), (4, "sign_variations"), (4, "sturm_chain"),
        (7, "count_roots_halfopen"), (8, "count_roots_halfopen"),
    ]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.stem != "polynomial"], ids=lambda p: p.stem
)
def test_sturm_counts_only_recheck_certificates(path):
    # no module but `polynomial` names a Sturm function, `Radius.certificate_holds` included
    found = sturm_references(path.read_text())
    assert not found, f"{path.name} names Sturm root counts, which only the tests read: {found}"
