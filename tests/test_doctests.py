"""The examples in the library docstrings run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import loopgrowth

MODULES = ["loopgrowth"] + [
    f"loopgrowth.{info.name}" for info in pkgutil.iter_modules(loopgrowth.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
