"""Every docstring example in the package runs and prints what it shows."""

import doctest
import importlib

import pytest

MODULES = ("words", "matrices", "compositions", "spectral", "census", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(f"cuspcensus.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
