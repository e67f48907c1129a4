"""Every docstring example in the package, and the README's library
example, runs and prints what it shows."""

import doctest
import importlib
import re
from pathlib import Path

import pytest

MODULES = ("words", "matrices", "compositions", "spectral", "census", "cli")
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(f"cuspcensus.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0


def test_readme_library_example():
    # the fenced block of the "Library" section, without its fences: run
    # whole, doctest would read the closing fence as expected output
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README Library", str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
