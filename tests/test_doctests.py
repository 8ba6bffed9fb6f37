"""Every docstring example must run."""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

import stratabound.boundary
import stratabound.cli
import stratabound.errors
import stratabound.modification
import stratabound.newton
import stratabound.sequences
import stratabound.weyl

MODULES = [
    stratabound.boundary,
    stratabound.cli,
    stratabound.errors,
    stratabound.modification,
    stratabound.newton,
    stratabound.sequences,
    stratabound.weyl,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0


def test_readme_example():
    result = doctest.testfile(str(Path(__file__).parent.parent / "README.md"), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
