"""The package's import graph, read off the source with ``ast``.

The layers build upwards in one direction: ``newton`` reads only ``errors``,
``sequences`` reads ``newton``, and ``modification`` and ``boundary`` sit on
top.  The Weyl-side oracle takes one helper from ``sequences``, the length of
a 0/1 word, and nothing that orders a direct sum, so its cross-check shares
no ordering code with the sequences it checks.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stratabound"


def package_imports(module: str) -> dict[str, set[str]]:
    """Each package module that ``module`` imports, anywhere in its source, with the names it takes."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("stratabound."):
                    found.setdefault(alias.name.removeprefix("stratabound."), set())
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("stratabound"):
                continue
            name = (node.module or "").removeprefix("stratabound").lstrip(".")
            if name:
                found.setdefault(name, set()).update(alias.name for alias in node.names)
            else:  # from . import errors
                for alias in node.names:
                    found.setdefault(alias.name, set())
    return found


def test_the_walker_sees_every_package_import():
    assert set(package_imports("boundary")) == {"errors", "modification", "newton", "sequences", "weyl"}
    assert package_imports("weyl")["newton"] == {"NewtonPolygon"}


def test_newton_imports_only_errors():
    assert set(package_imports("newton")) <= {"errors"}


def test_sequences_imports_only_errors_and_newton():
    assert set(package_imports("sequences")) <= {"errors", "newton"}


def test_weyl_takes_only_word_length_from_sequences():
    assert package_imports("weyl")["sequences"] == {"word_length"}


def test_neither_sequences_nor_weyl_imports_the_cascade_or_boundary_layers():
    for module in ("sequences", "weyl"):
        assert not set(package_imports(module)) & {"modification", "boundary"}, module
