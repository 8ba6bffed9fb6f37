"""The package's import graph, read off the source with ``ast``.

The layers build upwards in one direction: ``newton`` reads only ``errors``,
``sequences`` reads ``newton``, and ``modification`` and ``boundary`` sit on
top.  The Weyl-side oracle takes one helper from ``sequences``, the length of
a 0/1 word, and nothing that orders a direct sum, so its cross-check shares
no ordering code with the sequences it checks.

The library's public names are pinned too: a public function, class or
method that nothing in ``src/``, ``scripts/`` or ``bench/`` names serves
only the tests, and belongs in ``tests/reference.py`` unless it is listed
in ``UNCALLED_PUBLIC`` with the reason it stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stratabound"
TESTS = ROOT / "tests"

# Public names of src/stratabound that no code outside tests/ names, each
# with the reason it stays in the library.
UNCALLED_PUBLIC = {
    "ABS.pi_inverse": "reads pi backwards by symbol, the mirror of ABS.pi",
    "BoundarySet.pair_set": "the pairs behind B(xi), next to the types the CLI prints",
    "NewtonPolygon.dimension": "the stratum's dimension, the mirror of codimension",
    "Permutation.identity": "the unit of the group Permutation implements",
    "Report.raise_if_failed": "turns a failed verification into its typed exception for library callers",
    "abs_from_binary_sequence": "the canonical sequence of a 0/1 word, the paper's construction",
    "abs_from_json": "reads back the CLI's own abs --json output",
    "minimal_abs_segment": "the minimal sequence of one segment, the paper's building block",
    "polygon_from_json": "reads back the polygon the CLI's --json output holds",
    "specialization_to_weyl": "the bridge from a generic trace to its Weyl-side witness",
}


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


def public_definitions() -> set[str]:
    """Every public top-level function and class of the package's modules, and each public class's public methods as ``Class.method``."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.add(node.name)
                if isinstance(node, ast.ClassDef):
                    found.update(
                        f"{node.name}.{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    )
    return found


def names_used_outside_tests() -> set[str]:
    """Every name, attribute, import alias and string constant in the package (``__init__`` aside), ``scripts/`` and ``bench/``.

    String constants count, so a function that ``bench/tracing.py`` wraps by
    its name in ``LAYERS`` counts as used.
    """
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                names.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_uncalled_public_name_is_pinned():
    used = names_used_outside_tests()
    uncalled = {name for name in public_definitions() if name.rpartition(".")[2] not in used}
    assert uncalled == set(UNCALLED_PUBLIC)


def test_no_package_module_imports_the_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = {(node.module or "").partition(".")[0]}
            else:
                continue
            assert not imported & test_modules, (path.name, imported)
