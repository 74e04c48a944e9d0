"""The two pipelines stay independent: checked on the import statements.

The quantum amplitude oracle must not import the set engine, the set
engine must not import the oracle or numpy, and the frozenset expansion
oracle and the reference set-notation reader must
not import the package at all; such an import would let a fault of one
pipeline hide in the check by the other.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Importing the package root would load the whole set engine too.
SET_ENGINE = {"hardysets", "hfset", "numerals", "probability", "hardy", "checks"}


def imported_names(path: Path) -> set:
    """Dotted names ``path`` imports; relative ones keep their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_imported_names_sees_every_import_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import a.b\nfrom .c import d\nfrom . import e\nfrom f import g as h\n")
    assert imported_names(source) == {"a.b", ".c.d", "..e", "f.g"}


def test_quantum_does_not_import_the_set_engine():
    for name in imported_names(ROOT / "src" / "hardysets" / "quantum.py"):
        assert not SET_ENGINE.intersection(name.lstrip(".").split(".")), name


@pytest.mark.parametrize("module", ["hfset", "numerals", "probability", "hardy"])
def test_set_engine_imports_neither_numpy_nor_the_oracle(module):
    for name in imported_names(ROOT / "src" / "hardysets" / f"{module}.py"):
        parts = name.lstrip(".").split(".")
        assert parts[0] != "numpy" and "quantum" not in parts, name


def test_checks_imports_no_numpy():
    # The suites reach numpy only through the oracle's functions.
    for name in imported_names(ROOT / "src" / "hardysets" / "checks.py"):
        assert name.lstrip(".").split(".")[0] != "numpy", name


def test_expansion_oracle_imports_nothing_from_the_package():
    for name in imported_names(ROOT / "tests" / "expansion_oracle.py"):
        assert not name.startswith(".") and name.split(".")[0] != "hardysets", name


def test_parser_oracle_imports_nothing_from_the_package():
    for name in imported_names(ROOT / "tests" / "parser_oracle.py"):
        assert not name.startswith(".") and name.split(".")[0] != "hardysets", name
