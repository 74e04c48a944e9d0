"""No module of the package imports a name that it does not use.

A name counts as used when the module reads it anywhere or lists it in
a literal ``__all__``, as a module that re-exports names does.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hardysets"


def unused_imports(path: Path) -> list:
    """Names ``path`` imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``.
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        # A computed ``__all__``, such as the package's sorted one, re-exports nothing.
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_sees_every_import_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os, a.b\n"
        "import c.d as e\n"
        "from .f import g, h as i, j\n"
        "from . import k\n"
        '__all__ = ["j"]\n'
        "g = 1\n"
        "print(a.b.x)\n"
    )
    assert unused_imports(source) == ["e", "g", "i", "k", "os"]
    source.write_text("from .a import b\n__all__ = sorted(['b'])\n")
    assert unused_imports(source) == ["b"]


def test_no_module_in_src_imports_an_unused_name():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "probability.py" in sources
    found = {path.name: unused_imports(path) for path in sources}
    assert {name: unused for name, unused in found.items() if unused} == {}
