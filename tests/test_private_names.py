"""No module of the package defines a private name that nothing reads.

A private name is a module-level ``_name`` (not a dunder) bound by an
assignment, a ``def`` or a ``class``. It counts as read when any module
of the package loads it as a name, reads it as an attribute of a name
(``hfset._canonical``), or imports it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hardysets"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined_private_names(tree: ast.Module) -> set:
    """The private names bound at the top level of ``tree``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
    return {name for name in names if _private(name)}


def read_names(tree: ast.Module) -> set:
    """The names ``tree`` loads, reads off a name, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_private_names(paths) -> dict:
    """Module file name -> the private names it defines that no file in ``paths`` reads."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    read = set().union(*map(read_names, trees.values()))
    found = {name: sorted(defined_private_names(tree) - read) for name, tree in trees.items()}
    return {name: unread for name, unread in found.items() if unread}


def test_unread_private_names_sees_every_binding_and_read(tmp_path):
    (tmp_path / "a.py").write_text(
        "import re\n"
        "_A, (_B, c) = 1, (2, 3)\n"
        "_C: int = 4\n"
        "__all__ = []\n"
        "def _f():\n    return _A\n"
        "class _K:\n    pass\n"
        "_G = 5\n"
        "def _h():\n    _local = 6\n    return _local\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _B\n"
        "from . import a\n"
        "print(a._C, _B)\n"
        "_unused = re.compile('x')\n"
        "_G = 7\n"
    )
    found = unread_private_names(sorted(tmp_path.glob("*.py")))
    # _f and _h are only defined; _K and _G only bound, never loaded.
    assert found == {"a.py": ["_G", "_K", "_f", "_h"], "b.py": ["_G", "_unused"]}


def test_every_private_name_in_src_is_read():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "hfset.py" in sources
    assert unread_private_names(sources) == {}
