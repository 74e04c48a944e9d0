"""Every HfSet node is made by ``HfSet.__init__``, from one place.

``HfSet(...)`` is called only in ``hfset._intern``, and no module applies
``__new__`` to ``HfSet``. So each node enters the intern table, and
``HfSet.__init__`` runs once for it:
the ``construct_calls`` fixture and the benchmark's ``hfset.construct``
layer, which count ``__init__`` runs, see every node.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hardysets"


def names_hfset(node: ast.expr) -> bool:
    """True for ``HfSet`` and for ``<anything>.HfSet``."""
    return (isinstance(node, ast.Name) and node.id == "HfSet") or (
        isinstance(node, ast.Attribute) and node.attr == "HfSet"
    )


def node_constructions(path: Path) -> list:
    """(innermost function, form) of each call in ``path`` that makes a node."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = getattr(child, "name", "<lambda>")
            elif isinstance(child, ast.Call):
                func = child.func
                if names_hfset(func):
                    found.append((function, "HfSet("))
                elif isinstance(func, ast.Attribute) and func.attr == "__new__" and (
                    names_hfset(func.value) or (child.args and names_hfset(child.args[0]))
                ):
                    found.append((function, "__new__"))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_node_constructions_sees_every_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from . import hfset\n"
        "from .hfset import HfSet\n"
        "top = HfSet(label='a')\n"
        "def build():\n"
        "    hfset.HfSet(children=())\n"
        "    object.__new__(HfSet)\n"
        "    def inner():\n"
        "        return HfSet.__new__(HfSet)\n"
        "    return lambda: object.__new__(hfset.HfSet)\n"
        "class Maker:\n"
        "    def make(self):\n"
        "        object.__new__(Other)\n"
        "        Triple.__new__(Triple)\n"
        "        return isinstance(self, HfSet)\n"
    )
    assert node_constructions(source) == [
        ("<module>", "HfSet("),
        ("build", "HfSet("),
        ("build", "__new__"),
        ("inner", "__new__"),
        ("<lambda>", "__new__"),
    ]


def test_nodes_are_made_only_by_the_intern_functions():
    sources = sorted(SRC.glob("*.py"))
    assert SRC / "hfset.py" in sources
    found = {path.name: node_constructions(path) for path in sources}
    assert {name: calls for name, calls in found.items() if calls} == {
        "hfset.py": [("_intern", "HfSet(")]
    }
