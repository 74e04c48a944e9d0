"""The package surface: every public name once, each loaded on first use.

Only the quantum oracle needs numpy, so the set engine must import
without it, and no command needs ``numpy.random``; the subprocess tests
check that in fresh interpreters.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardysets

SRC = Path(hardysets.__file__).resolve().parent.parent
MODULES = ("hfset", "numerals", "probability", "hardy", "quantum")


def fresh(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        capture_output=True,
        text=True,
    ).stdout


@pytest.mark.parametrize("statement", [
    "import hardysets",
    "import hardysets.hfset",
    "import hardysets.numerals",
    "import hardysets.probability",
    "import hardysets.hardy",
    "from hardysets import atom, build_model, hardy_probability",
])
def test_set_engine_imports_without_numpy(statement):
    assert fresh(f"{statement}\nimport sys\nprint('numpy' in sys.modules)") == "False\n"


def test_reading_an_oracle_name_loads_numpy():
    code = (
        "import sys, hardysets\n"
        "print('numpy' in sys.modules)\n"
        "hardysets.run_double_mzi\n"
        "print('numpy' in sys.modules)\n"
    )
    assert fresh(code) == "False\nTrue\n"


def test_check_of_every_suite_loads_no_numpy_random():
    # The quantum suite draws its states from the stdlib generator, so
    # numpy.random and the secrets module it imports stay unloaded.
    code = (
        "import sys\n"
        "from hardysets.cli import main\n"
        "code = main(['check', '--trials', '10'])\n"
        "print(code, *(m in sys.modules for m in ('numpy', 'numpy.random', 'secrets')))\n"
    )
    assert fresh(code).splitlines()[-1] == "0 True False False"


def test_package_import_loads_no_module():
    code = "import sys, hardysets\nprint(sorted(m for m in sys.modules if m.startswith('hardysets')))"
    assert fresh(code) == "['hardysets']\n"


def test_an_oracle_name_loads_only_its_owner():
    code = (
        "import sys\n"
        "from hardysets import run_double_mzi\n"
        "print(sorted(m for m in sys.modules if m.startswith('hardysets')))"
    )
    assert fresh(code) == "['hardysets', 'hardysets.quantum']\n"


def test_each_public_name_is_its_single_owners_object():
    assert hardysets.__all__ == sorted(set(hardysets.__all__))
    for name in hardysets.__all__:
        owners = [m for m in MODULES if name in getattr(hardysets, m).__all__]
        assert len(owners) == 1, (name, owners)
        assert getattr(hardysets, name) is getattr(getattr(hardysets, owners[0]), name)


@pytest.mark.parametrize("module", [*MODULES, "checks", "cli"])
def test_every_module_export_resolves(module):
    # A name left in __all__ after its definition is deleted fails here.
    mod = importlib.import_module(f"hardysets.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hardysets import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hardysets.__all__)
    assert all(namespace[name] is getattr(hardysets, name) for name in hardysets.__all__)


def test_modules_are_attributes_of_a_fresh_package():
    code = (
        "import sys, hardysets\n"
        f"for m in {MODULES!r}:\n"
        "    print(getattr(hardysets, m) is sys.modules['hardysets.' + m])\n"
    )
    assert fresh(code) == "True\n" * len(MODULES)


@pytest.mark.parametrize("name", [
    "nope", "mass", "_MAX_EXHAUSTIVE_OMEGA",
    "BeamSplitterConvention", "DEFAULT_CONVENTION", "NonUnitaryConvention",
])
def test_unknown_name_raises_attribute_error(name):
    # ``mass`` is public in hardysets.probability but not re-exported; the
    # last three were public until the oracle's splitter became a constant.
    with pytest.raises(AttributeError, match=f"^module 'hardysets' has no attribute '{name}'$"):
        getattr(hardysets, name)


def test_dir_lists_public_names_and_modules():
    listed = dir(hardysets)
    assert set(hardysets.__all__) | set(MODULES) | {"__version__"} <= set(listed)
    assert listed == sorted(listed)
