"""The benchmark's tracer can still find every function it wraps.

``benchmarks/spans.py`` patches package functions by ``module:qualname``;
renaming one of them would crash every traced benchmark run. The file is
run from its path, which writes nothing under ``benchmarks/``.
"""

import importlib
import os
import runpy
import subprocess
import sys
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "benchmarks" / "spans.py"


def test_every_traced_function_resolves():
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    for layer, targets in layers.items():
        for target in targets:
            module_name, qualname = target.split(":")
            module = importlib.import_module(f"hardysets.{module_name}")
            function = reduce(getattr, qualname.split("."), module)
            assert callable(function), f"{layer}: {target}"


def test_cli_import_loads_what_the_benchmark_reads():
    """``import hardysets.cli`` loads numpy and ``hardysets.checks``.

    ``benchmarks/run.py::environment`` reads ``sys.modules["numpy"]`` and
    ``Tracer.install`` reads ``sys.modules["hardysets.checks"]``, neither
    with a guard, right after that import. Until then a CLI that loaded
    either lazily would fail every benchmark run. This test goes away once
    ROADMAP item 1 guards those two reads.
    """
    code = (
        "import sys, hardysets.cli\n"
        "print('numpy' in sys.modules, 'hardysets.checks' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    assert out == "True True\n"
