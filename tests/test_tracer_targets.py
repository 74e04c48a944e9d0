"""The benchmark's tracer can still find every function it wraps.

``benchmarks/spans.py`` patches package functions by ``module:qualname``;
renaming one of them would crash every traced benchmark run. The file is
run from its path, which writes nothing under ``benchmarks/``.
"""

import importlib
import runpy
from functools import reduce
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_every_traced_function_resolves():
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    for layer, targets in layers.items():
        for target in targets:
            module_name, qualname = target.split(":")
            module = importlib.import_module(f"hardysets.{module_name}")
            function = reduce(getattr, qualname.split("."), module)
            assert callable(function), f"{layer}: {target}"
