#!/usr/bin/env python3
"""Time two hardysets source trees block by block in one process.

    python3 tools/interleave.py PARENT_SRC CHANGE_SRC --workload W --blocks N --seed S

Each ``*_SRC`` is a directory that holds a ``hardysets`` package, such as
``src`` of a checkout. Both trees are copied into a temporary directory
under their own package names and imported into one process, so both
sides run on the same interpreter and see the same host speed, which
separate benchmark processes on a shared host do not.

The ops are whole blocks of ``benchmarks/workloads.py``, drawn from
seed ``S``; each block runs on both sides, and the side that goes first
alternates from block to block. Each op runs through
``benchmarks/run.py``'s ``run_op``: stdout and stderr are captured, only
the CLI call is timed, and the op's reference check runs untimed.

Printed per side: the median block time and the median op time of each
class; then the median per-block ratio (parent time / change time) and
the blocks the change won. Exit status 1 if any op fails its check,
else 0. Nothing is written under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_cli_main(src: Path, package: str, into: Path):
    """``cli.main`` of the ``hardysets`` tree under ``src``, imported as ``package``."""
    shutil.copytree(src / "hardysets", into / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{package}.cli").main


def interleave(mains: dict, workload, blocks: int, seed: int) -> dict:
    """Per side: the op seconds of each block, op seconds by class, and failed ops."""
    from run import _blocks, _warm_up, run_op

    for cli_main in mains.values():
        _warm_up(cli_main, workload, seed)
    block_s = {side: [] for side in SIDES}
    class_s = {side: defaultdict(list) for side in SIDES}
    failures = []
    draw = _blocks(workload, seed)
    for i in range(blocks):
        block = next(draw)
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            total = 0.0
            for op in block:
                seconds, problems, _ = run_op(mains[side], op)
                total += seconds
                class_s[side][op.cls].append(seconds)
                if problems:
                    failures.append((side, op.cls, " ".join(op.argv)[:80], problems[:3]))
            block_s[side].append(total)
    return {"block_s": block_s, "class_s": class_s, "failures": failures}


def report(result: dict, workload: str, blocks: int, seed: int) -> list:
    block_s, class_s = result["block_s"], result["class_s"]
    ratios = [p / c for p, c in zip(block_s["parent"], block_s["change"])]
    won = sum(r > 1 for r in ratios)
    lines = [
        f"workload {workload}, seed {seed}, {blocks} blocks; the parent runs first in even blocks",
        *(f"{side} median block: {statistics.median(block_s[side]) * 1e3:.1f} ms"
          for side in SIDES),
        f"median per-block ratio (parent / change): {statistics.median(ratios):.3f}",
        f"change won {won} of {blocks} blocks",
        f"{'class':<20} {'parent ms':>10} {'change ms':>10} {'ratio':>7}",
    ]
    for cls in sorted(class_s["parent"]):
        p, c = (statistics.median(class_s[side][cls]) for side in SIDES)
        lines.append(f"{cls:<20} {p * 1e3:>10.3f} {c * 1e3:>10.3f} {p / c:>7.3f}")
    lines.append(f"failed ops: {len(result['failures'])}")
    lines += [f"  {side} {cls}: {argv}: {problems}"
              for side, cls, argv, problems in result["failures"][:10]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.blocks < 1:
        parser.error("--blocks must be at least 1")
    for src in (args.parent_src, args.change_src):
        if not (src / "hardysets" / "cli.py").is_file():
            parser.error(f"no hardysets package under {src}")

    # The benchmark's modules are imported from their checkout, unmodified;
    # no bytecode is written next to them.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        mains = {side: load_cli_main(src.resolve(), f"hardysets_{side}", Path(tmp))
                 for side, src in zip(SIDES, (args.parent_src, args.change_src))}
        result = interleave(mains, WORKLOADS[args.workload], args.blocks, args.seed)
    print("\n".join(report(result, args.workload, args.blocks, args.seed)))
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
