#!/usr/bin/env python3
"""Time each CLI command of two hardysets source trees in fresh interpreters.

    python3 tools/coldstart.py PARENT_SRC CHANGE_SRC --runs N

Each ``*_SRC`` is a directory that holds a ``hardysets`` package, such as
``src`` of a checkout. Each entry of ``COMMANDS``, a bare interpreter
for reference and then five CLI commands, runs N times per side, each
time in a new interpreter with ``PYTHONPATH`` set to that side's tree;
the side that goes first alternates from run to run. One untimed import
of each tree comes first, so that both sides start with their bytecode
compiled.

Printed per command and side: the median wall time of the whole process,
import and exit included, and the median peak resident memory
(``ru_maxrss`` of that process alone). Exit status 1 if any command
exits with a status other than 0, else 0. Nothing is written under
``benchmarks/``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# A bare interpreter, then the CLI commands, from lightest to heaviest.
COMMANDS = (
    ("python -c pass", ["-c", "pass"]),
    ("eval", ["-m", "hardysets", "eval", "munion(vn(3,x1))"]),
    ("numerals", ["-m", "hardysets", "numerals", "--system", "vn", "--n", "5"]),
    ("reproduce", ["-m", "hardysets", "reproduce", "--format", "machine"]),
    ("check --suite quantum", ["-m", "hardysets", "check", "--suite", "quantum"]),
    ("check", ["-m", "hardysets", "check"]),
)


def run_once(src: Path, args: list) -> tuple:
    """Wall seconds, peak RSS in MiB and exit status of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    # Reaped by wait4, so Popen must not wait for the process again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024, proc.returncode


def coldstart(srcs: dict, runs: int) -> dict:
    """Per command and side: the wall seconds and peak MiB of each run, and failed runs."""
    for src in srcs.values():
        run_once(src, ["-c", "import hardysets.cli"])
    seconds = {name: {side: [] for side in SIDES} for name, _ in COMMANDS}
    mib = {name: {side: [] for side in SIDES} for name, _ in COMMANDS}
    failures = []
    for i in range(runs):
        for name, args in COMMANDS:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                s, m, code = run_once(srcs[side], args)
                seconds[name][side].append(s)
                mib[name][side].append(m)
                if code != 0:
                    failures.append((side, name, code))
    return {"seconds": seconds, "mib": mib, "failures": failures}


def report(result: dict, runs: int) -> list:
    seconds, mib = result["seconds"], result["mib"]
    lines = [
        f"{runs} runs per command and side; the parent runs first in even runs",
        f"{'command':<24} {'parent ms':>10} {'change ms':>10} {'parent MiB':>11} {'change MiB':>11}",
    ]
    for name, _ in COMMANDS:
        ms = [statistics.median(seconds[name][side]) * 1e3 for side in SIDES]
        peak = [statistics.median(mib[name][side]) for side in SIDES]
        lines.append(f"{name:<24} {ms[0]:>10.1f} {ms[1]:>10.1f} {peak[0]:>11.2f} {peak[1]:>11.2f}")
    lines.append(f"failed runs: {len(result['failures'])}")
    lines += [f"  {side} {name}: exit {code}" for side, name, code in result["failures"][:10]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--runs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    for src in (args.parent_src, args.change_src):
        if not (src / "hardysets" / "cli.py").is_file():
            parser.error(f"no hardysets package under {src}")

    srcs = dict(zip(SIDES, (args.parent_src.resolve(), args.change_src.resolve())))
    result = coldstart(srcs, args.runs)
    print("\n".join(report(result, args.runs)))
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
