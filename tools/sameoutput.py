#!/usr/bin/env python3
"""Check that two hardysets source trees print the same bytes for a fixed command list.

    python3 tools/sameoutput.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that holds a ``hardysets`` package, such as
``src`` of a checkout. Both trees are imported into one process under
their own package names, as ``tools/interleave.py`` does, and every
entry of ``COMMANDS`` runs through each side's ``cli.main``. The exit
code, stdout and stderr of the two sides must be equal byte for byte;
an exception counts as an output too, by its type and message.

Printed: ``N of M commands differ`` and up to 10 of the commands that
differ. Exit status 1 if any command differs, else 0. Nothing is written
under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

# No bytecode of this directory's modules is written next to them.
sys.dont_write_bytecode = True

from interleave import SIDES, load_cli_main  # noqa: E402

GOLDEN = (
    *(["reproduce", "--depth", str(d), "--format", "machine"] for d in (2, 3, 4, 5)),
    *(["reproduce", "--depth", str(d), "--format", "text"] for d in (3, 14)),
    ["check", "--suite", "axioms", "--seed", "42", "--trials", "100"],
    ["check", "--suite", "quantum", "--seed", "42", "--trials", "1000"],
    ["check", "--verbose"],
    ["quantum", "--format", "machine"],
)
SUITES = ("algebra", "axioms", "distinctness", "numerals", "quadruples", "quantum")
README_EVAL = (
    "intersect(vn(2,x1), zm(2,x1))",
    "munion(vn(3,x1))",
    "card({})",
    "zm(5000,a)",
    "union(zm(3000,a),zm(3000,b))",
)
COMMANDS = (
    *GOLDEN,
    *(["check", "--verbose", "--seed", str(seed), "--trials", str(trials)]
      for seed in (0, 42, 777) for trials in (10, 100, 1000)),
    *(["check", "--suite", suite] for suite in SUITES),
    *(["reproduce", "--format", fmt, *extra]
      for fmt in ("text", "machine")
      for extra in (*(["--depth", str(d)] for d in (1, 2, 3, 4, 5, 6, 14)),
                    ["--atoms", "p,q,r,s"])),
    *(["quantum", "--format", fmt] for fmt in ("text", "machine")),
    *(["numerals", "--system", system, "--n", "3", "--base", base]
      for system in ("vn", "zm") for base in ("∅", "{}", "x1")),
    *(["eval", expression] for expression in README_EVAL),
    ["check", "--suite", "nope"],
    ["check", "--trials", "0"],
    ["reproduce", "--depth", "0"],
    ["eval", "vn(3,{a})"],
    ["--help"],
    *([command, "--help"] for command in ("reproduce", "eval", "check", "quantum", "numerals")),
)


def run(cli_main, argv: list) -> tuple:
    """(exit code, stdout, stderr) of one command, or the exception it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    except Exception as exc:  # a raising command is an output to compare, not a crash
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def differing(mains: dict) -> list:
    """The commands of ``COMMANDS`` whose outputs differ between the sides."""
    return [argv for argv in COMMANDS
            if len({run(mains[side], argv) for side in SIDES}) > 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "hardysets" / "cli.py").is_file():
            parser.error(f"no hardysets package under {src}")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        mains = {side: load_cli_main(src.resolve(), f"hardysets_{side}", Path(tmp))
                 for side, src in zip(SIDES, (args.parent_src, args.change_src))}
        diff = differing(mains)
    print(f"{len(diff)} of {len(COMMANDS)} commands differ")
    for command in diff[:10]:
        print(f"  {shlex.join(command)}")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
