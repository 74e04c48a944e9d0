"""``tools/coldstart.py`` times each CLI command of two trees in fresh interpreters."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOL = ROOT / "tools" / "coldstart.py"
ROWS = ("python -c pass", "eval", "numerals", "reproduce", "check --suite quantum", "check")


def coldstart(parent, change):
    before = sorted((ROOT / "benchmarks").rglob("*"))
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--runs", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert sorted((ROOT / "benchmarks").rglob("*")) == before
    return proc.returncode, proc.stdout.splitlines()


def test_one_run_of_src_against_itself():
    code, lines = coldstart(SRC, SRC)
    assert code == 0, lines
    assert lines[0].startswith("1 runs per command and side")
    rows = lines[2:-1]
    assert [row[:24].rstrip() for row in rows] == list(ROWS)
    for row in rows:
        assert min(map(float, row[24:].split())) > 0, row
    assert lines[-1] == "failed runs: 0"


def test_a_command_that_fails_exits_1(tmp_path):
    shutil.copytree(SRC / "hardysets", tmp_path / "hardysets",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "hardysets" / "cli.py", "a", encoding="utf-8") as cli:
        cli.write("\n\ndef main(argv=None):\n    return 1\n")
    code, lines = coldstart(SRC, tmp_path)
    assert code == 1
    listed = lines[lines.index("failed runs: 5") + 1:]
    assert listed == [f"  change {name}: exit 1" for name in ROWS[1:]]
