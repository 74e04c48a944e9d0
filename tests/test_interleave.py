"""``tools/interleave.py`` runs benchmark blocks of two trees in one process."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOL = ROOT / "tools" / "interleave.py"
SUITES = ("algebra", "axioms", "distinctness", "numerals", "quadruples", "quantum")


def benchmark_files():
    return sorted((ROOT / "benchmarks").rglob("*"))


def interleave(parent, change, blocks):
    before = benchmark_files()
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "check-suites",
         "--blocks", str(blocks), "--seed", "5"],
        capture_output=True, text=True, timeout=300,
    )
    assert benchmark_files() == before
    return proc.returncode, proc.stdout.splitlines()


def test_two_check_suites_blocks_of_src_against_itself():
    code, lines = interleave(SRC, SRC, 2)
    assert code == 0, lines
    assert lines[0].startswith("workload check-suites, seed 5, 2 blocks")
    assert any(line.startswith("change won ") and line.endswith(" of 2 blocks") for line in lines)
    assert {line.split()[0] for line in lines if line.startswith("check-")} == {
        f"check-{suite}" for suite in SUITES}
    assert lines[-1] == "failed ops: 0"


def test_an_op_that_fails_its_check_exits_1(tmp_path):
    shutil.copytree(SRC / "hardysets", tmp_path / "hardysets",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "hardysets" / "cli.py", "a", encoding="utf-8") as cli:
        cli.write("\n\ndef main(argv=None):\n    return 1\n")
    code, lines = interleave(SRC, tmp_path, 1)
    assert code == 1
    listed = lines[lines.index("failed ops: 40") + 1:]
    assert len(listed) == 10 and all(line.startswith("  change check-") for line in listed)
