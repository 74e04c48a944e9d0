"""``tools/sameoutput.py`` compares the outputs of two trees command by command.

The smoke runs keep the commands that run no check suite but the quantum
one, so that each takes well under a second.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOLS = ROOT / "tools"
RUN_FAST_COMMANDS = (
    "import sys\n"
    "sys.dont_write_bytecode = True\n"
    f"sys.path.insert(0, {str(TOOLS)!r})\n"
    "import sameoutput\n"
    "sameoutput.COMMANDS = [argv for argv in sameoutput.COMMANDS\n"
    "                       if argv[0] != 'check' or 'quantum' in argv]\n"
    "sys.exit(sameoutput.main(sys.argv[1:]))\n"
)


def sameoutput(parent, change):
    before = sorted((ROOT / "benchmarks").rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_FAST_COMMANDS, str(parent), str(change)],
        capture_output=True, text=True, timeout=300,
    )
    assert sorted((ROOT / "benchmarks").rglob("*")) == before
    return proc.returncode, proc.stdout.splitlines()


def test_src_against_itself_differs_nowhere():
    code, lines = sameoutput(SRC, SRC)
    assert code == 0, lines
    assert re.fullmatch(r"0 of \d+ commands differ", lines[0]), lines
    assert len(lines) == 1


def test_a_last_bit_change_of_the_splitter_exits_1(tmp_path):
    shutil.copytree(SRC / "hardysets", tmp_path / "hardysets",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "hardysets" / "quantum.py", "a", encoding="utf-8") as quantum:
        quantum.write("\n\n_SPLIT = _SPLIT * (1 + 2**-52)\n")
    code, lines = sameoutput(SRC, tmp_path)
    assert code == 1
    assert re.fullmatch(r"[1-9]\d* of \d+ commands differ", lines[0]), lines
    assert "  quantum --format machine" in lines[1:]
    assert "  quantum --format text" not in lines[1:]
