"""Golden outputs: the reproduce reports and the check suites, pinned exactly.

The files under ``golden/`` are the stdout of the commands named in
each test. Every key of a machine report must match exactly, except the
two floating-point quantum values, which are compared within 1e-12. A
text report prints those values rounded to 12 digits and must match
byte for byte.
"""

import json
from pathlib import Path

import pytest

from hardysets.cli import main

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-12


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_reproduce_machine_golden(capsys, depth):
    code = main(["reproduce", "--depth", str(depth), "--format", "machine"])
    report = json.loads(capsys.readouterr().out)
    expected = json.loads((GOLDEN / f"reproduce-machine-depth{depth}.json").read_text())
    assert code == 0
    quantum, expected_quantum = report.pop("quantum"), expected.pop("quantum")
    assert report == expected
    assert quantum.keys() == expected_quantum.keys() == {"p_gamma", "p_dd"}
    for key, value in expected_quantum.items():
        assert abs(quantum[key] - value) <= TOL


# Depth 14 covers the skipped axiom sweep and a field of 2^60 events.
@pytest.mark.parametrize("depth", [3, 14])
def test_reproduce_text_golden(capsys, depth):
    code = main(["reproduce", "--depth", str(depth), "--format", "text"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"reproduce-text-depth{depth}.txt").read_text()


def test_check_axioms_golden(capsys):
    code = main(["check", "--suite", "axioms", "--seed", "42", "--trials", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "check-axioms-seed42-trials100.txt").read_text()


# Pins the printed worst norm drift of the batched sweep to the per-state loop's.
def test_check_quantum_golden(capsys):
    code = main(["check", "--suite", "quantum", "--seed", "42", "--trials", "1000"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "check-quantum-seed42-trials1000.txt").read_text()


# With no flags but --verbose: pins the suite order and names, every check
# line, and the --seed and --trials defaults.
def test_check_verbose_defaults_golden(capsys):
    code = main(["check", "--verbose"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "check-verbose-defaults.txt").read_text()
