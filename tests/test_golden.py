"""Golden outputs: the machine report and the axioms check, pinned exactly.

The files under ``golden/`` are the stdout of the commands named in
each test. Every key of a machine report must match exactly, except the
two floating-point quantum values, which are compared within 1e-12.
"""

import json
from pathlib import Path

import pytest

from hardysets.cli import main

GOLDEN = Path(__file__).parent / "golden"
TOL = 1e-12


@pytest.mark.parametrize("depth", [2, 3, 4])
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


def test_check_axioms_golden(capsys):
    code = main(["check", "--suite", "axioms", "--seed", "42", "--trials", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "check-axioms-seed42-trials100.txt").read_text()
