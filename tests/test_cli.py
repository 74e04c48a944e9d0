import json
import sys

import pytest

from hardysets.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reproduce_default(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert "probability: 1/16" in out
    assert "omega size: 16" in out
    assert "event field size: 2^16 = 65536" in out
    assert "result: PASS" in out


def test_reproduce_machine_schema(capsys):
    code, out, _ = run(capsys, "reproduce", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["probability"] == "1/16"
    assert report["omega_size"] == 16
    assert report["field_size_log2"] == 16
    assert report["c_d_disjoint"] is True
    assert report["agreement"] is True
    assert report["axiom_report"]["complement_closure"]["checked_count"] == 65536
    assert report["joint_set"] == "{{x1}}"
    assert report["annihilated_a"] == "{x1,{x1}}"
    assert report["annihilated_b"] == "{{x1}}"
    assert report["passed"] is True


def test_reproduce_machine_deterministic(capsys):
    _, first, _ = run(capsys, "reproduce", "--format", "machine")
    _, second, _ = run(capsys, "reproduce", "--format", "machine")
    assert first == second


def test_reproduce_depth_four(capsys):
    code, out, _ = run(capsys, "reproduce", "--depth", "4", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["probability"] == "0"
    assert report["omega_size"] == 20
    assert report["agreement"] is False
    assert report["passed"] is True


def test_reproduce_non_distinct_atoms_is_usage_error(capsys):
    code, _, err = run(capsys, "reproduce", "--atoms", "x1,x2,x1,x4")
    assert code == 2
    assert "(x1,x3)" in err
    assert "x1" in err


def test_reproduce_bad_atom_count(capsys):
    code, _, err = run(capsys, "reproduce", "--atoms", "a,b,c")
    assert code == 2


def test_reproduce_custom_atoms(capsys):
    code, out, _ = run(capsys, "reproduce", "--atoms", "p,q,r,s", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert report["probability"] == "1/16"
    assert report["joint_set"] == "{{p}}"


def test_eval_examples(capsys):
    assert run(capsys, "eval", "intersect(vn(2,x1), zm(2,x1))") == (0, "{{x1}}\n", "")
    assert run(capsys, "eval", "munion(vn(3,x1))") == (0, "{x1,{x1}}\n", "")
    assert run(capsys, "eval", "card({})") == (0, "0\n", "")
    assert run(capsys, "eval", "union({x1},{x2})") == (0, "{x1,x2}\n", "")
    assert run(capsys, "eval", "{ {x1}, x1 }") == (0, "{x1,{x1}}\n", "")
    assert run(capsys, "eval", "vn(0, x1)") == (0, "x1\n", "")
    assert run(capsys, "eval", "card(vn(7,{}))") == (0, "7\n", "")


# Exact stderr of malformed expressions: byte offsets are UTF-8 offsets into
# the whole expression, also when the error lies inside a set literal.
PARSE_ERRORS = [
    ("{x1,", "error at byte 4: expected a set or an atom identifier"),
    ("{x1 x2}", "error at byte 4: expected ',' or '}'"),
    ("union({x1},{,})", "error at byte 12: expected a set or an atom identifier"),
    ("{1}", "error at byte 1: expected a set or an atom identifier"),
    # each '∅' is one character but three bytes
    ("{∅, ∅ x}", "error at byte 10: expected ',' or '}'"),
    ("union({x1}", "error at byte 10: expected ',' or ')'"),
    ("{x1}}", "error at byte 4: expected end of input"),
]


def test_eval_parse_error_position(capsys):
    for expression, message in PARSE_ERRORS:
        code, out, err = run(capsys, "eval", expression)
        assert (code, out, err) == (2, "", f"error: {message}\n"), expression


def zm_text(n, base):
    return "{" * n + base + "}" * n


# Nesting far past Python's recursion limit gets the exact closed-form answer.
DEEP_VALUES = {
    "zm-call-600": ("zm(600,a)", zm_text(600, "a")),
    "brace-literal-600": (zm_text(600, "a"), zm_text(600, "a")),
    "zm-call-5000": ("zm(5000,a)", zm_text(5000, "a")),
    "brace-literal-5000": (zm_text(5000, "a"), zm_text(5000, "a")),
    # the canonical order compares the two members 3000 levels down
    "union-3000": (
        "union(zm(3000,b),zm(3000,a))",
        "{" + zm_text(2999, "a") + "," + zm_text(2999, "b") + "}",
    ),
}


@pytest.mark.parametrize("expression, expected", DEEP_VALUES.values(), ids=DEEP_VALUES)
def test_eval_deep_nesting_is_answered(capsys, expression, expected):
    assert run(capsys, "eval", expression) == (0, expected + "\n", "")


# Inputs past the documented size bounds: refused before any large value is
# built or printed.
REFUSED = {
    "vn-level-1000000": (
        ("eval", "vn(1000000,a)"), "numeral level 1000000 is above the limit of 100000"),
    "zm-level-100001": (
        ("eval", "zm(100001,a)"), "numeral level 100001 is above the limit of 100000"),
    "numerals-zm-100001": (
        ("numerals", "--system", "zm", "--n", "100001"),
        "numeral level 100001 is above the limit of 100000"),
    "reproduce-depth-1000000": (
        ("reproduce", "--depth", "1000000"), "numeral level 1000000 is above the limit of 100000"),
    # vn(26,a) prints 2^27 - 1 characters
    "vn-26": (
        ("eval", "card(vn(26,a))"),
        "value too large: it would print 134217727 characters, more than the limit of 67108864"),
    # the union of both wings at depth 23 prints about four times vn(23,x1)
    "reproduce-depth-23": (
        ("reproduce", "--depth", "23"),
        "value too large: it would print 83886261 characters, more than the limit of 67108864"),
    # vn(25,x1) prints 5 * 2^24 - 1 characters
    "reproduce-depth-25": (
        ("reproduce", "--depth", "25"),
        "value too large: it would print 83886079 characters, more than the limit of 67108864"),
    "union-past-print-bound": (
        ("eval", "union(vn(25,a),vn(25,b))"),
        "value too large: it would print 134217725 characters, more than the limit of 67108864"),
    "call-nesting-2000": (
        ("eval", "munion(" * 2000 + "{}" + ")" * 2000),
        f"expression is nested too deeply (Python recursion limit {sys.getrecursionlimit()})"),
}


@pytest.mark.parametrize("argv, message", REFUSED.values(), ids=REFUSED)
def test_inputs_past_the_bounds_are_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_eval_type_errors(capsys):
    code, _, err = run(capsys, "eval", "union(x1, {})")
    assert code == 2
    assert "expects a set" in err

    code, _, err = run(capsys, "eval", "vn({}, x1)")
    assert code == 2
    assert "numeral level" in err

    code, _, err = run(capsys, "eval", "frobnicate({})")
    assert code == 2
    assert "unknown function" in err


def test_check_single_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "quantum")
    assert code == 0
    assert "suite quantum: PASS" in out
    assert "overall: PASS" in out


def test_check_distinctness_marks_gap(capsys):
    # selecting a single suite prints its detail lines without --verbose
    code, out, _ = run(capsys, "check", "--suite", "distinctness")
    assert code == 0
    assert "EXPECTED-NONDISJOINT" in out
    assert "('a', 'b', 'a', 'c')" in out or "('a', 'b', 'a', 'd')" in out or "(a,b,a,d)" in out


def test_check_small_trials_all_suites(capsys):
    code, out, _ = run(capsys, "check", "--seed", "7", "--trials", "50")
    assert code == 0
    assert out.count("PASS") >= 7


def test_quantum_machine(capsys):
    code, out, _ = run(capsys, "quantum", "--format", "machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_dd"] == pytest.approx(0.0625, abs=1e-12)
    assert payload["p_gamma"] == pytest.approx(0.25, abs=1e-12)
    assert payload["total"] == pytest.approx(1.0, abs=1e-12)


def test_numerals_command(capsys):
    assert run(capsys, "numerals", "--system", "vn", "--n", "3")[1] == "{{},{{}},{{},{{}}}}\n"
    assert run(capsys, "numerals", "--system", "zm", "--n", "3", "--base", "x1")[1] == "{{{x1}}}\n"
    assert run(capsys, "numerals", "--system", "vn", "--n", "0", "--base", "{}")[1] == "{}\n"


def test_numerals_bad_base(capsys):
    code, _, err = run(capsys, "numerals", "--system", "vn", "--n", "2", "--base", "9bad")
    assert code == 2
    assert "invalid atom label" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "reproduce", "--depth", "0")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize("argv, message", [
    (("--seed", "-1"), "argument --seed: seed must be at least 0"),
    (("--seed", "x"), "argument --seed: invalid seed 'x'"),
    (("--trials", "-5"), "argument --trials: trials must be at least 1"),
    (("--trials", "0"), "argument --trials: trials must be at least 1"),
])
def test_check_bad_seed_or_trials_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "check", "--suite", "quantum", *argv)
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error" in line] == [
        f"hardysets check: error: {message}"
    ]
