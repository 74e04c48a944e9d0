import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hardysets import cli
from hardysets.checks import MAX_TRIALS, SUITES
from hardysets.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


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
    # function calls nested far past Python's recursion limit
    "call-nesting-2000": ("munion(" * 2000 + "{}" + ")" * 2000, "{}"),
    "call-nesting-20000": ("munion(" * 20000 + "{}" + ")" * 20000, "{}"),
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
    # vn(23) over a 20-letter x2 or x3 would print 23 * 2^22 - 1 characters,
    # but only x1's towers are built whole. The wing that holds its 23
    # members (48 members in all) is the value refused.
    "reproduce-long-x2-depth-23": (
        ("reproduce", "--atoms", "a," + "b" * 20 + ",c,d", "--depth", "23"),
        "value too large: it would print 113246297 characters, more than the limit of 67108864"),
    "reproduce-long-x3-depth-23": (
        ("reproduce", "--atoms", "a,b," + "c" * 20 + ",d", "--depth", "23"),
        "value too large: it would print 113246297 characters, more than the limit of 67108864"),
    # vn(25,x1) prints 5 * 2^24 - 1 characters
    "reproduce-depth-25": (
        ("reproduce", "--depth", "25"),
        "value too large: it would print 83886079 characters, more than the limit of 67108864"),
    "union-past-print-bound": (
        ("eval", "union(vn(25,a),vn(25,b))"),
        "value too large: it would print 134217725 characters, more than the limit of 67108864"),
    # past the interpreter's limit on digits converted to an int
    "number-5000-digits": (
        ("eval", "vn(" + "9" * 5000 + ",a)"),
        f"error at byte 3: number has more than {sys.get_int_max_str_digits()} digits"),
}


@pytest.mark.parametrize("argv, message", REFUSED.values(), ids=REFUSED)
def test_inputs_past_the_bounds_are_usage_errors(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# Exact stderr of expressions that fail, pinning which error wins: the whole
# text is read before anything is evaluated, a call's name and arity are
# checked before its arguments, and arguments fail left to right. An 'é'
# is never valid, so no error lies after one; the offsets count '∅' as
# three bytes.
EVAL_ERRORS = {
    "unknown-before-arguments": (
        "frob(vn(1000000,a))", "error at byte 0: unknown function 'frob'"),
    "arity-before-arguments": (
        "munion(a,b)", "error at byte 0: munion expects 1 argument(s), got 2"),
    "left-argument-first": ("union(a,b)", "error at byte 6: union expects a set, got atom 'a'"),
    "parse-before-evaluation": ("munion(a) }", "error at byte 10: expected end of input"),
    "parse-in-literal-before-evaluation": (
        "union(x1,{a,}", "error at byte 12: expected a set or an atom identifier"),
    "vn-level": ("vn({},a)", "error at byte 3: vn expects a numeral level as first argument"),
    "zm-level-before-base": (
        "zm(a,b)", "error at byte 3: zm expects a numeral level as first argument"),
    "vn-base": ("vn(1,{a})", "error at byte 5: vn base must be an atom or the empty set"),
    "zm-base-number": ("zm(2,3)", "error at byte 5: zm base must be an atom or the empty set"),
    "card-number": ("card(card({}))", "error at byte 5: card expects a set, got a number"),
    "offset-after-empty-set": (
        "union(∅,a)", "error at byte 10: union expects a set, got atom 'a'"),
    "offset-of-e-acute": (
        "intersect(∅,é)",
        "error at byte 14: expected a set literal, a function call, or an identifier"),
    "trailing-e-acute": ("munion(∅) é", "error at byte 12: expected end of input"),
    # errors 20,000 calls down
    "atom-operand-20000-deep": (
        "munion(" * 20000 + "a" + ")" * 20000,
        "error at byte 140000: munion expects a set, got atom 'a'"),
    "unclosed-call-20000-deep": (
        "munion(" * 20000 + "{}", "error at byte 140002: expected ',' or ')'"),
}


@pytest.mark.parametrize("expression, message", EVAL_ERRORS.values(), ids=EVAL_ERRORS)
def test_eval_errors_exact(capsys, expression, message):
    assert run(capsys, "eval", expression) == (2, "", f"error: {message}\n")


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


def test_check_unknown_suite_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "--suite", "nope")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1].startswith(
        "hardysets check: error: argument --suite: invalid choice: 'nope'"
    )


@pytest.mark.parametrize("argv, message", [
    (("--seed", "-1"), "argument --seed: seed must be at least 0"),
    (("--seed", "x"), "argument --seed: invalid seed 'x'"),
    (("--trials", "-5"), "argument --trials: trials must be at least 1"),
    (("--trials", "0"), "argument --trials: trials must be at least 1"),
    (("--trials", str(MAX_TRIALS + 1)), f"argument --trials: trials must be at most {MAX_TRIALS}"),
    (("--trials", "1" + "0" * 30), f"argument --trials: trials must be at most {MAX_TRIALS}"),
])
def test_check_bad_seed_or_trials_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "check", "--suite", "quantum", *argv)
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if "error" in line] == [
        f"hardysets check: error: {message}"
    ]


def test_trials_past_the_bound_are_refused_before_any_suite_runs(capsys, monkeypatch):
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda **kwargs: pytest.fail("a suite ran"))
    code, out, err = run(capsys, "check", "--trials", str(MAX_TRIALS + 1))
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == (
        f"hardysets check: error: argument --trials: trials must be at most {MAX_TRIALS}"
    )


def test_trials_at_the_bound_are_accepted():
    args = cli.build_parser().parse_args(["check", "--trials", str(MAX_TRIALS)])
    assert args.trials == MAX_TRIALS


# --- failed writes of the output, in a child process -------------------------


def hardysets_process(*argv, stdout):
    return subprocess.Popen(
        [sys.executable, "-m", "hardysets", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_closed_pipe_ends_with_one_error_line_and_exit_2():
    # As `hardysets eval "vn(20,q07)" | head -c 10`: the reader goes away
    # while 3 MB of output are still to be written.
    read_end, write_end = os.pipe()
    process = hardysets_process("eval", "vn(20,q07)", stdout=write_end)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert reader.read(10) == b"{q07,{q07}"
    err = process.stderr.read().decode()
    assert process.wait(timeout=60) == 2
    assert err == "error: cannot write output: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [
    ("reproduce", "--format", "machine"),  # fails at the final flush
    ("eval", "vn(20,q07)"),  # fails while printing
])
def test_full_disk_ends_with_one_error_line_and_exit_2(argv):
    with open("/dev/full", "wb") as full:
        process = hardysets_process(*argv, stdout=full)
        err = process.stderr.read().decode()
        assert process.wait(timeout=60) == 2
    assert err == "error: cannot write output: No space left on device\n"


def test_a_closed_stdout_ends_with_one_error_line_and_exit_2():
    # With descriptor 1 closed, the interpreter has no sys.stdout, and
    # print would drop the result: the command is refused before it runs.
    # With stderr closed too, the exit code alone tells, and no traceback.
    for redirect, err in [(">&-", b"error: cannot write output: stdout is closed\n"),
                          (">&- 2>&-", b"")]:
        process = subprocess.run(
            ["sh", "-c", f'"$0" -m hardysets eval "{{a}}" {redirect}', sys.executable],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert (process.returncode, process.stderr) == (2, err)


@pytest.mark.parametrize("argv, character", [
    (("check", "--suite", "numerals"), r"'\u2229'"),  # ∩ in a check line
    (("check", "--verbose"), r"'\u2229'"),
    (("numerals", "--help"), r"'\u2205'"),  # ∅ in the help of --base
], ids=["check-suite-numerals", "check-verbose", "numerals-help"])
def test_an_output_the_encoding_cannot_write_ends_with_one_error_line_and_exit_2(
    argv, character
):
    process = subprocess.run(
        [sys.executable, "-m", "hardysets", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="ascii"),
        timeout=60,
    )
    err = process.stderr.decode()
    assert process.returncode == 2
    assert err.startswith(
        f"error: cannot write output: 'ascii' codec can't encode character {character}"
    )
    assert err.count("\n") == 1 and err.endswith("\n")
