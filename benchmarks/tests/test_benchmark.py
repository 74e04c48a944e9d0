"""Tests of the benchmark's own logic: reference, percentile rule, self time.

    python3 -m pytest benchmarks/tests
"""

import contextlib
import io
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- reference ----------------------------------------------------------------


def test_closed_form_matches_general_renderer():
    for n in range(7):
        assert reference.vn_text(n, "q01") == reference.render(reference.vn(n, "q01"))
        assert reference.zm_text(n, "q01") == reference.render(reference.zm(n, "q01"))
    assert reference.vn_text(3, "x") == "{x,{x},{x,{x}}}"
    assert reference.zm_text(3, "x") == "{{{x}}}"
    members = frozenset([reference.vn(0, "x"), reference.vn(1, "x"), reference.vn(3, "x")])
    assert reference.numeral_set_text(0b1011, "x") == reference.render(members)
    assert reference.numeral_set_text(0b1111, "x") == reference.vn_text(4, "x")


def test_renderer_orders_atoms_first_then_sets_by_cardinality():
    value = frozenset(["b", "a", frozenset(), frozenset(["a", "b"]), frozenset(["c"])])
    assert reference.render(value) == "{a,b,{},{c},{a,b}}"


def test_reference_report_at_depth_three():
    report = reference.reproduce_report(("x1", "x2", "x3", "x4"), 3)
    assert report["omega_size"] == 16
    assert report["probability"] == "1/16"
    assert report["joint_set"] == "{{x1}}"
    assert report["annihilated_a"] == "{x1,{x1}}"
    assert report["passed"] and report["agreement"]
    assert report["axiom_report"]["complement_closure"]["checked_count"] == 65536


def test_reference_report_past_the_sweep_bound():
    report = reference.reproduce_report(("a", "b", "c", "d"), 14)
    assert report["omega_size"] == 60
    assert report["axiom_report"] is None
    assert report["probability"] == "0" and report["joint_set"] == "{}"
    assert list(report["checks"]) == ["probability_consistent"]
    text = reference.reproduce_text(report)
    assert "axioms: skipped: |omega| = 60 exceeds the exhaustive sweep bound\n" in text
    assert text.endswith("check probability_consistent: PASS\nresult: PASS\n")


def test_distinctness_claims_from_expansion():
    lines = reference.distinctness_lines()
    assert len(lines) == 15
    assert any(
        line.startswith("('a', 'b', 'a', 'c'): adjacent_ok=True disjoint=False") for line in lines
    )


# -- checking an op's output ----------------------------------------------------


def _hardysets_main():
    sys.path.insert(0, str(run.SRC))
    from hardysets.cli import main

    return main


def test_every_workload_block_passes_its_reference_check():
    cli_main = _hardysets_main()
    rng = random.Random(7)
    cheap = {"reproduce-d3", "intersect-d14", "munion-d14", "reproduce-d14", "literal-vn12",
             "literal-vn13",
             "check-numerals", "check-quantum", "check-quadruples", "check-distinctness"}
    for workload in workloads.WORKLOADS.values():
        for op in workload.block(rng):
            if op.cls in cheap:
                _, problems, _ = run.run_op(cli_main, op)
                assert problems == [], (op.argv, problems)


def test_wrong_expected_value_counts_as_failure():
    cli_main = _hardysets_main()
    op = workloads._eval_op("munion-d5", "munion(vn(5,q01))", lambda: reference.vn_text(5, "q01"))
    loop = run.Loop()
    loop.run_block(cli_main, [op])
    assert len(loop.failures) == 1
    assert "output differs" in loop.failures[0]["problems"][0]
    values = run.end_to_end(loop, [0.1])
    assert values["success_rate"] == 0.0


def test_altered_report_is_caught():
    cli_main = _hardysets_main()
    labels = ("q01", "q02", "q03", "q04")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["reproduce", "--atoms", ",".join(labels), "--format", "machine"])
    report = out.getvalue()
    assert reference.reproduce_machine_problems(labels, 3, code, report) == []
    altered = report.replace('"1/16"', '"1/8"')
    assert altered != report
    problems = reference.reproduce_machine_problems(labels, 3, code, altered)
    assert problems and problems[0].startswith("probability:")
    assert reference.reproduce_machine_problems(labels, 3, 1, report) == ["exit code 1, expected 0"]


def test_raising_op_is_a_failure_not_a_crash():
    def boom(argv):
        raise RecursionError("maximum recursion depth exceeded")

    op = workloads._eval_op("deep-nesting", "zm(600,a)", lambda: "")
    _, problems, _ = run.run_op(boom, op)
    assert problems == ["raised RecursionError: maximum recursion depth exceeded"]


# -- percentile rule ------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile([3.0], 0.9) == 3.0


def test_trial_counts_are_log_spaced():
    assert workloads._trials(100, 1000, 3) == [100, 316, 1000]


def test_tail_needs_ten_samples_beyond():
    assert run.samples_beyond(100, 0.9) == 10
    assert run.samples_beyond(99, 0.9) == 9
    assert run.samples_beyond(60, 0.8) == 12
    assert run.samples_beyond(40, 0.8) == 8
    assert run.tail_q(1000) == 0.99
    assert run.tail_q(250) == 0.95
    assert run.tail_q(100) == 0.9
    assert run.tail_q(99) == 0.8


def test_headline_p50_is_depth_three_and_p90_depth_four():
    headline = list(workloads.HEADLINE_DEPTHS)
    for blocks in range(1, 12):
        ranked = sorted(headline * blocks)
        assert run.percentile(ranked, 0.5) == 3
        assert run.percentile(ranked, 0.9) == 4



# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["cli", 0.0, 10.0, None, 0],
        ["hfset.algebra", 1.0, 5.0, 0, 0],
        ["hfset.construct", 2.0, 3.0, 1, 0],
        ["hfset.construct", 6.0, 8.0, 0, 0],
    ]
    totals = spans.self_times(recorded)
    assert totals["cli"] == [1, 10.0 - 4.0 - 2.0]
    assert totals["hfset.algebra"] == [1, 4.0 - 1.0]
    assert totals["hfset.construct"] == [2, 3.0]


def test_tracer_counts_calls_and_restores_originals():
    cli_main = _hardysets_main()
    import hardysets.cli
    import hardysets.hfset

    original_intersect = hardysets.hfset.intersect
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli", cli_main)
    tracer.install()
    try:
        tracer.begin_op(0, "reproduce-d3")
        code = traced_main(["reproduce", "--format", "machine"])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    assert hardysets.hfset.intersect is original_intersect
    assert hardysets.cli.intersect is original_intersect
    totals = {name: v for (_, name), v in tracer.layer_totals.items()}
    assert totals["hardy.annihilate"][0] == 6
    assert totals["cli"][0] == 1
    assert tracer.counter_totals[("reproduce-d3", "probability.event_table.events")] == 65536
    traced = run.Loop()
    traced.classes = ["reproduce-d3"]
    row = run.class_rows(tracer, traced)["reproduce-d3"]
    assert row["hardy.annihilate.calls"] == 6
    assert row["probability.event_table.events"] == 65536
