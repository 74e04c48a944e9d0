"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they execute. Every numeric claim is exact-rational or carries an
explicit 1e-12 tolerance; timed criteria assert their wall-clock
budget.
"""

import json
import random
import time
from fractions import Fraction

from hardysets import (
    AtomQuadruple,
    annihilate,
    atom,
    build_model,
    distinctness_diagnostic,
    empty,
    hardy_probability,
    intersect,
    monadic_union,
    print_set,
    prob,
    run_double_mzi,
    verify_axioms,
    von_neumann,
    zermelo,
)
from hardysets.checks import check_algebra
from hardysets.cli import main
from hardysets.probability import all_event_probabilities

import expansion_oracle as oracle

TOL = 1e-12


def report(criterion, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {status} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_headline_reproduction(capsys):
    start = time.perf_counter()
    code = main(["reproduce", "--format", "machine"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    r = json.loads(out)
    ok = (
        code == 0
        and r["probability"] == "1/16"
        and r["omega_size"] == 16
        and r["field_size_log2"] == 16
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(
            1,
            "reproduce: probability 1/16, |omega| 16, field 2^16, exit 0",
            ok,
            f"{elapsed:.3f}s < 1s",
        )


def test_criterion_2_key_identity_over_random_quadruples():
    rng = random.Random(42)
    pool = [f"r{i}" for i in range(64)]
    start = time.perf_counter()
    bad = None
    for trial in range(1000):
        labels = rng.sample(pool, 4)
        model = build_model(AtomQuadruple(*labels), 3)
        joint = intersect(annihilate(model.hidden_a), annihilate(model.hidden_b))
        if joint != zermelo(2, atom(labels[0])):
            bad = (trial, labels)
            break
    elapsed = time.perf_counter() - start
    report(
        2,
        "joint residue equals the level-2 Zermelo numeral of x1 "
        "for 1000 seeded quadruples",
        bad is None and elapsed < 5.0,
        f"{elapsed:.3f}s < 5s" + (f", first failure {bad}" if bad else ""),
    )


def test_criterion_3_numeral_recurrences():
    start = time.perf_counter()
    failures = []
    for base in (None, atom("b")):
        for n in range(2, 11):
            vn_n, zm_n = von_neumann(n, base), zermelo(n, base)
            if monadic_union(vn_n) != von_neumann(n - 1, base):
                failures.append(f"munion vn {n}")
            if monadic_union(zm_n) != zermelo(n - 1, base):
                failures.append(f"munion zm {n}")
            if len(vn_n.children) != n or len(zm_n.children) != 1:
                failures.append(f"cardinality {n}")
            if n >= 3 and intersect(vn_n, zm_n) != empty():
                failures.append(f"disjointness {n}")
        c2, d2 = von_neumann(2, base), zermelo(2, base)
        if intersect(c2, d2) != d2:
            failures.append("level-2 intersection")
    elapsed = time.perf_counter() - start
    report(
        3,
        "numeral recurrences, cardinalities and disjointness for n in 2..10, "
        "both bases",
        not failures and elapsed < 5.0,
        f"{elapsed:.3f}s < 5s" + (f", failures {failures}" if failures else ""),
    )


def test_criterion_4_sigma_field_axioms():
    start = time.perf_counter()
    triple = build_model(AtomQuadruple("x1", "x2", "x3", "x4"), 3).triple
    axioms = verify_axioms(triple, 10000, 42)
    table = all_event_probabilities(triple)
    bounds_ok = all(0 <= p <= 1 for p in table)
    mass_ok = table[triple.full_mask] == 1

    rng = random.Random(42)
    full = triple.full_mask
    additivity_ok = True
    for _ in range(10000):
        a = rng.getrandbits(16)
        b = rng.getrandbits(16) & ~a & full
        if prob(a | b, triple) != prob(a, triple) + prob(b, triple):
            additivity_ok = False
            break
    elapsed = time.perf_counter() - start
    ok = (
        axioms.to_dict()["passed"] is True
        and axioms.events == 65536
        and bounds_ok
        and mass_ok
        and additivity_ok
        and elapsed < 30.0
    )
    report(
        4,
        "axioms on the 16-point space: omega in field, 65536 complement checks, "
        "P(omega)=1, bounds on all events, additivity on 10000 disjoint pairs",
        ok,
        f"{elapsed:.3f}s < 30s",
    )


def _depth_law_values():
    labels = ("x1", "x2", "x3", "x4")
    values = {}
    for depth in range(1, 9):
        oracle_p, oracle_omega, _ = oracle.joint_probability(labels, depth)
        result = hardy_probability(build_model(AtomQuadruple(*labels), depth))
        values[depth] = (oracle_p, oracle_omega, result.probability, result.omega_size)
    return values


def test_criterion_5_depth_law_oracle_agreement():
    values = _depth_law_values()
    mismatches = {
        k: v for k, v in values.items() if (v[0], v[1]) != (v[2], v[3])
    }
    report(
        5,
        "model probability and |omega| match the expansion oracle for depths 1..8",
        not mismatches,
        f"mismatches {mismatches}" if mismatches else "exact agreement",
    )


def test_criterion_5_depth_three_value():
    values = _depth_law_values()
    report(5, "depth 3 probability is exactly 1/16", values[3][2] == Fraction(1, 16))


def test_criterion_5_deep_depths_vanish():
    values = _depth_law_values()
    bad = [k for k in range(4, 9) if values[k][2] != 0]
    report(
        5,
        "probability is exactly 0 for depths 4..8",
        not bad,
        f"nonzero at {bad}" if bad else "",
    )


def test_criterion_5_depth_three_unique_quantum_match():
    values = _depth_law_values()
    p_dd = run_double_mzi().p("d", "d")
    matching = [k for k, v in values.items() if abs(float(v[2]) - p_dd) <= TOL]
    report(
        5,
        "depth 3 is the unique depth in 1..8 matching the quantum value",
        matching == [3],
        f"matching depths {matching}",
    )


def test_criterion_5_depth_two_formula_value():
    # Records where the cardinality formula |omega| = 2*(k+k+1+1) = 4k+4
    # breaks. Each wing has 2k+2 members and omega is the set of members of
    # their union, so |omega| = 4k+4 - |C∩D|; 4k+4 holds only where the
    # wings are disjoint, from depth 3 up. At depth 2 they share the four
    # level-1 numerals, so |omega| is 12 - 4 = 8 and the joint residue {x1}
    # has probability 1/8, not the disjoint-union extrapolation 1/12. The
    # package and the expansion oracle are held to the same law.
    k = 2
    labels = ("x1", "x2", "x3", "x4")
    oracle_p, oracle_omega, _ = oracle.joint_probability(labels, k)
    oracle_c, oracle_d = oracle.wings(labels, k)
    oracle_overlap = oracle_c & oracle_d
    model = build_model(AtomQuadruple(*labels), k)
    result = hardy_probability(model)
    overlap = intersect(model.c_set, model.d_set)
    wing_size = 2 * k + 2
    ok = (
        len(model.c_set.children) == len(model.d_set.children) == wing_size
        and len(oracle_c) == len(oracle_d) == wing_size
        and print_set(overlap) == "{{x1},{x2},{x3},{x4}}"
        and oracle_overlap == {oracle.zm(1, label) for label in labels}
        and result.omega_size == 4 * k + 4 - len(overlap.children) == 8
        and oracle_omega == 4 * k + 4 - len(oracle_overlap) == 8
        and result.probability == oracle_p == Fraction(1, 8)
    )
    report(
        5,
        "depth 2 |omega| is 4k+4 - |C∩D| = 12 - 4 = 8, not 4k+4: the wings "
        "share the level-1 numerals {{x1},{x2},{x3},{x4}}; probability 1/8, "
        "not the disjoint-union 1/12",
        ok,
        f"expansion oracle gives {oracle_p} with |omega|={oracle_omega} and "
        f"{len(oracle_overlap)} shared members, model gives "
        f"{result.probability} with |omega|={result.omega_size} and "
        f"C∩D={print_set(overlap)}",
    )


def test_criterion_6_quantum_oracle():
    start = time.perf_counter()
    dist = run_double_mzi()
    values_ok = (
        abs(dist.p("d", "d") - 0.0625) <= TOL
        and abs(dist.p_gamma - 0.25) <= TOL
        and abs(dist.total - 1.0) <= TOL
    )
    from hardysets.quantum import pipeline_stages, random_two_particle_state

    rng = random.Random(42)
    stages = pipeline_stages()
    worst = 0.0
    for _ in range(1000):
        state = random_two_particle_state(rng)
        for stage in stages:
            state = stage(state)
            worst = max(worst, abs(state.norm() - 1.0))
    elapsed = time.perf_counter() - start
    report(
        6,
        "quantum oracle: p_dd 0.0625, p_gamma 0.25, total 1, norms preserved "
        "for 1000 random states",
        values_ok and worst <= TOL and elapsed < 1.0,
        f"{elapsed:.3f}s < 1s, worst norm drift {worst:.2e}",
    )


def test_criterion_7_distinctness_gap():
    diag = distinctness_diagnostic(("a", "b", "a", "d"), 3)
    ok = (
        diag.satisfies_adjacent_conditions
        and not diag.c_d_disjoint
        and diag.exposes_gap
        and diag.diagonal_collisions == ((1, 3),)
    )
    report(
        7,
        "(a,b,a,d) satisfies the four adjacent inequalities yet the wings "
        "overlap, and the diagnostic reports it",
        ok,
        f"overlap size {diag.intersection_size}, |omega| {diag.omega_size}",
    )


def test_criterion_8_roundtrip_and_algebra_properties():
    first = check_algebra(seed=42, trials=1000)
    second = check_algebra(seed=42, trials=1000)
    report(
        8,
        "round-trip and boolean-algebra laws on 1000 seeded sets, deterministic",
        first.passed and second.passed and first.lines == second.lines,
    )
