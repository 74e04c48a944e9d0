"""Failure reporting of the seeded check suites."""

import random

import pytest

from hardysets import (
    AtomQuadruple,
    atom,
    build_model,
    checks,
    empty,
    hardy,
    intersect,
    print_set,
    probability,
    quantum,
    rank,
    set_of,
    unite,
    von_neumann,
    zermelo,
)


def algebra_sets(seed):
    rng = random.Random(seed)
    return [checks.random_hfset(rng) for _ in range(1000)]


DRAW_ATOMS = ("a", "b", "c", "d", "e")


def recursive_random_hfset(rng):
    """The draw as a recursion: each member is drawn whole before the next."""

    def node(budget):
        if budget == 0 or rng.random() < 0.3:
            if rng.random() < 0.7:
                return atom(rng.choice(DRAW_ATOMS))
            return empty()
        k = rng.randint(0, 5)
        return set_of(node(budget - 1) for _ in range(k))

    return set_of(node(4) for _ in range(rng.randint(0, 5)))


# The ids keep the "<seed>-shape0" form of the cases from when the draw
# took a shape as parameters: shape0 was the default, now the only shape.
@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3], ids=lambda seed: f"{seed}-shape0")
def test_random_hfset_draws_as_the_recursion_does(seed):
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert checks.random_hfset(ours) is recursive_random_hfset(reference)
    assert ours.random() == reference.random()


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_random_hfset_stays_in_its_shape(seed):
    # Rank at most 5, at most 5 members per set node, atoms a to e, and
    # the drawn value itself a set.
    rng = random.Random(seed)
    atoms = {atom(label) for label in DRAW_ATOMS}
    for _ in range(1000):
        s = checks.random_hfset(rng)
        assert not s.is_atom and rank(s) <= 5
        stack = [s]
        while stack:
            node = stack.pop()
            assert len(node.children) <= 5
            for c in node.children:
                if c.is_atom:
                    assert c in atoms
                else:
                    stack.append(c)


@pytest.mark.parametrize("seed", [7, 42])
def test_random_hfset_draws_the_algebra_input_as_the_recursion_does(seed):
    # The whole input of check_algebra(seed): its 1000 sets, each the node
    # the recursion draws, and the stream left in the same place.
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(1000):
        assert checks.random_hfset(ours) is recursive_random_hfset(reference)
    assert ours.random() == reference.random()


def first_argument(x, y):
    return x


@pytest.mark.parametrize(
    "name, broken, first_failure",
    [
        ("unite", first_argument, "union not commutative: {0} {1}"),
        ("intersect", first_argument, "intersection not commutative: {0} {1}"),
        ("parse_set", lambda text: empty(), "round trip failed for {0}"),
    ],
    ids=["unite", "intersect", "parse_set"],
)
def test_algebra_failure_prints_operands(monkeypatch, name, broken, first_failure):
    sets = algebra_sets(42)
    assert sets[0] != sets[1] and sets[0] != empty()
    monkeypatch.setattr(checks, name, broken)
    out = checks.check_algebra(seed=42, trials=1000)
    failed = [line for line in out.lines if line.startswith("FAIL ")]
    assert not out.passed
    assert len(failed) == 5
    assert failed[0] == "FAIL " + first_failure.format(print_set(sets[0]), print_set(sets[1]))


def union_dropping_a_greatest_member(x, y):
    """Commutative, and the union when neither operand has more than five
    members, as no drawn set has; past that it drops the greatest member.
    So it is not associative."""
    u = unite(x, y)
    if max(len(x.children), len(y.children)) <= 5:
        return u
    return set_of(u.children[:-1])


def intersection_or_smaller_operand(x, y):
    """Commutative and idempotent, but not associative: the smaller operand
    when the sizes differ by exactly one, else the intersection."""
    if abs(len(x.children) - len(y.children)) == 1:
        return min(x, y, key=lambda s: len(s.children))
    return intersect(x, y)


@pytest.mark.parametrize(
    "name, broken, law",
    [
        ("unite", union_dropping_a_greatest_member, "union not associative"),
        ("intersect", intersection_or_smaller_operand, "intersection not associative"),
    ],
    ids=["unite", "intersect"],
)
def test_algebra_associativity_can_fail(monkeypatch, name, broken, law):
    # The suite computes A∪B, A∩B and (A∪B)∪X once per pair and shares
    # them between laws; a commutative operation that is not associative
    # must still fail the associativity law.
    monkeypatch.setattr(checks, name, broken)
    out = checks.check_algebra(seed=42, trials=1000)
    failed = [line for line in out.lines if line.startswith("FAIL ")]
    assert not out.passed
    assert not any("commutative" in line for line in failed)
    assert failed[0].startswith(f"FAIL {law}: ")


def wings_from_whole_towers(swap):
    """``hardy._wings`` as the construction states it, from all eight towers
    built whole; with ``swap``, the D wing takes x2's von Neumann tower in
    place of its Zermelo tower."""

    def wings(labels, depth):
        a1, a2, a3, a4 = (atom(label) for label in labels)
        vn1, vn2, vn3, vn4 = (von_neumann(depth, a) for a in (a1, a2, a3, a4))
        zm1, zm2, zm3, zm4 = (zermelo(depth, a) for a in (a1, a2, a3, a4))
        c_set = set_of(vn1.children + vn2.children + zm3.children + zm4.children)
        d_x2 = vn2 if swap else zm2
        d_set = set_of(vn4.children + vn3.children + d_x2.children + zm1.children)
        return c_set, d_set, vn1, zm1

    return wings


@pytest.mark.parametrize("swap", [False, True], ids=["whole-towers", "swapped-tower"])
def test_quadruples_fails_on_a_swapped_tower(monkeypatch, swap):
    monkeypatch.setattr(hardy, "_wings", wings_from_whole_towers(swap))
    out = checks.check_quadruples(seed=42, trials=20)
    failed = [line for line in out.lines if line.startswith("FAIL ")]
    if not swap:
        assert out.passed and not failed
    else:
        assert not out.passed
        assert len(failed) == 5
        assert all(line.startswith(f"FAIL trial {i}: labels ") for i, line in enumerate(failed))


BOUND_FAIL = "FAIL 0 <= P(X) <= 1 for all events"
TOTAL_FAIL = "FAIL P(omega) == 1 exactly"


def complement_fail(mask):
    return f"FAIL P(E) + P(complement) == 1 for all 65536 events (first failure mask={mask:#x})"


def corrupt_axiom_table(monkeypatch, change):
    """Make the axioms suite read a table that ``change`` edits in place."""
    real = checks.all_event_masses

    def corrupted(t):
        masses = real(t)
        change(masses)
        return masses

    monkeypatch.setattr(checks, "all_event_masses", corrupted)
    return corrupted


@pytest.mark.parametrize("corrupt", [(0xFFF0,), (0x0003, 0xFFF0), (0x8000,), (0xFFFF,)])
def test_axioms_complement_failure_names_the_lowest_mask(monkeypatch, corrupt):
    def bump(masses):
        for m in corrupt:
            masses[m] += 1

    corrupted = corrupt_axiom_table(monkeypatch, bump)
    out = checks.check_axioms(seed=42, trials=10)
    t = build_model(AtomQuadruple("x1", "x2", "x3", "x4"), 3).triple
    masses, full = corrupted(t), t.full_mask
    # The first failure of the loop over every mask, as the suite once ran it.
    first = next(m for m in range(full + 1) if masses[m] + masses[full ^ m] != t.denominator)
    assert first == min(min(m, full ^ m) for m in corrupt)
    failed = [line for line in out.lines if line.startswith("FAIL ")]
    # Only the bump at the full mask takes a mass past L, and P(omega) with it.
    table_fails = [BOUND_FAIL, TOTAL_FAIL] if full in corrupt else []
    assert failed == [*table_fails, complement_fail(first)]


# The depth-3 triple has L = 16, so 17 is L + 1.
@pytest.mark.parametrize(
    "mask, value, expected",
    [
        (0x0000, -1, [BOUND_FAIL, complement_fail(0x0)]),
        (0x0421, -1, [BOUND_FAIL, complement_fail(0x421)]),
        (0xFFFF, 17, [BOUND_FAIL, TOTAL_FAIL, complement_fail(0x0)]),
    ],
    ids=["negative-empty", "negative-inner", "full-is-L+1"],
)
def test_axioms_bound_and_total_read_from_the_table(monkeypatch, mask, value, expected):
    # verify_axioms states the bound and the total; the suite tests them on
    # its table, so a corrupted table fails them, in suite order.
    def change(masses):
        masses[mask] = value

    corrupt_axiom_table(monkeypatch, change)
    out = checks.check_axioms(seed=42, trials=10)
    assert not out.passed
    assert [line for line in out.lines if line.startswith("FAIL ")] == expected


def test_axioms_suite_builds_one_event_table(monkeypatch):
    built = []
    real = probability._subset_sums

    def counted(numerators):
        built.append(len(numerators))
        return real(numerators)

    # The depth-3 triple is uniform, so its constructor builds no table.
    monkeypatch.setattr(probability, "_subset_sums", counted)
    out = checks.check_axioms(seed=7, trials=10)
    assert out.passed
    assert built == [16]


def test_axioms_suite_reads_its_counts_from_the_report(monkeypatch):
    # The suite's argument lines print what the report holds, not constants.
    report = probability.AxiomReport(7, 3, 0)
    monkeypatch.setattr(checks, "verify_axioms", lambda t, samples, seed: report)
    out = checks.check_axioms(seed=42, trials=10)
    assert "ok   complement closure over 7 events" in out.lines
    assert "ok   union closure on 3 sampled pairs" in out.lines


def test_check_outcome_fail_asks_to_stop_from_the_fifth_failure():
    out = checks.CheckOutcome()
    out.expect(True, "holds")
    assert out.passed and out.lines == ["ok   holds"]
    assert [out.fail(f"law {i}") for i in range(1, 7)] == [False] * 4 + [True] * 2
    assert not out.passed
    assert out.lines[1:] == [f"FAIL law {i}" for i in range(1, 7)]


def assert_only_the_drift_line_fails(monkeypatch, name, fault):
    """``check_quantum`` with ``quantum.<name>`` replaced by ``fault`` in the sweep.

    The headline values come from the real oracle, run before the patch,
    so only the drift line can fail.
    """
    dist = quantum.run_double_mzi()
    monkeypatch.setattr(checks, "run_double_mzi", lambda: dist)
    monkeypatch.setattr(quantum, name, fault)
    out = checks.check_quantum(seed=42, trials=100)
    failed = [line for line in out.lines if line.startswith("FAIL ")]
    assert len(failed) == 1
    assert failed[0].startswith(
        "FAIL norm drift <= 1e-12 across stages for 100 random states (worst ")


def test_quantum_drift_line_fails_when_annihilation_loses_amplitude(monkeypatch):
    # The sweep's annihilation kernel drops the (u, u) amplitude instead of
    # moving it to gamma.
    def lossy(amps):
        amps[quantum._UU] = 0.0

    assert_only_the_drift_line_fails(monkeypatch, "_annihilate", lossy)


def test_quantum_drift_line_fails_when_a_splitter_is_not_unitary(monkeypatch):
    assert_only_the_drift_line_fails(monkeypatch, "_SPLIT", quantum._SPLIT * (1 + 1e-9))
