import random
from fractions import Fraction

import pytest

from hardysets import (
    AtomQuadruple,
    NonDistinctAtoms,
    annihilate,
    atom,
    build_model,
    distinctness_diagnostic,
    empty,
    field_membership_report,
    hardy_probability,
    intersect,
    intersection_identity_check,
    set_of,
    unite,
    von_neumann,
    zermelo,
)
from hardysets.checks import _partition_quadruples
from hardysets.hardy import _wings

import expansion_oracle as oracle


STANDARD = AtomQuadruple("x1", "x2", "x3", "x4")
ADJACENT = "violates the adjacent distinctness conditions"
DIAGONAL = (
    "a diagonal pair outside the four adjacent conditions, "
    "still required for wing disjointness"
)


@pytest.fixture(scope="module")
def model():
    return build_model(STANDARD, 3)


def test_depth_three_quantities(model):
    result = hardy_probability(model)
    assert result.omega_size == 16
    assert result.probability == Fraction(1, 16)
    assert result.joint_event.bit_count() == 1


def test_wings_disjoint_at_depth_three(model):
    assert intersect(model.c_set, model.d_set) == empty()


def test_hidden_sets_subset_and_disjoint(model):
    assert intersect(model.hidden_a, model.c_set) == model.hidden_a
    assert intersect(model.hidden_b, model.d_set) == model.hidden_b
    assert intersect(model.hidden_a, model.hidden_b) == empty()


def test_annihilation_residues(model):
    assert annihilate(model.hidden_a) == von_neumann(2, atom("x1"))
    assert annihilate(model.hidden_b) == zermelo(2, atom("x1"))
    assert annihilate(von_neumann(1, atom("x1"))) == empty()


def test_joint_set_is_level_two_zermelo(model):
    result = hardy_probability(model)
    assert result.joint_set == zermelo(2, atom("x1"))
    assert intersection_identity_check(model, result)


def test_identity_fails_at_other_depths():
    m4 = build_model(STANDARD, 4)
    assert not intersection_identity_check(m4, hardy_probability(m4))
    m2 = build_model(STANDARD, 2)
    assert not intersection_identity_check(m2, hardy_probability(m2))
    # at depth 2 the joint residue is the repeated atom's singleton tower base
    assert hardy_probability(m2).joint_set == set_of([atom("x1")])


# Depth quantities frozen from the expansion oracle: the naive cardinality
# formula 4k+4 holds only from depth 3 up, because below that the wings
# share members ({x1} lies in both) and the space shrinks.
DEPTH_EXPECTATIONS = {
    1: (Fraction(0), 4, False),
    2: (Fraction(1, 8), 8, False),
    3: (Fraction(1, 16), 16, True),
    4: (Fraction(0), 20, True),
    5: (Fraction(0), 24, True),
    6: (Fraction(0), 28, True),
    7: (Fraction(0), 32, True),
    8: (Fraction(0), 36, True),
}


@pytest.mark.parametrize("depth", sorted(DEPTH_EXPECTATIONS))
def test_depth_law_matches_expansion_oracle(depth):
    expected_p, expected_omega, expected_disjoint = DEPTH_EXPECTATIONS[depth]
    oracle_p, oracle_omega, oracle_disjoint = oracle.joint_probability(
        ("x1", "x2", "x3", "x4"), depth
    )
    assert (oracle_p, oracle_omega, oracle_disjoint) == (
        expected_p,
        expected_omega,
        expected_disjoint,
    )
    m = build_model(STANDARD, depth)
    result = hardy_probability(m)
    assert result.probability == expected_p
    assert result.omega_size == expected_omega
    assert (intersect(m.c_set, m.d_set) == empty()) == expected_disjoint


def test_non_distinct_adjacent_pair():
    with pytest.raises(NonDistinctAtoms) as exc:
        build_model(AtomQuadruple("a", "a", "c", "d"), 3)
    assert exc.value.collisions == ((1, 2, "a"),)
    assert str(exc.value) == f"non-distinct atom quadruple: (x1,x2) share 'a' ({ADJACENT})"


def test_non_distinct_diagonal_pair_named():
    with pytest.raises(NonDistinctAtoms) as exc:
        build_model(AtomQuadruple("x1", "x2", "x1", "x4"), 3)
    assert exc.value.collisions == ((1, 3, "x1"),)
    assert str(exc.value) == f"non-distinct atom quadruple: (x1,x3) share 'x1' ({DIAGONAL})"


@pytest.mark.parametrize("labels, collisions, adjacent, message", [
    ("abca", ((4, 1, "a"),), ((4, 1),), f"(x4,x1) share 'a' ({ADJACENT})"),
    ("aaba", ((1, 2, "a"), (4, 1, "a"), (2, 4, "a")), ((1, 2), (4, 1)),
     f"(x1,x2) share 'a' ({ADJACENT}); (x4,x1) share 'a' ({ADJACENT}); "
     f"(x2,x4) share 'a' ({DIAGONAL})"),
])
def test_non_distinct_wraparound_pair(labels, collisions, adjacent, message):
    # (x4,x1) is the adjacent pair whose indices run backwards.
    with pytest.raises(NonDistinctAtoms) as exc:
        build_model(AtomQuadruple(*labels), 3)
    assert exc.value.collisions == collisions
    assert str(exc.value) == "non-distinct atom quadruple: " + message
    assert distinctness_diagnostic(tuple(labels), 3).adjacent_collisions == adjacent


def test_depth_validation():
    with pytest.raises(ValueError):
        build_model(STANDARD, 0)


def test_field_membership_all_true_at_depth_three(model):
    report = field_membership_report(model, hardy_probability(model))
    assert len(report) == 11
    assert all(ok for _, ok in report)


def test_field_membership_partial_at_depth_four():
    m4 = build_model(STANDARD, 4)
    report = dict(field_membership_report(m4, hardy_probability(m4)))
    # the level-2 numerals stay events, but the Zermelo residue (a level-2
    # tower) is no longer made of sample points
    assert report["vn(2,x1)"]
    assert not report["munion(hidden_b)"]


@pytest.mark.parametrize("depth", [0, -1])
def test_diagnostic_depth_validation(construct_calls, depth):
    with pytest.raises(ValueError, match="^depth must be at least 1$"):
        distinctness_diagnostic(("diag_a", "diag_b", "diag_c", "diag_d"), depth)
    assert construct_calls == []


def test_diagnostic_gap_quadruple():
    report = distinctness_diagnostic(("a", "b", "a", "d"), 3)
    assert report.satisfies_adjacent_conditions
    assert report.diagonal_collisions == ((1, 3),)
    assert not report.c_d_disjoint
    assert report.exposes_gap
    assert report.intersection_size == 4
    assert report.omega_size == 12
    _, oracle_omega, oracle_disjoint = oracle.joint_probability(("a", "b", "a", "d"), 3)
    assert (oracle_omega, oracle_disjoint) == (12, False)


def test_diagnostic_distinct_quadruple():
    report = distinctness_diagnostic(("a", "b", "c", "d"), 3)
    assert report.c_d_disjoint
    assert report.omega_size == 16
    assert not report.exposes_gap


def test_diagnostic_flags_adjacent_violation():
    report = distinctness_diagnostic(("a", "a", "c", "d"), 3)
    assert report.adjacent_collisions == ((1, 2),)
    assert not report.satisfies_adjacent_conditions
    # an adjacent collision alone does not break wing disjointness
    assert report.c_d_disjoint


def test_label_permutation_covariance():
    base = hardy_probability(build_model(STANDARD, 3))
    renamed = hardy_probability(
        build_model(AtomQuadruple("delta", "gamma", "beta", "alpha_1"), 3)
    )
    assert renamed.probability == base.probability
    assert renamed.omega_size == base.omega_size


def test_random_quadruple_sweep_seeded():
    rng = random.Random(123)
    pool = [f"q{i}" for i in range(40)]
    for _ in range(200):
        labels = rng.sample(pool, 4)
        m = build_model(AtomQuadruple(*labels), 3)
        result = hardy_probability(m)
        assert result.omega_size == 16
        assert result.probability == Fraction(1, 16)
        assert intersect(m.c_set, m.d_set) == empty()
        assert result.joint_set == zermelo(2, atom(labels[0]))


@pytest.fixture
def annihilate_calls(monkeypatch):
    """Counts calls of ``hardy.annihilate`` made through the hardy module."""
    import hardysets.hardy

    calls = []
    original = hardysets.hardy.annihilate

    def counted(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(hardysets.hardy, "annihilate", counted)
    return calls


def test_reproduce_computes_the_residues_once(annihilate_calls, capsys):
    from hardysets.cli import main

    assert main(["reproduce"]) == 0
    capsys.readouterr()
    assert len(annihilate_calls) == 2


def test_quadruples_suite_computes_the_residues_once_per_trial(annihilate_calls, capsys):
    from hardysets.cli import main

    assert main(["check", "--suite", "quadruples", "--trials", "10"]) == 0
    capsys.readouterr()
    assert len(annihilate_calls) == 2 * 10


@pytest.mark.parametrize("depth", range(1, 9))
def test_fresh_model_creates_one_node_per_value(construct_calls, depth):
    # For x1, whose towers the model holds: the atom, vn levels 1..k and zm
    # levels 2..k (zm(1) is vn(1)). For x2, x3 and x4, only wing members:
    # the atom, vn levels 1..k-1 and zm levels 2..k-1. Then the two wings
    # and the sample space: 8k - 3 nodes. At depth 1 the wings are both the
    # set of the four atoms, which is also the sample space: 6 nodes.
    labels = (f"fresh{depth}_n{i}" for i in range(1, 5))
    model = build_model(AtomQuadruple(*labels), depth)
    assert len(construct_calls) == (6 if depth == 1 else 8 * depth - 3)
    assert model.triple.size == {1: 4, 2: 8}.get(depth, 4 * depth + 4)


@pytest.mark.parametrize("depth", range(1, 7))
def test_wings_equal_the_unions_of_the_towers(depth):
    for labels in _partition_quadruples():
        a1, a2, a3, a4 = (atom(label) for label in labels)
        c_set, d_set, vn_x1, zm_x1 = _wings(labels, depth)
        assert c_set is unite(
            unite(von_neumann(depth, a1), von_neumann(depth, a2)),
            unite(zermelo(depth, a3), zermelo(depth, a4)),
        )
        assert d_set is unite(
            unite(von_neumann(depth, a4), von_neumann(depth, a3)),
            unite(zermelo(depth, a2), zermelo(depth, a1)),
        )
        assert vn_x1 is von_neumann(depth, a1)
        assert zm_x1 is zermelo(depth, a1)


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_hidden_sets_are_the_numerals_of_x1(depth):
    m = build_model(STANDARD, depth)
    assert m.hidden_a is von_neumann(depth, atom("x1"))
    assert m.hidden_b is zermelo(depth, atom("x1"))
