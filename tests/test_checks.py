"""Failure reporting of the seeded check suites."""

import random

import pytest

from hardysets import AtomQuadruple, atom, build_model, checks, empty, print_set, set_of


def algebra_sets(seed):
    rng = random.Random(seed)
    return [checks.random_hfset(rng) for _ in range(1000)]


def recursive_random_hfset(rng, max_rank=5, max_breadth=5, atom_pool=("a", "b", "c", "d", "e")):
    """The draw as a recursion: each member is drawn whole before the next."""

    def node(budget):
        if budget == 0 or rng.random() < 0.3:
            if rng.random() < 0.7:
                return atom(rng.choice(atom_pool))
            return empty()
        k = rng.randint(0, max_breadth)
        return set_of(node(budget - 1) for _ in range(k))

    return set_of(node(max_rank - 1) for _ in range(rng.randint(0, max_breadth)))


@pytest.mark.parametrize("shape", [{}, {"max_rank": 1}, {"max_rank": 2, "max_breadth": 1},
                                   {"max_rank": 7, "max_breadth": 3}])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**40 + 3])
def test_random_hfset_draws_as_the_recursion_does(seed, shape):
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert checks.random_hfset(ours, **shape) is recursive_random_hfset(reference, **shape)
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


@pytest.mark.parametrize("corrupt", [(0xFFF0,), (0x0003, 0xFFF0), (0x8000,), (0xFFFF,)])
def test_axioms_complement_failure_names_the_lowest_mask(monkeypatch, corrupt):
    real = checks.all_event_masses

    def corrupted(t):
        masses = real(t)
        for m in corrupt:
            masses[m] += 1
        return masses

    monkeypatch.setattr(checks, "all_event_masses", corrupted)
    out = checks.check_axioms(seed=42, trials=10)
    t = build_model(AtomQuadruple("x1", "x2", "x3", "x4"), 3).triple
    masses, full = corrupted(t), t.full_mask
    # The first failure of the loop over every mask, as the suite once ran it.
    first = next(m for m in range(full + 1) if masses[m] + masses[full ^ m] != t.denominator)
    assert first == min(min(m, full ^ m) for m in corrupt)
    failed = [line for line in out.lines if line.startswith("FAIL ")]
    assert failed == [
        f"FAIL P(E) + P(complement) == 1 for all 65536 events (first failure mask={first:#x})"
    ]
