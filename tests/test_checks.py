"""Failure reporting of the seeded check suites."""

import random

import pytest

from hardysets import checks, empty, print_set


def algebra_sets(seed):
    rng = random.Random(seed)
    return [checks.random_hfset(rng) for _ in range(1000)]


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
