import random
import time
from fractions import Fraction

import pytest

from hardysets import (
    AtomOperand,
    AtomQuadruple,
    DuplicateElement,
    EmptySampleSpace,
    Event,
    IndexOutOfRange,
    NotAnEvent,
    ProbabilityTriple,
    SampleSpaceTooLarge,
    atom,
    build_model,
    complement,
    empty,
    event_from_set,
    field_size_log2,
    full_event,
    intersect,
    intersect_events,
    prob,
    set_of,
    uniform_triple,
    union_events,
    verify_axioms,
    von_neumann,
    zermelo,
)
from hardysets.probability import all_event_masses, all_event_probabilities, mass


@pytest.fixture(scope="module")
def hardy_triple():
    return build_model(AtomQuadruple("x1", "x2", "x3", "x4"), 3).triple


def distinct_elements(n):
    return [von_neumann(i, atom("e")) for i in range(n)]


def test_uniform_weights_sixteen(hardy_triple):
    assert hardy_triple.size == 16
    assert all(w == Fraction(1, 16) for w in hardy_triple.weights)


def test_singleton_triple():
    t = uniform_triple([empty()])
    assert t.weights == (Fraction(1),)
    assert prob(full_event(t), t) == 1


def test_duplicate_elements_rejected():
    with pytest.raises(DuplicateElement) as exc:
        uniform_triple([empty(), empty()])
    assert "{}" in str(exc.value)


def test_empty_sample_space_rejected():
    with pytest.raises(EmptySampleSpace):
        uniform_triple([])


def test_float_weights_rejected():
    with pytest.raises(TypeError):
        ProbabilityTriple([empty()], [1.0])


def test_weights_must_sum_to_one():
    elems = distinct_elements(2)
    with pytest.raises(ValueError):
        ProbabilityTriple(elems, [Fraction(1, 2), Fraction(1, 3)])


def test_nonuniform_weights_supported():
    elems = distinct_elements(3)
    t = ProbabilityTriple(elems, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert prob(full_event(t), t) == 1
    assert sorted(t.weights) == [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]


@pytest.mark.parametrize(
    "weights, denominator",
    [
        ((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)), 6),
        ((Fraction(1, 4), Fraction(1, 4), Fraction(1, 6), Fraction(1, 3)), 12),
    ],
    ids=["L=6", "L=12"],
)
def test_mixed_denominators_match_fraction_sums(weights, denominator):
    elems = distinct_elements(len(weights))
    t = ProbabilityTriple(elems, weights)
    assert t.denominator == denominator
    for e, w in zip(elems, weights):
        stored = t.weights[t.index_of(e)]
        assert type(stored) is Fraction and stored == w
    table = all_event_probabilities(t)
    masses = all_event_masses(t)
    for m in range(t.full_mask + 1):
        expected = sum((w for i, w in enumerate(t.weights) if m >> i & 1), Fraction(0))
        assert prob(Event(m), t) == expected
        assert table[m] == expected
        assert Fraction(mass(Event(m), t), denominator) == expected
        assert Fraction(masses[m], denominator) == expected


@pytest.mark.parametrize(
    "last, total",
    [(Fraction(1, 4), "11/12"), (Fraction(5, 12), "13/12")],
    ids=["L-1", "L+1"],
)
def test_numerators_off_by_one_rejected(last, total):
    # Numerators over L = 12 are 3, 3, 2 and then 3 or 5: they sum to L - 1 or L + 1.
    weights = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 6), last]
    with pytest.raises(ValueError, match=f"sum to exactly 1, got {total}$"):
        ProbabilityTriple(distinct_elements(4), weights)


def test_event_from_set_examples(hardy_triple):
    d2 = zermelo(2, atom("x1"))
    assert event_from_set(d2, hardy_triple).count == 1
    assert event_from_set(empty(), hardy_triple).count == 0
    c2 = von_neumann(2, atom("x1"))
    e = event_from_set(c2, hardy_triple)
    assert e.count == 2
    assert prob(e, hardy_triple) == Fraction(1, 8)


def test_event_from_set_reports_missing_members(hardy_triple):
    probe = set_of([atom("x5"), atom("x1")])
    with pytest.raises(NotAnEvent) as exc:
        event_from_set(probe, hardy_triple)
    assert exc.value.missing == ("x5",)


def test_event_from_set_rejects_atom(hardy_triple):
    with pytest.raises(AtomOperand):
        event_from_set(atom("x1"), hardy_triple)


def test_prob_bounds_and_complement(hardy_triple):
    t = hardy_triple
    assert prob(full_event(t), t) == 1
    assert prob(Event(0), t) == 0
    e = Event(0b1010)
    assert prob(e, t) + prob(complement(e, t), t) == 1


def test_event_ops():
    t = uniform_triple(distinct_elements(4))
    a, b = Event(0b0011), Event(0b0110)
    assert union_events(a, b).mask == 0b0111
    assert intersect_events(a, b).mask == 0b0010
    assert complement(Event(0), t) == full_event(t)
    assert union_events(a, complement(a, t)) == full_event(t)


def test_disjoint_additivity_exact():
    t = uniform_triple(distinct_elements(5))
    a, b = Event(0b00101), Event(0b11000)
    assert prob(union_events(a, b), t) == prob(a, t) + prob(b, t)


def test_index_out_of_range():
    t = uniform_triple(distinct_elements(3))
    with pytest.raises(IndexOutOfRange):
        prob(Event(0b1000), t)
    with pytest.raises(IndexOutOfRange):
        complement(Event(0b1000), t)


def test_field_size(hardy_triple):
    assert field_size_log2(hardy_triple) == 16


def test_verify_axioms_hardy(hardy_triple):
    report = verify_axioms(hardy_triple, 10000, 42)
    assert report.passed
    assert report.complement_closure.checked == 65536
    assert report.union_closure.checked == 10000
    assert report.union_closure.seed == 42
    assert report.to_dict()["complement_closure"]["checked_count"] == 65536


def test_verify_axioms_singleton():
    report = verify_axioms(uniform_triple([empty()]), 10, 0)
    assert report.passed
    assert report.complement_closure.checked == 2


def test_verify_axioms_deterministic(hardy_triple):
    a = verify_axioms(hardy_triple, 500, 7)
    b = verify_axioms(hardy_triple, 500, 7)
    assert a == b


def test_verify_axioms_size_bound():
    big = uniform_triple(distinct_elements(25))
    with pytest.raises(SampleSpaceTooLarge):
        verify_axioms(big, 10, 0)


# Field closure holds by construction, so the largest admitted space costs
# only the sampled measure bound, not a loop over its 2^24 events.
def test_verify_axioms_does_not_sweep_the_field():
    t = uniform_triple(distinct_elements(24))
    start = time.perf_counter()
    report = verify_axioms(t, 10000, 42)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.complement_closure.checked == 1 << 24
    assert elapsed < 0.5, f"verify_axioms took {elapsed:.3f}s at |omega| = 24"


def test_all_event_probabilities_table(hardy_triple):
    table = all_event_probabilities(hardy_triple)
    assert len(table) == 65536
    assert table[0] == 0
    assert table[hardy_triple.full_mask] == 1
    assert table[0b11] == Fraction(2, 16)


def test_monotonicity_seeded(hardy_triple):
    rng = random.Random(42)
    n = hardy_triple.size
    for _ in range(2000):
        a = rng.getrandbits(n)
        b = a | rng.getrandbits(n)
        assert prob(Event(a), hardy_triple) <= prob(Event(b), hardy_triple)


def test_additivity_seeded(hardy_triple):
    rng = random.Random(42)
    n = hardy_triple.size
    full = hardy_triple.full_mask
    for _ in range(2000):
        a = rng.getrandbits(n)
        b = rng.getrandbits(n) & ~a & full
        assert prob(Event(a | b), hardy_triple) == prob(Event(a), hardy_triple) + prob(
            Event(b), hardy_triple
        )


def test_event_from_set_intersection_homomorphism(hardy_triple):
    rng = random.Random(7)
    omega = hardy_triple.omega
    for _ in range(300):
        mask_a = rng.getrandbits(16)
        mask_b = rng.getrandbits(16)
        sa = set_of(omega[i] for i in Event(mask_a).indices())
        sb = set_of(omega[i] for i in Event(mask_b).indices())
        lhs = event_from_set(intersect(sa, sb), hardy_triple)
        rhs = intersect_events(
            event_from_set(sa, hardy_triple), event_from_set(sb, hardy_triple)
        )
        assert lhs == rhs
