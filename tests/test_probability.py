import copy
import dataclasses
import pickle
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
from hardysets import probability
from hardysets.hfset import print_set
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


def test_negative_weights_rejected():
    # The weights sum to 1, so only the sign check can reject them.
    with pytest.raises(ValueError, match="^weights must be non-negative$"):
        ProbabilityTriple(distinct_elements(2), [Fraction(3, 2), Fraction(-1, 2)])


@pytest.mark.parametrize(
    "elements, weights, error, message",
    [
        ([empty(), empty()], [Fraction(3, 2), Fraction(-1, 2)], DuplicateElement, "duplicate"),
        ([empty(), atom("a")], [1.0, Fraction(-1)], TypeError, "not floats"),
        ([empty(), atom("a")], [Fraction(-1), Fraction(1, 2)], ValueError, "non-negative"),
        ([empty(), empty()], [1.5, Fraction(1)], TypeError, "not floats"),
    ],
    ids=["duplicate-before-sign", "float-before-sign", "sign-before-sum", "float-before-duplicate"],
)
def test_validation_precedence(elements, weights, error, message):
    with pytest.raises(error, match=message):
        ProbabilityTriple(elements, weights)


def test_int_and_string_weights_stored_as_fractions():
    t = ProbabilityTriple([empty()], [1])
    assert t.weights == (Fraction(1),) and type(t.weights[0]) is Fraction
    t = ProbabilityTriple(distinct_elements(3), ["1/3", "1/3", "1/3"])
    assert all(type(w) is Fraction and w == Fraction(1, 3) for w in t.weights)
    assert t.denominator == 3


def canonical_elements(n):
    """n distinct values in canonical order: atoms, then sets of several sizes."""
    pool = [atom(f"p{i}") for i in range(40)] + [zermelo(i) for i in range(1, 30)]
    pool += [von_neumann(i, atom("e")) for i in range(1, 16)]
    return set_of(pool[:n]).children


@pytest.mark.parametrize("n", [1, 8, 16, 84])
@pytest.mark.parametrize("weighting", ["uniform", "skewed"])
def test_canonical_and_shuffled_input_give_the_same_triple(weighting, n):
    elements = canonical_elements(n)
    assert len(elements) == n
    if weighting == "uniform":
        weights = [Fraction(1, n)] * n
    else:
        weights = [Fraction(i + 1, n * (n + 1) // 2) for i in range(n)]
    rng = random.Random(n)
    order = list(range(n))
    rng.shuffle(order)
    canonical = ProbabilityTriple(elements, weights)
    shuffled = ProbabilityTriple([elements[i] for i in order], [weights[i] for i in order])
    assert canonical.omega == shuffled.omega == elements
    assert canonical.weights == shuffled.weights == tuple(weights)
    assert canonical.denominator == shuffled.denominator
    for m in [0, canonical.full_mask] + [rng.getrandbits(n) for _ in range(200)]:
        assert mass(Event(m), canonical) == mass(Event(m), shuffled)


@pytest.mark.parametrize(
    "repeats",
    [(0, 0), (3,), (0, 3, 3), (7, 2)],
    ids=["adjacent", "appended", "twice", "two-values"],
)
def test_duplicates_in_canonical_input_rejected(repeats):
    # Canonical elements with some of them repeated: at the repeat, the keys
    # stop ascending, and the sorting path reports every repeated value once.
    base = canonical_elements(8)
    elements = sorted([*base, *(base[i] for i in repeats)], key=base.index)
    expected = sorted({print_set(base[i]) for i in repeats})
    weights = [Fraction(1, len(elements))] * len(elements)
    with pytest.raises(DuplicateElement) as exc:
        ProbabilityTriple(elements, weights)
    assert str(exc.value) == "duplicate sample-space elements: " + ", ".join(expected)


@pytest.mark.parametrize("n", range(1, 13))
def test_uniform_triple_equals_the_general_constructor(n):
    # Shuffled, so both constructors take their sorting path too.
    elements = list(canonical_elements(n))
    random.Random(n).shuffle(elements)
    uniform = uniform_triple(elements)
    general = ProbabilityTriple(elements, [Fraction(1, n)] * n)
    assert uniform.omega == general.omega == canonical_elements(n)
    assert uniform.weights == general.weights == (Fraction(1, n),) * n
    assert all(type(w) is Fraction for w in uniform.weights)
    assert uniform.denominator == general.denominator == n
    assert [uniform.index_of(e) for e in elements] == [general.index_of(e) for e in elements]
    assert uniform.index_of(atom("absent")) is general.index_of(atom("absent")) is None
    for m in range(1 << n):
        assert mass(Event(m), uniform) == mass(Event(m), general)


@pytest.mark.parametrize(
    "elements, error, message",
    [
        ([], EmptySampleSpace, "sample space must be non-empty"),
        ([empty(), atom("a"), empty()], DuplicateElement, "duplicate sample-space elements: {}"),
        (
            [atom("b"), empty(), atom("a"), empty(), atom("b")],
            DuplicateElement,
            "duplicate sample-space elements: b, {}",
        ),
        ([atom("a"), "{}"], TypeError, "sample-space elements must be HfSet values, got str"),
        (["{}", empty(), empty()], TypeError, "sample-space elements must be HfSet values, got str"),
    ],
    ids=["empty", "duplicated", "unsorted-duplicated", "non-hfset", "non-hfset-before-duplicate"],
)
def test_uniform_triple_raises_as_the_general_constructor(elements, error, message):
    n = len(elements)
    with pytest.raises(error) as from_uniform:
        uniform_triple(elements)
    with pytest.raises(error) as from_general:
        ProbabilityTriple(elements, [Fraction(1, max(n, 1))] * n)
    assert str(from_uniform.value) == str(from_general.value) == message


def test_event_value_semantics():
    a = Event(5)
    assert a == Event(5) and a is not Event(5) and not a != Event(5)
    assert a != Event(4) and a != 5 and a != (5,)
    assert hash(a) == hash((5,))
    assert {Event(5): "five"}[a] == "five"
    assert len({Event(1), Event(1), Event(2)}) == 2
    assert repr(a) == "Event(mask=5)"
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'mask'"):
        a.mask = 3
    # A name that is not a field cannot be set either; CPython 3.10 and
    # 3.11 raise TypeError rather than FrozenInstanceError for it on a
    # slotted frozen dataclass.
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        a.other = 3
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'mask'"):
        del a.mask
    assert a.mask == 5
    assert pickle.loads(pickle.dumps(a)) == a
    assert not hasattr(a, "__dict__")
    assert dataclasses.is_dataclass(a)
    assert [f.name for f in dataclasses.fields(Event)] == ["mask"]
    assert dataclasses.asdict(a) == {"mask": 5}
    assert dataclasses.replace(a, mask=2) == Event(2)
    with pytest.raises(ValueError, match="^event mask must be non-negative$"):
        dataclasses.replace(a, mask=-2)
    match a:
        case Event(m):
            assert m == 5
        case _:
            pytest.fail("Event did not match its positional pattern")
    with pytest.raises(ValueError, match="^event mask must be non-negative$"):
        Event(-1)
    e = Event.from_indices([5, 0, 2, 2])
    assert e == Event(0b100101) and e.count == 3 and e.indices() == (0, 2, 5)
    assert Event(0).count == 0 and Event(0).indices() == ()
    with pytest.raises(IndexOutOfRange, match="^negative event index -1$"):
        Event.from_indices([0, -1])


@pytest.mark.parametrize("n", [1, 8, 9, 20])
@pytest.mark.parametrize("weighting", ["uniform", "skewed"])
def test_mass_matches_brute_force_numerator_sum(weighting, n):
    # Skewed weights are 1, 2, ..., n over n(n+1)/2; at n = 1 that is uniform too.
    if weighting == "uniform":
        weights = [Fraction(1, n)] * n
    else:
        weights = [Fraction(i + 1, n * (n + 1) // 2) for i in range(n)]
    t = ProbabilityTriple(distinct_elements(n), weights)
    numerators = [w.numerator * (t.denominator // w.denominator) for w in t.weights]
    rng = random.Random(n)
    masks = [0, t.full_mask] + [rng.getrandbits(n) for _ in range(300)]
    for m in masks:
        expected = sum(numerators[i] for i in range(n) if m >> i & 1)
        assert mass(Event(m), t) == expected
        assert prob(Event(m), t) == Fraction(expected, t.denominator)


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


# The field and measure axioms hold by construction, so the largest admitted
# space costs no more than the smallest: no event of its 2^24 is measured.
def test_verify_axioms_does_not_sweep_the_field():
    t = uniform_triple(distinct_elements(24))
    start = time.perf_counter()
    report = verify_axioms(t, 10000, 42)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.complement_closure.checked == 1 << 24
    assert elapsed < 0.5, f"verify_axioms took {elapsed:.3f}s at |omega| = 24"


@pytest.mark.parametrize("n", [1, 16, 17, 24])
@pytest.mark.parametrize("weighting", ["uniform", "skewed"])
def test_verify_axioms_measures_no_event(monkeypatch, weighting, n):
    # The report states the constructor's invariant: it builds no event
    # table, samples no event and reads no mass.
    if weighting == "uniform":
        t = uniform_triple(distinct_elements(n))
    else:
        t = ProbabilityTriple(
            distinct_elements(n), [Fraction(i + 1, n * (n + 1) // 2) for i in range(n)]
        )

    def refuse(*args):
        raise AssertionError("verify_axioms measured an event")

    for name in ("all_event_masses", "mass", "_subset_sums"):
        monkeypatch.setattr(probability, name, refuse)
    for samples, seed in [(10000, 42), (3, -5)]:
        assert verify_axioms(t, samples, seed).to_dict() == {
            "omega_in_field": True,
            "complement_closure": {"checked_count": 1 << n, "failures": []},
            "union_closure": {"checked_count": samples, "seed": seed, "failures": []},
            "measure_bounds": True,
            "total_mass_is_one": True,
            "passed": True,
        }


@pytest.mark.parametrize(
    "name", ["omega", "weights", "denominator", "full_mask", *ProbabilityTriple.__slots__]
)
def test_triple_has_no_setters(hardy_triple, name):
    # With the constructor's sign and sum checks, this is why verify_axioms
    # may state the measure axioms instead of testing them.
    before = getattr(hardy_triple, name)
    with pytest.raises(AttributeError):
        setattr(hardy_triple, name, before)
    with pytest.raises(AttributeError):
        delattr(hardy_triple, name)
    assert not hasattr(hardy_triple, "__dict__")
    assert getattr(hardy_triple, name) == before


def test_private_slots_cannot_corrupt_the_measure():
    t = uniform_triple([atom("a"), atom("b")])
    with pytest.raises(AttributeError):
        t._numerators = (5, -3)
    with pytest.raises(AttributeError):
        t._uniform_numerator = -3
    assert mass(Event(1), t) == 1
    assert verify_axioms(t, 1, 0).passed


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize(
    "weights",
    [[Fraction(1, 10)] * 10, [Fraction(i, 55) for i in range(1, 11)]],
    ids=["uniform", "non-uniform"],
)
def test_triple_round_trips(clone, weights):
    # Ten elements, so a non-uniform triple has two subset-sum chunks.
    t = ProbabilityTriple([von_neumann(i) for i in range(10)], weights)
    u = clone(t)
    assert u is not t
    assert (u.omega, u.weights, u.denominator) == (t.omega, t.weights, t.denominator)
    assert [mass(Event(m), u) for m in range(1 << 10)] == all_event_masses(t)
    assert [u.index_of(e) for e in t.omega] == list(range(10))
    with pytest.raises(AttributeError):
        u._numerators = ()


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
