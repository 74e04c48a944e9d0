"""The two-wing annihilation model and its exact joint probability.

Two "particle" sets are built from an atom quadruple (x1, x2, x3, x4):
the C wing unions the von Neumann numerals of x1, x2 with the Zermelo
numerals of x3, x4 at a given depth, and the D wing mirrors the roles
(von Neumann for x4, x3; Zermelo for x2, x1). The sample space is the
set of members of the union of both wings, carrying the uniform measure.
Each wing has 2k+2 members at depth k, so |omega| = 4k+4 - |C ∩ D|; the
wings are disjoint only from depth 3 up, and share the four atoms at
depth 1 and the four level-1 numerals {x1}, ..., {x4} at depth 2.

Annihilation is modeled by the monadic-union operator applied to the
hidden per-particle sets (the depth-level numerals of x1 in each wing);
intersecting the two annihilation residues and measuring the resulting
event yields the joint double-detection probability. At depth 3 the
space has 16 points and the probability is exactly 1/16.

Full pairwise distinctness of the quadruple is required, which is
strictly stronger than the four adjacent (cyclic) inequalities
x1 != x2, x2 != x3, x3 != x4, x4 != x1: a quadruple such as (a, b, a, d)
satisfies all four yet makes the wings overlap.
:func:`distinctness_diagnostic` exists to demonstrate exactly that gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .hfset import HfSet, atom, intersect, monadic_union, unite
from .numerals import von_neumann, zermelo
from .probability import (
    Event,
    NotAnEvent,
    ProbabilityTriple,
    event_from_set,
    prob,
    uniform_triple,
)

__all__ = [
    "AtomQuadruple",
    "DistinctnessReport",
    "HardyModel",
    "HardyResult",
    "NonDistinctAtoms",
    "annihilate",
    "build_model",
    "distinctness_diagnostic",
    "field_membership_report",
    "hardy_probability",
    "intersection_identity_check",
]

# 1-based position pairs: the four adjacent (cyclic) pairs are the ones the
# construction's stated side conditions cover; the two diagonal pairs are the
# extra ones full disjointness actually needs.
_ADJACENT_PAIRS = ((1, 2), (2, 3), (3, 4), (4, 1))
_DIAGONAL_PAIRS = ((1, 3), (2, 4))


class NonDistinctAtoms(ValueError):
    """The quadruple labels collide; carries the offending position pairs."""

    def __init__(self, collisions: Sequence[tuple[int, int, str]]) -> None:
        self.collisions = tuple(collisions)
        parts = []
        for i, j, label in self.collisions:
            kind = (
                "violates the adjacent distinctness conditions"
                if _norm_pair(i, j) in _ADJACENT_PAIRS
                else "a diagonal pair outside the four adjacent conditions, "
                "still required for wing disjointness"
            )
            parts.append(f"(x{i},x{j}) share {label!r} ({kind})")
        super().__init__("non-distinct atom quadruple: " + "; ".join(parts))


def _norm_pair(i: int, j: int) -> tuple[int, int]:
    pair = (i, j) if i < j else (j, i)
    return pair if pair != (1, 4) else (4, 1)


@dataclass(frozen=True)
class AtomQuadruple:
    x1: str
    x2: str
    x3: str
    x4: str

    @property
    def labels(self) -> tuple[str, str, str, str]:
        return (self.x1, self.x2, self.x3, self.x4)


@dataclass(frozen=True)
class HardyModel:
    quad: AtomQuadruple
    depth: int
    c_set: HfSet
    d_set: HfSet
    triple: ProbabilityTriple
    hidden_a: HfSet
    hidden_b: HfSet


@dataclass(frozen=True)
class HardyResult:
    annihilated_a: HfSet
    annihilated_b: HfSet
    joint_set: HfSet
    joint_event: Event
    probability: Fraction
    omega_size: int


@dataclass(frozen=True)
class DistinctnessReport:
    """Outcome of building the wings from a possibly-colliding quadruple."""

    labels: tuple[str, str, str, str]
    depth: int
    adjacent_collisions: tuple[tuple[int, int], ...]
    diagonal_collisions: tuple[tuple[int, int], ...]
    c_d_disjoint: bool
    intersection_size: int
    omega_size: int

    @property
    def satisfies_adjacent_conditions(self) -> bool:
        return not self.adjacent_collisions

    @property
    def exposes_gap(self) -> bool:
        """True when the four adjacent conditions hold yet the wings overlap."""
        return self.satisfies_adjacent_conditions and not self.c_d_disjoint


def _collisions(labels: Sequence[str]) -> list[tuple[int, int, str]]:
    found = []
    for i, j in _ADJACENT_PAIRS + _DIAGONAL_PAIRS:
        if labels[i - 1] == labels[j - 1]:
            found.append((i, j, labels[i - 1]))
    return found


def _wings(labels: Sequence[str], depth: int) -> tuple[HfSet, HfSet]:
    a1, a2, a3, a4 = (atom(label) for label in labels)
    c_set = unite(
        unite(von_neumann(depth, a1), von_neumann(depth, a2)),
        unite(zermelo(depth, a3), zermelo(depth, a4)),
    )
    d_set = unite(
        unite(von_neumann(depth, a4), von_neumann(depth, a3)),
        unite(zermelo(depth, a2), zermelo(depth, a1)),
    )
    return c_set, d_set


def build_model(quad: AtomQuadruple, depth: int) -> HardyModel:
    """Construct wings, sample space, uniform triple and hidden sets.

    Requires depth >= 1 and a fully pairwise-distinct quadruple; the
    error for colliding labels distinguishes adjacent-pair violations
    from the diagonal pairs the stated side conditions fail to cover.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    collisions = _collisions(quad.labels)
    if collisions:
        raise NonDistinctAtoms(collisions)
    c_set, d_set = _wings(quad.labels, depth)
    triple = uniform_triple(unite(c_set, d_set).children)
    return HardyModel(
        quad=quad,
        depth=depth,
        c_set=c_set,
        d_set=d_set,
        triple=triple,
        hidden_a=von_neumann(depth, atom(quad.x1)),
        hidden_b=zermelo(depth, atom(quad.x1)),
    )


def annihilate(s: HfSet) -> HfSet:
    """Annihilation residue of a set: its monadic union."""
    return monadic_union(s)


def hardy_probability(m: HardyModel) -> HardyResult:
    """Joint probability of both annihilation residues, exactly.

    The residues' intersection is mapped to an event over the model's
    sample space; a residue member outside the space would indicate an
    internally inconsistent model and surfaces as :class:`NotAnEvent`.
    """
    annihilated_a = annihilate(m.hidden_a)
    annihilated_b = annihilate(m.hidden_b)
    joint_set = intersect(annihilated_a, annihilated_b)
    joint_event = event_from_set(joint_set, m.triple)
    probability = prob(joint_event, m.triple)
    return HardyResult(
        annihilated_a=annihilated_a,
        annihilated_b=annihilated_b,
        joint_set=joint_set,
        joint_event=joint_event,
        probability=probability,
        omega_size=m.triple.size,
    )


def intersection_identity_check(m: HardyModel, result: HardyResult) -> bool:
    """True iff the joint residue equals the level-2 Zermelo numeral of x1.

    ``result`` is ``hardy_probability(m)``. Holds at depth 3, where the
    residues are the level-2 numerals of x1 and their intersection is
    {{x1}}; false at other depths (the joint residue is empty at depth
    >= 4 and is {x1} at depth 2).
    """
    return result.joint_set == zermelo(2, atom(m.quad.x1))


def field_membership_report(m: HardyModel, result: HardyResult) -> list[tuple[str, bool]]:
    """Whether the model's distinguished sets denote events of the triple.

    ``result`` is ``hardy_probability(m)``. Probes the level-2 numerals
    of all four atoms and both annihilation residues; their intersection
    is an event because ``result`` holds its event. Every entry is true
    for a depth-3 model.
    """
    probes: list[tuple[str, HfSet]] = []
    for label in m.quad.labels:
        probes.append((f"vn(2,{label})", von_neumann(2, atom(label))))
    for label in m.quad.labels:
        probes.append((f"zm(2,{label})", zermelo(2, atom(label))))
    probes.append(("munion(hidden_a)", result.annihilated_a))
    probes.append(("munion(hidden_b)", result.annihilated_b))

    report = []
    for name, s in probes:
        try:
            event_from_set(s, m.triple)
            report.append((name, True))
        except NotAnEvent:
            report.append((name, False))
    # hardy_probability raises NotAnEvent for a joint set that is not an event.
    report.append(("joint", True))
    return report


def distinctness_diagnostic(labels: Iterable[str], depth: int) -> DistinctnessReport:
    """Build the wings from an arbitrary quadruple and report the outcome.

    Unlike :func:`build_model` this never rejects collisions; it records
    which adjacent and diagonal pairs collide, whether the wings are
    disjoint, and the resulting sample-space size. Its point is the
    counterexample family (a, b, a, d): all four adjacent conditions
    hold, yet the wings share the entire numeral tower of the repeated
    atom.
    """
    quad = tuple(labels)
    if len(quad) != 4:
        raise ValueError("expected exactly four atom labels")
    collisions = _collisions(quad)
    adjacent = tuple(
        (i, j) for i, j, _ in collisions if _norm_pair(i, j) in _ADJACENT_PAIRS
    )
    diagonal = tuple(
        (i, j) for i, j, _ in collisions if _norm_pair(i, j) in _DIAGONAL_PAIRS
    )
    c_set, d_set = _wings(quad, depth)
    overlap = intersect(c_set, d_set)
    omega = unite(c_set, d_set)
    return DistinctnessReport(
        labels=quad,  # type: ignore[arg-type]
        depth=depth,
        adjacent_collisions=adjacent,
        diagonal_collisions=diagonal,
        c_d_disjoint=len(overlap.children) == 0,
        intersection_size=len(overlap.children),
        omega_size=len(omega.children),
    )
