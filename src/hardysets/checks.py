"""Seeded invariant suites backing the `check` command.

:data:`SUITES` names the suites in the order `check` runs them; the CLI
holds their seed and trials defaults. Each suite returns a
:class:`CheckOutcome` of human-readable lines; failures carry a minimal
reproducing input. All suites are deterministic given (seed, trials);
the algebra suite draws its random sets in one fixed shape (:func:`random_hfset`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress, count
from operator import add

from .hfset import (
    HfSet,
    _canonical,
    _difference,
    atom,
    empty,
    intersect,
    member,
    monadic_union,
    parse_set,
    print_set,
    set_of,
    unite,
)
from .numerals import von_neumann, zermelo
from .probability import all_event_masses, event_from_set, mass, verify_axioms
from .hardy import (
    _HEADLINE_LABELS,
    AtomQuadruple,
    build_model,
    distinctness_diagnostic,
    hardy_probability,
    intersection_identity_check,
)
from .quantum import P_DD, TOLERANCE, max_norm_drift, run_double_mzi

__all__ = [
    "MAX_TRIALS",
    "CheckOutcome",
    "SUITES",
    "check_algebra",
    "check_axioms",
    "check_distinctness",
    "check_numerals",
    "check_quadruples",
    "check_quantum",
    "random_hfset",
]


# Largest `check --trials`. The algebra suite keeps max(trials, 1000) random
# sets alive, and the axioms and quadruples suites loop `trials` times, so
# time and memory grow with it; at this bound `check` of all suites takes
# about half a minute and a few hundred MiB (README, "Resource bounds").
MAX_TRIALS = 100_000

# Seeded pairs per sampled axiom check: at least this many in the axioms
# suite, and this many in `reproduce`.
_AXIOM_UNION_SAMPLES = 10000
_DRAW_RANK = 5
_DRAW_BREADTHS = range(6)
_DRAW_ATOMS = ("a", "b", "c", "d", "e")


@dataclass
class CheckOutcome:
    lines: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """A suite passes when none of its lines is a failure."""
        return not any(line.startswith("FAIL ") for line in self.lines)

    def ok(self, text: str) -> None:
        self.lines.append("ok   " + text)

    def fail(self, text: str) -> bool:
        """Record a failure; true once five are recorded, where a suite may stop."""
        self.lines.append("FAIL " + text)
        return sum(line.startswith("FAIL ") for line in self.lines) >= 5

    def expect(self, condition: bool, text: str) -> None:
        if condition:
            self.ok(text)
        else:
            self.fail(text)


def random_hfset(rng: random.Random) -> HfSet:
    """Random set node of the algebra suite: rank at most 5, at most 5
    members per set node, atoms ``a`` to ``e``, and only as members.

    Members are drawn depth first, in the order a recursive draw would
    take them, from an explicit stack of the sets still being drawn. A
    breadth is drawn as ``rng.choice(range(6))``, which consumes the
    stream exactly as ``rng.randint(0, 5)`` does. Every member is a node
    made here, so the set goes to the intern table without :func:`set_of`.
    """
    choice, uniform = rng.choice, rng.random
    atoms = [atom(label) for label in _DRAW_ATOMS]
    nothing = empty()
    # One frame per set being drawn: [rank budget of its members,
    # members drawn, members still to draw].
    stack = [[_DRAW_RANK - 1, [], choice(_DRAW_BREADTHS)]]
    while True:
        frame = stack[-1]
        budget, members, left = frame
        if not left:
            stack.pop()
            value = _canonical(members)
            if not stack:
                return value
            stack[-1][1].append(value)
        else:
            frame[2] = left - 1
            if budget == 0 or uniform() < 0.3:
                members.append(choice(atoms) if uniform() < 0.7 else nothing)
            else:
                stack.append([budget - 1, [], choice(_DRAW_BREADTHS)])


def check_numerals(seed: int, trials: int) -> CheckOutcome:
    """Numeral recurrences, cardinalities and disjointness for both bases."""
    out = CheckOutcome()
    for base_name, base in (("{}", empty()), ("atom q", atom("q"))):
        for n in range(2, 11):
            vn_n, vn_prev = von_neumann(n, base), von_neumann(n - 1, base)
            zm_n, zm_prev = zermelo(n, base), zermelo(n - 1, base)
            out.expect(
                monadic_union(vn_n) == vn_prev,
                f"munion(vn({n},{base_name})) == vn({n - 1},{base_name})",
            )
            out.expect(
                monadic_union(zm_n) == zm_prev,
                f"munion(zm({n},{base_name})) == zm({n - 1},{base_name})",
            )
            out.expect(len(vn_n.children) == n, f"|vn({n},{base_name})| == {n}")
            out.expect(len(zm_n.children) == 1, f"|zm({n},{base_name})| == 1")
            if n >= 3:
                out.expect(
                    intersect(vn_n, zm_n) == empty(),
                    f"vn({n},{base_name}) disjoint from zm({n},{base_name})",
                )
                # The numerals are also distinct as values from level 2 up.
                out.expect(vn_n != zm_n, f"vn({n}) != zm({n}) for base {base_name}")
        out.expect(
            von_neumann(1, base) == zermelo(1, base),
            f"vn(1,{base_name}) == zm(1,{base_name})",
        )
        c2, d2 = von_neumann(2, base), zermelo(2, base)
        out.expect(c2 != d2, f"vn(2,{base_name}) != zm(2,{base_name})")
        out.expect(
            intersect(c2, d2) == d2, f"vn(2,{base_name}) ∩ zm(2,{base_name}) == zm(2)"
        )
    # level-1 numerals of an atom have no set members to gather
    out.expect(
        monadic_union(von_neumann(1, atom("q"))) == empty(),
        "munion(vn(1,atom)) == {}",
    )
    out.expect(
        monadic_union(zermelo(1, atom("q"))) == empty(), "munion(zm(1,atom)) == {}"
    )
    # cross-base disjointness for distinct atoms
    for n in (1, 2, 3, 5, 8):
        out.expect(
            intersect(von_neumann(n, atom("x")), von_neumann(n, atom("y"))) == empty(),
            f"vn({n},x) disjoint from vn({n},y)",
        )
        out.expect(
            intersect(zermelo(n, atom("x")), zermelo(n, atom("y"))) == empty(),
            f"zm({n},x) disjoint from zm({n},y)",
        )
    return out


def check_axioms(seed: int, trials: int) -> CheckOutcome:
    """Field and measure axioms on the standard depth-3 sample space."""
    out = CheckOutcome()
    model = build_model(AtomQuadruple(*_HEADLINE_LABELS), 3)
    t = model.triple
    pairs = max(trials, _AXIOM_UNION_SAMPLES)
    report = verify_axioms(t, pairs, seed)
    out.ok("omega is an event")
    out.ok(f"complement closure over {report.events} events")
    out.ok(f"union closure on {report.union_samples} sampled pairs")

    # verify_axioms states the measure axioms from the constructor's
    # invariant; this suite tests them on the event table. Probabilities
    # are compared as integer masses over t.denominator.
    masses = all_event_masses(t)
    total = t.denominator
    full = t.full_mask
    out.expect(min(masses) >= 0 and max(masses) <= total, "0 <= P(X) <= 1 for all events")
    out.expect(masses[full] == total, "P(omega) == 1 exactly")

    # full ^ m runs from full down to 0 as m runs up, so the complement
    # masses are the table reversed.
    bad = next(compress(count(), map(total.__ne__, map(add, masses, reversed(masses)))), None)
    out.expect(
        bad is None,
        f"P(E) + P(complement) == 1 for all {full + 1} events"
        + (f" (first failure mask={bad:#x})" if bad is not None else ""),
    )

    rng = random.Random(seed)
    n = t.size
    additivity_bad = None
    for _ in range(pairs):
        a = rng.getrandbits(n)
        b = rng.getrandbits(n) & ~a & full
        if mass(a | b, t) != mass(a, t) + mass(b, t):
            additivity_bad = (a, b)
            break
    out.expect(
        additivity_bad is None,
        f"finite additivity on {pairs} seeded disjoint pairs"
        + (f" (failure a={additivity_bad[0]:#x} b={additivity_bad[1]:#x})"
           if additivity_bad else ""),
    )

    mono_bad = None
    for _ in range(pairs):
        a = rng.getrandbits(n)
        b = a | rng.getrandbits(n)
        if mass(a, t) > mass(b, t):
            mono_bad = (a, b)
            break
    out.expect(mono_bad is None, f"monotonicity on {pairs} seeded subset pairs")

    # event_from_set is an intersection homomorphism
    homo_bad = None
    for _ in range(200):
        mask_a = rng.getrandbits(n)
        mask_b = rng.getrandbits(n)
        set_a = set_of(e for i, e in enumerate(t.omega) if mask_a >> i & 1)
        set_b = set_of(e for i, e in enumerate(t.omega) if mask_b >> i & 1)
        lhs = event_from_set(intersect(set_a, set_b), t)
        rhs = event_from_set(set_a, t) & event_from_set(set_b, t)
        if lhs != rhs:
            homo_bad = (mask_a, mask_b)
            break
    out.expect(homo_bad is None, "event_from_set respects intersection (200 samples)")
    return out


def check_quadruples(seed: int, trials: int) -> CheckOutcome:
    """Random pairwise-distinct quadruples at depth 3: label independence."""
    out = CheckOutcome()
    rng = random.Random(seed)
    pool = [f"a{i}" for i in range(64)]
    for trial in range(trials):
        labels = rng.sample(pool, 4)
        model = build_model(AtomQuadruple(*labels), 3)
        result_ok = (
            model.triple.size == 16
            and intersect(model.c_set, model.d_set) == empty()
            and intersect(model.hidden_a, model.hidden_b) == empty()
            and intersect(model.hidden_a, model.c_set) == model.hidden_a
            and intersect(model.hidden_b, model.d_set) == model.hidden_b
        )
        result = hardy_probability(model)
        p = result.probability
        identity_ok = intersection_identity_check(model, result)
        if not (result_ok and identity_ok and p == P_DD) and out.fail(
            f"trial {trial}: labels {labels} p={p} identity={identity_ok}"
        ):
            break
    if out.passed:
        out.ok(
            f"{trials} random quadruples: |omega|=16, wings disjoint, "
            "joint residue == zm(2,x1), P == 1/16"
        )
    return out


def _partition_quadruples() -> list:
    """One representative quadruple per partition of the four positions.

    Enumerated as restricted growth strings, giving all 15 collision
    patterns from fully distinct to all equal.
    """
    return [tuple("abcd"[b] for b in (0, b2, b3, b4))
            for b2 in range(2) for b3 in range(b2 + 2) for b4 in range(max(b2, b3) + 2)]


def check_distinctness(seed: int, trials: int) -> CheckOutcome:
    """Collision survey: wing disjointness needs more than the adjacent conditions.

    At depth 3 the wings are disjoint exactly when the C-wing atoms
    {x1, x2} and the D-wing atoms {x3, x4} do not meet, so adjacent-pair
    collisions (x1=x2 or x3=x4) leave the wings disjoint while diagonal
    collisions break them.
    """
    out = CheckOutcome()
    for labels in _partition_quadruples():
        report = distinctness_diagnostic(labels, 3)
        expected_disjoint = not (set(labels[:2]) & set(labels[2:]))
        tag = ""
        if report.exposes_gap:
            tag = "  EXPECTED-NONDISJOINT (adjacent conditions hold, wings overlap)"
        out.expect(
            report.c_d_disjoint == expected_disjoint,
            f"{labels}: adjacent_ok={report.satisfies_adjacent_conditions} "
            f"disjoint={report.c_d_disjoint} |overlap|={report.intersection_size} "
            f"|omega|={report.omega_size}{tag}",
        )
    gap = distinctness_diagnostic(("a", "b", "a", "d"), 3)
    out.expect(
        gap.exposes_gap and gap.diagonal_collisions == ((1, 3),),
        "(a,b,a,d) satisfies all four adjacent conditions yet the wings overlap",
    )
    return out


def check_quantum(seed: int, trials: int) -> CheckOutcome:
    """Oracle values, distribution totals, and norm preservation.

    Every splitter is the oracle's one, Hardy's real balanced splitter.
    The norm sweep is ``quantum.max_norm_drift``: the ``trials`` random
    states are drawn from ``random.Random(seed)`` and pushed through the
    five stage kernels as arrays of ``quantum.DRIFT_CHUNK`` (1024) states
    at a time, so memory does not grow with ``trials``, and this module
    needs no numpy. Its worst drift is bit-identical to that of running
    ``pipeline_stages`` on each ``random_two_particle_state`` in turn.
    """
    out = CheckOutcome()
    dist = run_double_mzi()
    out.expect(abs(dist.p("d", "d") - P_DD) <= TOLERANCE, "p(d,d) == 0.0625")
    out.expect(abs(dist.p_gamma - 0.25) <= TOLERANCE, "p_gamma == 0.25")
    out.expect(abs(dist.total - 1.0) <= TOLERANCE, "outcome total == 1")

    worst = max_norm_drift(random.Random(seed), trials)
    out.expect(
        worst <= TOLERANCE,
        f"norm drift <= 1e-12 across stages for {trials} random states (worst {worst:.2e})",
    )

    model = build_model(AtomQuadruple(*_HEADLINE_LABELS), 3)
    p_classical = hardy_probability(model).probability
    out.expect(p_classical == P_DD, "exact model probability == 1/16")
    out.expect(
        abs(dist.p("d", "d") - float(p_classical)) <= TOLERANCE,
        "quantum p(d,d) agrees with the exact model value",
    )
    return out


def check_algebra(seed: int, trials: int) -> CheckOutcome:
    """Round-trip and boolean-algebra laws on seeded random sets."""
    out = CheckOutcome()
    rng = random.Random(seed)
    sets = [random_hfset(rng) for _ in range(max(trials, 1000))]

    # Each law reads `broken and out.fail(message)`, so its message is
    # rendered only when it fails: printing the operands of every passing
    # law would cost more than checking it.
    fresh = atom("zz_fresh")
    for s in sets:
        text = print_set(s)
        if parse_set(text) != s and out.fail(f"round trip failed for {text}"):
            return out
        if set_of(s.children) != s and out.fail(f"canonicalization not idempotent: {text}"):
            return out
        for c in s.children:
            if not member(c, s) and out.fail(f"child not a member: {print_set(c)} in {text}"):
                return out
        if member(fresh, s) and out.fail(f"fresh atom member of {text}"):
            return out

    for i in range(len(sets) - 1):
        a, b = sets[i], sets[i + 1]
        extra = sets[(i * 7 + 3) % len(sets)]
        # Each value is computed once and shared by the laws that use it;
        # every law still compares two sides computed apart.
        u = unite(a, b)
        cap = intersect(a, b)
        universe = unite(u, extra)
        if u != unite(b, a) and out.fail(f"union not commutative: {a!r} {b!r}"):
            return out
        if cap != intersect(b, a) and out.fail(f"intersection not commutative: {a!r} {b!r}"):
            return out
        if (unite(a, unite(b, extra)) != universe
                and out.fail(f"union not associative: {a!r} {b!r} {extra!r}")):
            return out
        if (intersect(a, intersect(b, extra)) != intersect(cap, extra)
                and out.fail(f"intersection not associative: {a!r} {b!r} {extra!r}")):
            return out
        if (unite(a, a) != a or intersect(a, a) != a) and out.fail(f"not idempotent: {a!r}"):
            return out
        if (monadic_union(set_of([a, b])) != u
                and out.fail(f"munion({{A,B}}) != A∪B for {a!r}, {b!r}")):
            return out
        comp_a = _difference(universe, a)
        comp_b = _difference(universe, b)
        if (_difference(universe, u) != intersect(comp_a, comp_b)
                and out.fail(f"De Morgan (union) failed: {a!r} {b!r} in {universe!r}")):
            return out
        if (_difference(universe, cap) != unite(comp_a, comp_b)
                and out.fail(f"De Morgan (intersection) failed: {a!r} {b!r} in {universe!r}")):
            return out

    if out.passed:
        out.ok(f"{len(sets)} random sets: round trip, canonical idempotence, "
               "membership, boolean laws, munion pairing, De Morgan")
    return out


SUITES = {
    "numerals": check_numerals,
    "axioms": check_axioms,
    "quadruples": check_quadruples,
    "distinctness": check_distinctness,
    "quantum": check_quantum,
    "algebra": check_algebra,
}

