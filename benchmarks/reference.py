"""Package-free reference for every output the benchmark checks.

Nothing here imports ``hardysets``. Hereditarily finite sets are Python
frozensets with atoms as bare label strings, so extensional equality,
union and intersection come from the host language. Printed values come
from two renderers written against the documented canonical order
(atoms first, atoms by label, sets by cardinality and then childwise):

- a closed form for the von Neumann and Zermelo numerals over one atom,
  linear in the output length and free of recursion, used for residues
  and for deep nesting;
- a general renderer for small values, used for joint sets.

Each ``*_problems`` function returns a list of mismatch descriptions;
an empty list means the op's output is correct.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

_AXIOM_UNION_SAMPLES = 10000
_AXIOM_SEED = 42
_SWEEP_BOUND = 24
_QUANTUM_TOL = 1e-12
_P_GAMMA = 0.25
_P_DD = 0.0625
_ADJACENT = ((0, 1), (1, 2), (2, 3), (3, 0))


# ---------------------------------------------------------------------------
# frozenset expansion
# ---------------------------------------------------------------------------


def vn(n, base):
    levels = [base]
    for _ in range(n):
        levels.append(frozenset(levels))
    return levels[n]


def zm(n, base):
    current = base
    for _ in range(n):
        current = frozenset([current])
    return current


def munion(z):
    return frozenset(x for y in z if isinstance(y, frozenset) for x in y)


def wings(labels, depth):
    x1, x2, x3, x4 = labels
    c = vn(depth, x1) | vn(depth, x2) | zm(depth, x3) | zm(depth, x4)
    d = vn(depth, x4) | vn(depth, x3) | zm(depth, x2) | zm(depth, x1)
    return c, d


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------


def vn_levels(n: int, base: str) -> list:
    """Printed von Neumann numerals of levels 0..n over an atom label.

    Level k has cardinality k, so the canonical member order is the
    level order and each level is the brace-joined list of all earlier
    ones.
    """
    levels = [base]
    for _ in range(n):
        levels.append("{" + ",".join(levels) + "}")
    return levels


def vn_text(n: int, base: str) -> str:
    """Printed level-n von Neumann numeral over an atom label."""
    return vn_levels(n, base)[n]


def numeral_set_text(mask: int, base: str) -> str:
    """Printed set of the levels j of von Neumann numerals with bit j of ``mask`` set."""
    levels = vn_levels(mask.bit_length(), base)
    return "{" + ",".join(levels[j] for j in range(mask.bit_length()) if mask >> j & 1) + "}"


def zm_text(n: int, base: str) -> str:
    """Printed level-n Zermelo numeral over an atom label."""
    return "{" * n + base + "}" * n


def _key(x):
    if isinstance(x, str):
        return (0, x)
    return (1, len(x), tuple(sorted(_key(c) for c in x)))


def render(x) -> str:
    """Canonical rendering of a small value (exponential on deep numerals)."""
    if isinstance(x, str):
        return x
    return "{" + ",".join(render(c) for c in sorted(x, key=_key)) + "}"


def _fraction_text(p: Fraction) -> str:
    return str(p.numerator) if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def reproduce_report(labels, depth: int) -> dict:
    """The report ``reproduce`` must produce for a distinct quadruple.

    Quantum values are the exact 1/4 and 1/16; they are compared with a
    1e-12 tolerance, not for equality.
    """
    x1 = labels[0]
    c, d = wings(labels, depth)
    omega = c | d
    n = len(omega)
    res_a = munion(vn(depth, x1))
    res_b = munion(zm(depth, x1))
    joint = res_a & res_b
    probability = Fraction(len(joint), n)
    disjoint = not (c & d)

    probes = [(f"vn(2,{label})", vn(2, label)) for label in labels]
    probes += [(f"zm(2,{label})", zm(2, label)) for label in labels]
    probes += [("munion(hidden_a)", res_a), ("munion(hidden_b)", res_b), ("joint", joint)]
    membership = {name: s <= omega for name, s in probes}
    identity = joint == zm(2, x1)
    agreement = probability == Fraction(1, 16)

    if n <= _SWEEP_BOUND:
        axiom_report = {
            "omega_in_field": True,
            "complement_closure": {"checked_count": 1 << n, "failures": []},
            "union_closure": {
                "checked_count": _AXIOM_UNION_SAMPLES,
                "seed": _AXIOM_SEED,
                "failures": [],
            },
            "measure_bounds": True,
            "total_mass_is_one": True,
            "passed": True,
        }
        axiom_note = None
    else:
        axiom_report = None
        axiom_note = f"skipped: |omega| = {n} exceeds the exhaustive sweep bound"

    checks = {"probability_consistent": True}
    if axiom_report is not None:
        checks["axioms"] = True
    if depth == 3:
        checks["omega_size_16"] = n == 16
        checks["wings_disjoint"] = disjoint
        checks["field_membership"] = all(membership.values())
        checks["intersection_identity"] = identity
        checks["agreement"] = agreement

    return {
        "atoms": list(labels),
        "depth": depth,
        "omega_size": n,
        "field_size_log2": n,
        "c_d_disjoint": disjoint,
        "axiom_report": axiom_report,
        "axiom_note": axiom_note,
        "annihilated_a": vn_text(depth - 1, x1),
        "annihilated_b": zm_text(depth - 1, x1),
        "joint_set": render(joint),
        "probability": _fraction_text(probability),
        "quantum": {"p_gamma": _P_GAMMA, "p_dd": _P_DD},
        "agreement": agreement,
        "field_membership": membership,
        "intersection_identity": identity,
        "checks": checks,
        "passed": all(checks.values()),
    }


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def reproduce_text(report: dict) -> str:
    """The text-format rendering of a reference report."""
    n = report["omega_size"]
    lines = [
        f"atoms: {', '.join(report['atoms'])}",
        f"depth: {report['depth']}",
        f"omega size: {n}",
        f"event field size: 2^{n} = {1 << n}",
        f"wings disjoint: {_yn(report['c_d_disjoint'])}",
    ]
    ar = report["axiom_report"]
    if ar is None:
        lines.append(f"axioms: {report['axiom_note']}")
    else:
        lines.append(
            f"axioms: PASS (complement closure {ar['complement_closure']['checked_count']} "
            f"events, union closure {ar['union_closure']['checked_count']} samples, "
            f"seed {ar['union_closure']['seed']})"
        )
    lines += [
        f"annihilated hidden_a: {report['annihilated_a']}",
        f"annihilated hidden_b: {report['annihilated_b']}",
        f"joint set: {report['joint_set']}",
        f"probability: {report['probability']}",
        f"quantum p_gamma: {_P_GAMMA:.12g}",
        f"quantum p_dd: {_P_DD:.12g}",
        f"agreement with quantum oracle: {_yn(report['agreement'])}",
    ]
    lines += [f"check {name}: {'PASS' if ok else 'FAIL'}" for name, ok in report["checks"].items()]
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _exit_problems(code, expected: int) -> list:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def reproduce_machine_problems(labels, depth, code, stdout: str) -> list:
    expected = reproduce_report(labels, depth)
    problems = _exit_problems(code, 0 if expected["passed"] else 1)
    try:
        actual = json.loads(stdout)
    except ValueError as exc:
        return problems + [f"output is not JSON: {exc}"]
    if list(actual) != list(expected):
        return problems + [f"report keys {list(actual)} != {list(expected)}"]
    quantum = actual.pop("quantum")
    for key in ("p_gamma", "p_dd"):
        value = quantum.get(key) if isinstance(quantum, dict) else None
        if not isinstance(value, float) or abs(value - expected["quantum"][key]) > _QUANTUM_TOL:
            problems.append(f"quantum {key} = {value!r}")
    del expected["quantum"]
    for key, value in expected.items():
        if actual[key] != value:
            problems.append(f"{key}: {str(actual[key])[:80]} != {str(value)[:80]}")
    return problems


def reproduce_text_problems(labels, depth, code, stdout: str) -> list:
    report = reproduce_report(labels, depth)
    return _exit_problems(code, 0 if report["passed"] else 1) + _text_problems(
        stdout, reproduce_text(report)
    )


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _text_problems(stdout: str, expected: str) -> list:
    if stdout == expected:
        return []
    at = next(
        (i for i, (a, b) in enumerate(zip(stdout, expected)) if a != b),
        min(len(stdout), len(expected)),
    )
    return [
        f"output differs at char {at} (got {len(stdout)} chars, expected {len(expected)}): "
        f"{stdout[at:at + 40]!r} != {expected[at:at + 40]!r}"
    ]


def eval_problems(expected_value: str, code, stdout: str) -> list:
    """``eval`` prints the value and exits 0."""
    return _exit_problems(code, 0) + _text_problems(stdout, expected_value + "\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _partition_labels():
    """One quadruple per partition of four positions (restricted growth strings)."""
    out = []
    for b2 in range(2):
        for b3 in range(b2 + 2):
            for b4 in range(max(b2, b3) + 2):
                out.append(tuple("abcd"[b] for b in (0, b2, b3, b4)))
    return out


def distinctness_lines(depth: int = 3) -> list:
    """The claim prefix of each collision-survey line, from expansion."""
    lines = []
    for labels in _partition_labels():
        c, d = wings(labels, depth)
        adjacent_ok = all(labels[i] != labels[j] for i, j in _ADJACENT)
        lines.append(
            f"{labels}: adjacent_ok={adjacent_ok} disjoint={not (c & d)} "
            f"|overlap|={len(c & d)} |omega|={len(c | d)}"
        )
    return lines


def _count_claims(suite: str, trials: int) -> list:
    """Phrases stating how much work a suite did, fixed by its trial count."""
    if suite == "axioms":
        pairs = max(trials, 10000)
        return [
            "complement closure over 65536 events",
            f"union closure on {pairs} sampled pairs",
            f"finite additivity on {pairs} seeded disjoint pairs",
            f"monotonicity on {pairs} seeded subset pairs",
        ]
    if suite == "quadruples":
        return [f"{trials} random quadruples"]
    if suite == "algebra":
        return [f"{max(trials, 1000)} random sets"]
    if suite == "quantum":
        return [f"for {trials} random states"]
    if suite == "distinctness":
        return distinctness_lines()
    return []


_DRIFT = re.compile(r"\(worst ([0-9.e+-]+)\)")


def check_problems(suite: str, trials: int, code, stdout: str) -> list:
    """``check --suite S`` passes, prints only passing lines and does the requested work."""
    problems = _exit_problems(code, 0)
    lines = stdout.splitlines()
    if len(lines) < 3 or lines[0] != f"suite {suite}: PASS" or lines[-1] != "overall: PASS":
        return problems + [f"unexpected verdict lines: {lines[:1]} ... {lines[-1:]}"]
    detail = lines[1:-1]
    problems += [
        f"not a passing line: {line!r}" for line in detail if not line.startswith("  ok   ")
    ]
    for claim in _count_claims(suite, trials):
        if not any(claim in line for line in detail):
            problems.append(f"missing claim {claim!r}")
    if suite == "quantum":
        drift = [m.group(1) for m in map(_DRIFT.search, detail) if m]
        if len(drift) != 1 or float(drift[0]) > _QUANTUM_TOL:
            problems.append(f"norm drift {drift}")
    return problems
