"""Command-line surface: reproduce, eval, check, quantum, numerals.

Exit codes: 0 when every performed check passes, 1 when a check fails,
2 on usage errors (bad flags, malformed expressions, invalid atom
quadruples) and on values past the size bounds (``hfset.MAX_PRINT_CHARS``
printed characters, ``numerals.MAX_LEVEL`` numeral levels).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import partial

from .hfset import (
    ParseError,
    atom,
    cardinality,
    empty,
    intersect,
    monadic_union,
    parse_set_prefix,
    print_set,
    unite,
)
from .numerals import numeral
from .probability import SampleSpaceTooLarge, field_size_log2, verify_axioms
from .hardy import (
    AtomQuadruple,
    build_model,
    field_membership_report,
    hardy_probability,
    intersection_identity_check,
)
from .quantum import run_double_mzi
from .checks import SUITES, run_suites

__all__ = ["main"]

_AXIOM_UNION_SAMPLES = 10000
_AXIOM_SEED = 42
_QUANTUM_TOL = 1e-12

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_NUMBER = re.compile(r"[0-9]+")
_SPACE = re.compile(r"\s*")  # the characters of str.isspace


class ExpressionError(ValueError):
    """Expression parse or type failure at a byte offset."""

    def __init__(self, byte_offset: int, message: str) -> None:
        self.byte_offset = byte_offset
        super().__init__(f"error at byte {byte_offset}: {message}")


# ---------------------------------------------------------------------------
# expression evaluator: set literals plus union/intersect/munion/card/vn/zm
# ---------------------------------------------------------------------------


# name -> (arity, operation); the operation runs once every argument is checked
_FUNCTIONS = {
    "union": (2, unite),
    "intersect": (2, intersect),
    "munion": (1, monadic_union),
    "card": (1, cardinality),
    "vn": (2, partial(numeral, "vn")),
    "zm": (2, partial(numeral, "zm")),
}


def _error(text: str, pos: int, message: str) -> ExpressionError:
    return ExpressionError(len(text[:pos].encode("utf-8")), message)


def _read(text: str):
    """Read ``text`` into nodes, keeping a stack of the calls still open.

    A node is ``("value", HfSet, start)``, ``("number", int, start)`` or
    ``("call", name, args, start)``; ``start`` is its character offset.
    """
    open_calls = []
    pos = 0
    while True:
        pos = start = _SPACE.match(text, pos).end()
        if text.startswith(("{", "∅"), pos):
            try:
                value, pos = parse_set_prefix(text, pos)
            except ParseError as exc:
                raise ExpressionError(exc.byte_offset, f"expected {exc.expected}") from exc
            node = ("value", value, start)
        elif number := _NUMBER.match(text, pos):
            try:
                node = ("number", int(number.group()), start)
            except ValueError:  # past the interpreter's int-from-text digit limit
                raise _error(
                    text, start, f"number has more than {sys.get_int_max_str_digits()} digits"
                ) from None
            pos = number.end()
        elif not (name := _IDENT.match(text, pos)):
            raise _error(text, pos, "expected a set literal, a function call, or an identifier")
        else:
            pos = _SPACE.match(text, name.end()).end()
            if not text.startswith("(", pos):
                node = ("value", atom(name.group()), start)
            else:
                node = ("call", name.group(), [], start)
                pos = _SPACE.match(text, pos + 1).end()
                if not text.startswith(")", pos):
                    open_calls.append(node)
                    continue
                pos += 1
        # A finished node is the next argument of the innermost open call,
        # or the whole expression when no call is open.
        while open_calls:
            open_calls[-1][2].append(node)
            pos = _SPACE.match(text, pos).end()
            if text.startswith(",", pos):
                pos += 1
                break
            if not text.startswith(")", pos):
                raise _error(text, pos, "expected ',' or ')'")
            pos += 1
            node = open_calls.pop()
        else:
            pos = _SPACE.match(text, pos).end()
            if pos != len(text):
                raise _error(text, pos, "expected end of input")
            return node


def _check_argument(text: str, name: str, index: int, value, start: int) -> None:
    if name in ("vn", "zm"):
        if index == 0:
            if not isinstance(value, int):
                raise _error(text, start, f"{name} expects a numeral level as first argument")
        elif isinstance(value, int) or not (value.is_atom or value == empty()):
            raise _error(text, start, f"{name} base must be an atom or the empty set")
    elif isinstance(value, int):
        raise _error(text, start, f"{name} expects a set, got a number")
    elif value.is_atom:
        raise _error(text, start, f"{name} expects a set, got atom '{value.label}'")


def evaluate_expression(text: str):
    """Evaluate an expression to an HfSet or an integer (for card).

    The whole text is read first, so a malformed expression is reported
    before any evaluation error. A call's name and arity are checked
    before its arguments; each argument is evaluated and checked, left to
    right, before the next one.
    """
    node = _read(text)
    frames = []  # (name, args, values) of the calls under evaluation
    while True:
        if node[0] == "call":
            _, name, args, start = node
            if name not in _FUNCTIONS:
                raise _error(text, start, f"unknown function '{name}'")
            arity = _FUNCTIONS[name][0]
            if len(args) != arity:
                raise _error(text, start, f"{name} expects {arity} argument(s), got {len(args)}")
            frames.append((name, args, []))
            node = args[0]
            continue
        value = node[1]
        # Hand the value to the innermost call; apply each call whose
        # arguments are all in.
        while frames:
            name, args, values = frames[-1]
            _check_argument(text, name, len(values), value, args[len(values)][-1])
            values.append(value)
            if len(values) < len(args):
                node = args[len(values)]
                break
            frames.pop()
            value = _FUNCTIONS[name][1](*values)
        else:
            return value


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def build_reproduction_report(labels, depth: int) -> dict:
    """Build the model, run every check, and assemble the report object."""
    quad = AtomQuadruple(*labels)
    model = build_model(quad, depth)
    result = hardy_probability(model)
    c_d_disjoint = intersect(model.c_set, model.d_set) == empty()

    try:
        axiom_dict = verify_axioms(model.triple, _AXIOM_UNION_SAMPLES, _AXIOM_SEED).to_dict()
        axiom_note = None
    except SampleSpaceTooLarge:
        axiom_dict = None
        axiom_note = (
            f"skipped: |omega| = {model.triple.size} exceeds the exhaustive sweep bound"
        )

    membership = field_membership_report(model, result)
    identity = intersection_identity_check(model, result)
    dist = run_double_mzi()
    p_dd = dist.p("d", "d")
    agreement = result.probability == Fraction(1, 16) and abs(p_dd - 0.0625) <= _QUANTUM_TOL

    checks: dict[str, bool] = {}
    checks["probability_consistent"] = result.probability == Fraction(
        result.joint_event.count, result.omega_size
    )
    if axiom_dict is not None:
        checks["axioms"] = True
    if depth == 3:
        checks["omega_size_16"] = result.omega_size == 16
        checks["wings_disjoint"] = c_d_disjoint
        checks["field_membership"] = all(ok for _, ok in membership)
        checks["intersection_identity"] = identity
        checks["agreement"] = agreement
    passed = all(checks.values())

    return {
        "atoms": list(labels),
        "depth": depth,
        "omega_size": result.omega_size,
        "field_size_log2": field_size_log2(model.triple),
        "c_d_disjoint": c_d_disjoint,
        "axiom_report": axiom_dict,
        "axiom_note": axiom_note,
        "annihilated_a": print_set(result.annihilated_a),
        "annihilated_b": print_set(result.annihilated_b),
        "joint_set": print_set(result.joint_set),
        "probability": str(result.probability),
        "quantum": {"p_gamma": dist.p_gamma, "p_dd": p_dd},
        "agreement": agreement,
        "field_membership": {name: ok for name, ok in membership},
        "intersection_identity": identity,
        "checks": checks,
        "passed": passed,
    }


def _print_report_text(report: dict, out) -> None:
    print(f"atoms: {', '.join(report['atoms'])}", file=out)
    print(f"depth: {report['depth']}", file=out)
    print(f"omega size: {report['omega_size']}", file=out)
    log2 = report["field_size_log2"]
    print(f"event field size: 2^{log2} = {1 << log2}", file=out)
    print(f"wings disjoint: {_yn(report['c_d_disjoint'])}", file=out)
    if report["axiom_report"] is not None:
        ar = report["axiom_report"]
        print(
            f"axioms: {'PASS' if ar['passed'] else 'FAIL'} "
            f"(complement closure {ar['complement_closure']['checked_count']} events, "
            f"union closure {ar['union_closure']['checked_count']} samples, "
            f"seed {ar['union_closure']['seed']})",
            file=out,
        )
    else:
        print(f"axioms: {report['axiom_note']}", file=out)
    print(f"annihilated hidden_a: {report['annihilated_a']}", file=out)
    print(f"annihilated hidden_b: {report['annihilated_b']}", file=out)
    print(f"joint set: {report['joint_set']}", file=out)
    print(f"probability: {report['probability']}", file=out)
    print(f"quantum p_gamma: {report['quantum']['p_gamma']:.12g}", file=out)
    print(f"quantum p_dd: {report['quantum']['p_dd']:.12g}", file=out)
    print(f"agreement with quantum oracle: {_yn(report['agreement'])}", file=out)
    for name, ok in report["checks"].items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}", file=out)
    print(f"result: {'PASS' if report['passed'] else 'FAIL'}", file=out)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_reproduce(args) -> int:
    try:
        report = build_reproduction_report(args.atoms, args.depth)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "machine":
        print(json.dumps(report, indent=2, ensure_ascii=False))
    else:
        _print_report_text(report, sys.stdout)
    return 0 if report["passed"] else 1


def _cmd_eval(args) -> int:
    try:
        value = evaluate_expression(args.expression)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(value, int):
        print(value)
    else:
        print(print_set(value))
    return 0


def _cmd_check(args) -> int:
    names = [args.suite] if args.suite else None
    outcomes = run_suites(names, seed=args.seed, trials=args.trials)
    detail = args.verbose or args.suite is not None
    all_passed = True
    for outcome in outcomes:
        print(f"suite {outcome.suite}: {'PASS' if outcome.passed else 'FAIL'}")
        if detail or not outcome.passed:
            for line in outcome.lines:
                print(f"  {line}")
        all_passed = all_passed and outcome.passed
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


def _cmd_quantum(args) -> int:
    dist = run_double_mzi()
    payload = dist.to_dict()
    if args.format == "machine":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}: {value:.12g}")
    return 0


def _cmd_numerals(args) -> int:
    base_text = args.base
    try:
        if base_text in ("∅", "{}"):
            base = empty()
        else:
            base = atom(base_text)
        value = numeral(args.system, args.n, base)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(print_set(value))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _atom_list(text: str) -> list:
    labels = [part.strip() for part in text.split(",")]
    if len(labels) != 4 or any(not label for label in labels):
        raise argparse.ArgumentTypeError(
            "expected exactly four comma-separated atom labels"
        )
    return labels


def _int_at_least(name: str, low: int):
    """An argparse type: an integer ``name`` no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid {name} {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be at least {low}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardysets",
        description=(
            "Exact set-theoretic model of the double-interferometer annihilation "
            "experiment, with verification suites and a quantum amplitude oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="build the model and run every check")
    p.add_argument("--atoms", type=_atom_list, default=["x1", "x2", "x3", "x4"],
                   help="four comma-separated atom labels (default x1,x2,x3,x4)")
    p.add_argument("--depth", type=_int_at_least("depth", 1), default=3,
                   help="numeral depth for the wings (default 3)")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("eval", help="evaluate a set expression")
    p.add_argument("expression",
                   help="set literal or union/intersect/munion/card/vn/zm call")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="run the invariant suites")
    p.add_argument("--seed", type=_int_at_least("seed", 0), default=42)
    p.add_argument("--trials", type=_int_at_least("trials", 1), default=1000)
    p.add_argument("--suite", choices=sorted(SUITES), default=None)
    p.add_argument("--verbose", action="store_true",
                   help="print every check line, not only failures")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("quantum", help="run the amplitude oracle")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("numerals", help="print a numeral set")
    p.add_argument("--system", choices=("vn", "zm"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--base", default="∅", help="base: '∅', '{}' or an atom label")
    p.set_defaults(func=_cmd_numerals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
