"""Command-line surface: reproduce, eval, check, quantum, numerals.

Exit codes: 0 when every performed check passes, 1 when a check fails,
2 on usage errors (bad flags, malformed expressions, invalid atom
quadruples), on expressions whose function calls nest too deeply, and on
values past the size bounds (``hfset.MAX_PRINT_CHARS`` printed
characters, ``numerals.MAX_LEVEL`` numeral levels).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .hfset import (
    HfSet,
    AtomOperand,
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
    NonDistinctAtoms,
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


class ExpressionError(ValueError):
    """Expression parse or type failure at a byte offset."""

    def __init__(self, byte_offset: int, message: str) -> None:
        self.byte_offset = byte_offset
        super().__init__(f"error at byte {byte_offset}: {message}")


# ---------------------------------------------------------------------------
# expression evaluator: set literals plus union/intersect/munion/card/vn/zm
# ---------------------------------------------------------------------------


class _ExprParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def _byte(self, pos: int) -> int:
        return len(self.text[:pos].encode("utf-8"))

    def fail(self, message: str, pos: int | None = None) -> None:
        raise ExpressionError(self._byte(self.pos if pos is None else pos), message)

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _at(self, ch: str) -> bool:
        return self.pos < len(self.text) and self.text[self.pos] == ch

    def parse(self):
        node = self.parse_expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self.fail("expected end of input")
        return node

    def parse_expr(self):
        self._skip_ws()
        start = self.pos
        if self._at("{") or self._at("∅"):
            try:
                value, self.pos = parse_set_prefix(self.text, self.pos)
            except ParseError as exc:
                raise ExpressionError(exc.byte_offset, f"expected {exc.expected}") from exc
            return ("value", value, start)
        m = _NUMBER.match(self.text, self.pos)
        if m:
            try:
                number = int(m.group())
            except ValueError:  # past the interpreter's int-from-text digit limit
                self.fail(f"number has more than {sys.get_int_max_str_digits()} digits", start)
            self.pos = m.end()
            return ("number", number, start)
        m = _IDENT.match(self.text, self.pos)
        if not m:
            self.fail("expected a set literal, a function call, or an identifier")
        name = m.group()
        self.pos = m.end()
        self._skip_ws()
        if self._at("("):
            self.pos += 1
            args = []
            self._skip_ws()
            if self._at(")"):
                self.pos += 1
            else:
                args.append(self.parse_expr())
                while True:
                    self._skip_ws()
                    if self._at(","):
                        self.pos += 1
                        args.append(self.parse_expr())
                        continue
                    if self._at(")"):
                        self.pos += 1
                        break
                    self.fail("expected ',' or ')'")
            return ("call", name, args, start)
        return ("value", atom(name), start)


def _eval_node(node, parser: _ExprParser):
    kind = node[0]
    if kind == "value":
        return node[1]
    if kind == "number":
        return node[1]
    _, name, args, start = node

    def want_set(i: int) -> HfSet:
        value = _eval_node(args[i], parser)
        if isinstance(value, int):
            parser.fail(f"{name} expects a set, got a number", args[i][-1])
        if value.is_atom:
            parser.fail(f"{name} expects a set, got atom '{value.label}'", args[i][-1])
        return value

    def want_arity(k: int) -> None:
        if len(args) != k:
            parser.fail(f"{name} expects {k} argument(s), got {len(args)}", start)

    if name == "union":
        want_arity(2)
        return unite(want_set(0), want_set(1))
    if name == "intersect":
        want_arity(2)
        return intersect(want_set(0), want_set(1))
    if name == "munion":
        want_arity(1)
        return monadic_union(want_set(0))
    if name == "card":
        want_arity(1)
        return cardinality(want_set(0))
    if name in ("vn", "zm"):
        want_arity(2)
        level = _eval_node(args[0], parser)
        if not isinstance(level, int):
            parser.fail(f"{name} expects a numeral level as first argument", args[0][-1])
        base = _eval_node(args[1], parser)
        if isinstance(base, int):
            parser.fail(f"{name} base must be an atom or the empty set", args[1][-1])
        if not (base.is_atom or base == empty()):
            parser.fail(f"{name} base must be an atom or the empty set", args[1][-1])
        return numeral(name, level, base)
    parser.fail(f"unknown function '{name}'", start)


def evaluate_expression(text: str):
    """Evaluate an expression to an HfSet or an integer (for card)."""
    parser = _ExprParser(text)
    return _eval_node(parser.parse(), parser)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _format_fraction(p: Fraction) -> str:
    if p.denominator == 1:
        return str(p.numerator)
    return f"{p.numerator}/{p.denominator}"


def build_reproduction_report(labels, depth: int) -> dict:
    """Build the model, run every check, and assemble the report object."""
    quad = AtomQuadruple(*labels)
    model = build_model(quad, depth)
    result = hardy_probability(model)
    c_d_disjoint = intersect(model.c_set, model.d_set) == empty()

    axiom_dict = None
    axiom_note = None
    axiom_passed = None
    try:
        axiom_report = verify_axioms(model.triple, _AXIOM_UNION_SAMPLES, _AXIOM_SEED)
    except SampleSpaceTooLarge:
        axiom_note = (
            f"skipped: |omega| = {model.triple.size} exceeds the exhaustive sweep bound"
        )
    else:
        axiom_dict = axiom_report.to_dict()
        axiom_passed = axiom_report.passed

    membership = field_membership_report(model, result)
    identity = intersection_identity_check(model, result)
    dist = run_double_mzi()
    p_dd = dist.p("d", "d")
    agreement = result.probability == Fraction(1, 16) and abs(p_dd - 0.0625) <= _QUANTUM_TOL

    checks: dict[str, bool] = {}
    checks["probability_consistent"] = result.probability == Fraction(
        result.joint_event.count, result.omega_size
    )
    if axiom_passed is not None:
        checks["axioms"] = axiom_passed
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
        "probability": _format_fraction(result.probability),
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
    except (NonDistinctAtoms, ValueError) as exc:
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
    except (ExpressionError, AtomOperand, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(value, int):
        print(value)
    else:
        print(print_set(value))
    return 0


def _cmd_check(args) -> int:
    names = [args.suite] if args.suite else None
    try:
        outcomes = run_suites(names, seed=args.seed, trials=args.trials)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    try:
        return args.func(args)
    except RecursionError:
        print(
            "error: expression is nested too deeply "
            f"(Python recursion limit {sys.getrecursionlimit()})",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
