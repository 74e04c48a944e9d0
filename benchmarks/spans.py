"""Spans around the calls into each layer, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper, in the
module that defines it and under every name another ``hardysets``
module bound it to (``from .hfset import intersect`` copies the
reference, so patching only ``hfset.intersect`` would miss the calls in
``cli``, ``hardy`` and ``checks``). Methods are patched on their class,
and the suite functions also in ``checks.SUITES``. ``uninstall`` puts
every original back, so untraced runs execute the unmodified code.

A span is ``[name, start, end, parent, op]``. A call made while the
innermost open span already has the same name is part of that span, so
a layer's public functions calling each other count once. Spans are kept
for one op at a time; ``end_op`` folds them into per-class totals.
"""

from __future__ import annotations

import gc
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Layer name -> functions, as "module:qualname" under hardysets.
LAYERS = {
    "hfset.construct": ("hfset:HfSet.__init__",),
    "hfset.eq": ("hfset:HfSet.__eq__",),
    "hfset.algebra": (
        "hfset:unite",
        "hfset:intersect",
        "hfset:monadic_union",
        "hfset:member",
        "hfset:cardinality",
    ),
    "hfset.print": ("hfset:print_set",),
    "hfset.parse": ("hfset:parse_set",),
    "numerals": ("numerals:numeral", "numerals:von_neumann", "numerals:zermelo"),
    "probability.triple": ("probability:uniform_triple", "probability:ProbabilityTriple.__init__"),
    "probability.event_table": ("probability:all_event_probabilities",),
    "probability.verify_axioms": ("probability:verify_axioms",),
    "probability.prob": ("probability:prob",),
    "probability.event_from_set": ("probability:event_from_set",),
    "hardy.build_model": ("hardy:build_model",),
    "hardy.annihilate": ("hardy:annihilate",),
    "hardy.residues": (
        "hardy:hardy_probability",
        "hardy:intersection_identity_check",
        "hardy:field_membership_report",
    ),
    "quantum.stage": ("quantum:apply_beam_splitter", "quantum:apply_annihilation"),
    "quantum.state": (
        "quantum:QuantumState.__init__",
        "quantum:QuantumState.norm",
        "quantum:QuantumState.probabilities",
        "quantum:random_two_particle_state",
    ),
    "quantum.run_double_mzi": ("quantum:run_double_mzi",),
    "checks.numerals": ("checks:check_numerals",),
    "checks.axioms": ("checks:check_axioms",),
    "checks.quadruples": ("checks:check_quadruples",),
    "checks.distinctness": ("checks:check_distinctness",),
    "checks.quantum": ("checks:check_quantum",),
    "checks.algebra": ("checks:check_algebra",),
    "cli.eval": ("cli:evaluate_expression",),
}

# Layer name -> (counter name, amount of work in one call from (args, result)).
COUNTERS = {
    "hfset.print": ("hfset.print.chars", lambda args, result: len(result)),
    "hfset.parse": ("hfset.parse.chars", lambda args, result: len(args[0])),
    "probability.event_table": ("probability.event_table.events", lambda args, result: len(result)),
    "probability.verify_axioms": (
        "probability.verify_axioms.events_swept",
        lambda args, result: 1 << args[0].size,
    ),
}


def self_times(spans) -> dict:
    """Span name -> [calls, self seconds]; self time is duration minus child spans."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - child[i]
    return totals


class Tracer:
    """Records spans and counters while installed; one op at a time."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self._op_cls = None
        self._patches: list = []
        self._gc_start = 0.0
        # (op class, name) -> [calls, self seconds]; (op class, counter) -> amount
        self.layer_totals: dict = defaultdict(lambda: [0, 0.0])
        self.counter_totals: dict = defaultdict(int)
        self.gc_collections = 0
        self.gc_pause_s = 0.0

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else None, self._op]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if counter is not None:
                self.counter_totals[(self._op_cls, counter[0])] += counter[1](args, result)
            return result

        return traced

    def begin_op(self, op_id: int, op_cls: str) -> None:
        self._op = op_id
        self._op_cls = op_cls

    def count(self, counter: str, amount: int) -> None:
        self.counter_totals[(self._op_cls, counter)] += amount

    def end_op(self) -> None:
        for name, (calls, self_s) in self_times(self.spans).items():
            entry = self.layer_totals[(self._op_cls, name)]
            entry[0] += calls
            entry[1] += self_s
        self.spans.clear()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        # Every dict that binds a traced function: each hardysets module's
        # namespace, and the suite table the check command dispatches on.
        bindings = [vars(m) for n, m in list(sys.modules.items()) if n.startswith("hardysets")]
        bindings.append(sys.modules["hardysets.checks"].SUITES)
        for name, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(f"hardysets.{module_name}")
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = getattr(owner, attr)
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
                    continue
                original = getattr(module, attr)
                traced = self.wrap(name, original)
                for namespace in bindings:
                    for bound, value in list(namespace.items()):
                        if value is original:
                            self._patches.append((namespace, bound, original))
                            namespace[bound] = traced
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += perf_counter() - self._gc_start
