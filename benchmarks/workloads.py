"""The three workloads: seeded op blocks of fixed composition.

Every workload is a closed loop of one client: the next op starts when
the previous one returns. Ops are generated in blocks. A block always
holds the same op classes in the same numbers, shuffled by the seed, and
the loop only stops at a block boundary. The share of each class is
therefore exact in every run, so the median and the tail percentile
fall among the same ops on every seed.

Atom labels come from a pool of 64 labels of equal length, drawn afresh
for every op: memoising on inputs cannot hide work, and the output size
of an op at a fixed depth does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import reference

ATOM_POOL = tuple(f"q{i:02d}" for i in range(64))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the reference check of its result."""

    cls: str
    argv: tuple
    check: Callable[[int, str], list]


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[[random.Random], list]


def _reproduce_op(rng: random.Random, depth: int, fmt: str) -> Op:
    labels = tuple(rng.sample(ATOM_POOL, 4))
    argv = ("reproduce", "--atoms", ",".join(labels), "--depth", str(depth))
    if fmt == "machine":
        argv += ("--format", "machine")
        check = partial(reference.reproduce_machine_problems, labels, depth)
    else:
        check = partial(reference.reproduce_text_problems, labels, depth)
    return Op(f"reproduce-d{depth}", argv, check)


def _eval_op(cls: str, expression: str, expected: Callable[[], str]) -> Op:
    # The expected text is built at check time: deep values print megabytes.
    def check(code, stdout):
        return reference.eval_problems(expected(), code, stdout)

    return Op(cls, ("eval", expression), check)


def _check_op(rng: random.Random, suite: str, trials: int) -> Op:
    seed = rng.randrange(1 << 31)
    argv = ("check", "--suite", suite, "--seed", str(seed), "--trials", str(trials))
    return Op(f"check-{suite}", argv, partial(reference.check_problems, suite, trials))


HEADLINE_DEPTHS = (3,) * 14 + (4,) * 5 + (5,)


def headline_block(rng: random.Random) -> list:
    """20 ops of ``reproduce --format machine``: 14 at depth 3, 5 at depth 4, 1 at depth 5.

    Depth 3 takes the lowest 70% of latencies, depth 4 the next 25% and
    the 2^24-event sweep of depth 5 the top 5%: p50 lies in the depth-3
    class and p90 in the depth-4 class.
    """
    ops = [_reproduce_op(rng, d, "machine") for d in HEADLINE_DEPTHS]
    rng.shuffle(ops)
    return ops


DEEP_DEPTHS = range(14, 21)
LITERAL_OPS = 7


def deep_values_block(rng: random.Random) -> list:
    """28 ops whose cost doubles with each level.

    For D in 14..20: ``reproduce --depth D`` (text), ``eval munion(vn(D,a))``
    and ``eval intersect(vn(D,a),zm(D,a))``. Then 7 ``eval`` ops of a
    printed literal, the set of the numerals vn(j,a) for the set bits j
    of m, which prints as about 3m characters. m is drawn log-uniformly
    from 2^11..2^16, one draw per seventh of that range: the literals
    fill the gaps between the fixed-depth costs, so p50 and p90 lie in a
    continuum of op costs.
    """
    ops = []
    for depth in DEEP_DEPTHS:
        ops.append(_reproduce_op(rng, depth, "text"))
        a = rng.choice(ATOM_POOL)
        ops.append(_eval_op(f"munion-d{depth}", f"munion(vn({depth},{a}))",
                            partial(reference.vn_text, depth - 1, a)))
        a = rng.choice(ATOM_POOL)
        joint = reference.vn(depth, a) & reference.zm(depth, a)
        ops.append(_eval_op(f"intersect-d{depth}", f"intersect(vn({depth},{a}),zm({depth},{a}))",
                            partial(reference.render, joint)))
    for i in range(LITERAL_OPS):
        m = round(2 ** (11 + 5 * (i + rng.random()) / LITERAL_OPS))
        text = reference.numeral_set_text(m, rng.choice(ATOM_POOL))
        ops.append(_eval_op(f"literal-vn{m.bit_length()}", text, partial(str, text)))
    rng.shuffle(ops)
    return ops


def deep_nesting_probe(rng: random.Random, count: int = 8) -> list:
    """Zermelo nesting 400..1000, as ``zm(N,a)`` calls and as brace literals.

    These inputs hit the recursion limit of the set engine's printer and
    parsers. They are run once per deep-values run, outside the timed
    loop, and their failures are listed in the run record.
    """
    ops = []
    for i in range(count):
        nesting = rng.randint(400, 1000)
        a = rng.choice(ATOM_POOL)
        text = reference.zm_text(nesting, a)
        expression = text if i % 2 else f"zm({nesting},{a})"
        ops.append(_eval_op("deep-nesting", expression, partial(str, text)))
    return ops


def _trials(low: int, high: int, count: int) -> list:
    """``count`` trial counts spaced evenly in log scale from ``low`` to ``high``."""
    return [round(low * (high / low) ** (i / (count - 1))) for i in range(count)]


# Trial counts spread each class over a range of costs. CPU speed on a
# shared host can drift by up to about 1.9x for seconds to minutes; a
# percentile that sits among many different op costs moves smoothly with
# that drift, where one inside a class of identical ops would jump
# between the fast and the slow speed.
QUANTUM_TRIALS = _trials(100, 1000, 20)
QUADRUPLE_TRIALS = _trials(100, 340, 8)


def check_suites_block(rng: random.Random) -> list:
    """40 ``check --suite S`` ops over all six suites, each with a fresh seed.

    5 numerals and 5 distinctness ops (fixed work, about 3 ms) take the
    lowest 25% of latencies; 20 quantum ops (100..1000 trials) and 8
    quadruples ops (100..340 trials, that many ``build_model`` calls)
    spread over 10..100 ms and hold p50 and p90. The two suites with a
    fixed floor of work (axioms: 10000 seeded pairs, about 40k ``prob``
    calls; algebra: 1000 random sets) take 1..2 s each and run once per
    block, so they weigh on throughput, not on the percentiles.

    The quantum ops are half of every block and hold its median: random
    states through all five stages, plus ``run_double_mzi``. The quantum
    layer is under 5% of the other workloads, so this is where a slower
    stage shows.
    """
    ops = [_check_op(rng, "numerals", 100) for _ in range(5)]
    ops += [_check_op(rng, "distinctness", 100) for _ in range(5)]
    ops += [_check_op(rng, "quantum", t) for t in QUANTUM_TRIALS]
    ops += [_check_op(rng, "quadruples", t) for t in QUADRUPLE_TRIALS]
    ops += [_check_op(rng, "algebra", 100), _check_op(rng, "axioms", 100)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("headline", headline_block),
        Workload("deep-values", deep_values_block),
        Workload("check-suites", check_suites_block),
    )
}
