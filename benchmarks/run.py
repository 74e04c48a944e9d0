#!/usr/bin/env python3
"""Benchmark of the hardysets command line, driven in-process.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in. One process, one client, no threads: each op calls
``hardysets.cli.main(argv)`` with stdout captured, and the next op
starts when it returns (a closed loop). Ops come in seeded blocks (see
``workloads.py``); each op's exit code and output are checked against
``reference.py``, which does not import the package.

With ``--trace 0`` the run measures the end-to-end metrics: set-up time
of fresh interpreters, then whole blocks until ``S`` seconds of op time
have passed. With ``--trace 1`` it runs whole blocks for ``S/3`` seconds
untraced, replays the same ops with the span wrappers of ``spans.py``
installed, and reports the per-layer metrics per traced op and the
tracing overhead.

The metric names and units are those of ``BENCHMARK.json``. The run
record (environment, per-class medians, failures) is printed as JSON;
the last line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from spans import COUNTERS, LAYERS, Tracer
from workloads import WORKLOADS, deep_nesting_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 15
IMPORT_RUNS = 5
# The tail latency goes into the run record, not the result: on a shared
# host its run-to-run spread is wider than any bound the result may carry.
TAIL_CANDIDATES = (0.99, 0.95, 0.9, 0.8, 0.5)
MIN_TAIL_BEYOND = 10
MAX_LISTED_FAILURES = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q percentile."""
    return n - max(1, math.ceil(q * n))


def tail_q(n: int) -> float:
    """The highest of the usual percentiles with ten of n samples beyond it."""
    return next((q for q in TAIL_CANDIDATES if samples_beyond(n, q) >= MIN_TAIL_BEYOND),
                TAIL_CANDIDATES[-1])


# ---------------------------------------------------------------------------
# set-up and environment
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that imports the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hardysets.cli"], env=_child_env(), check=True)
    return time.perf_counter() - start


def import_seconds() -> dict:
    """Median cumulative import time of hardysets and numpy, from ``-X importtime``."""
    samples = defaultdict(list)
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hardysets.cli"],
            env=_child_env(), check=True, capture_output=True, text=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in ("hardysets", "numpy"):
                samples[fields[2].strip()].append(int(fields[1]) / 1e6)
    return {f"import.{name}_s": statistics.median(v) for name, v in samples.items()}


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hardysets").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_op(cli_main, op):
    """(seconds, problems, stdout bytes) for one op; checking is not timed."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(op.argv))
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        seconds = time.perf_counter() - start
        return seconds, [f"raised {type(exc).__name__}: {str(exc)[:120]}"], 0
    seconds = time.perf_counter() - start
    stdout = out.getvalue()
    return seconds, op.check(code, stdout), len(stdout.encode())


class Loop:
    """Results of the ops run so far: latency, class and problems of each."""

    def __init__(self) -> None:
        self.latencies: list = []
        self.classes: list = []
        self.failures: list = []
        self.op_seconds = 0.0

    def run_block(self, cli_main, block, tracer=None) -> None:
        for op in block:
            if tracer is not None:
                tracer.begin_op(len(self.latencies), op.cls)
            seconds, problems, out_bytes = run_op(cli_main, op)
            if tracer is not None:
                tracer.count("cli.output.bytes", out_bytes)
                tracer.end_op()
            self.latencies.append(seconds)
            self.classes.append(op.cls)
            self.op_seconds += seconds
            if problems:
                self.failures.append(
                    {"class": op.cls, "op": _summary(op.argv), "problems": problems}
                )

    @property
    def throughput(self) -> float:
        return len(self.latencies) / self.op_seconds

    def class_medians(self) -> dict:
        by_class = defaultdict(list)
        for cls, seconds in zip(self.classes, self.latencies):
            by_class[cls].append(seconds)
        failed = Counter(f["class"] for f in self.failures)
        return {cls: {"ops": len(v), "failed": failed[cls], "median_s": statistics.median(v)}
                for cls, v in sorted(by_class.items())}


def _summary(argv) -> str:
    return " ".join(a if len(a) <= 40 else f"{a[:20]}...<{len(a)} chars>" for a in argv)


def _blocks(workload, seed: int):
    rng = random.Random(seed)
    while True:
        yield workload.block(rng)


def _warm_up(cli_main, workload, seed: int) -> None:
    """One op of the block's most common class, so first-call costs are not timed."""
    block = workload.block(random.Random(seed ^ 0x5EED))
    common = Counter(op.cls for op in block).most_common(1)[0][0]
    run_op(cli_main, next(op for op in block if op.cls == common))


def _probe_known_defects(cli_main, seed: int) -> dict:
    """Deep nesting is run untimed; its failures are listed, not hidden."""
    probe = Loop()
    probe.run_block(cli_main, deep_nesting_probe(random.Random(seed)))
    return {"deep_nesting": {"attempted": len(probe.latencies),
                             "failed": len(probe.failures),
                             "failures": probe.failures}}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(loop: Loop, setup: list) -> dict:
    n = len(loop.latencies)
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_s": percentile(loop.latencies, 0.5),
        "throughput_ops_s": loop.throughput,
        "success_rate": (n - len(loop.failures)) / n,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced: Loop, untraced: Loop) -> dict:
    """Per-layer values per traced op, plus import times and tracing overhead."""
    totals = {f"{name}.{kind}": 0.0 for name in (*LAYERS, "cli") for kind in ("calls", "self_s")}
    totals.update({counter: 0.0 for counter, _ in COUNTERS.values()})
    totals["cli.output.bytes"] = 0.0
    for (_, name), (calls, self_s) in tracer.layer_totals.items():
        totals[f"{name}.calls"] += calls
        totals[f"{name}.self_s"] += self_s
    for (_, counter), amount in tracer.counter_totals.items():
        totals[counter] += amount
    totals["runtime.gc.collections"] = tracer.gc_collections
    totals["runtime.gc.pause_s"] = tracer.gc_pause_s
    n = len(traced.latencies)
    values = {name: total / n for name, total in totals.items()}
    values.update(import_seconds())
    values["trace.throughput_delta_ops_s"] = traced.throughput - untraced.throughput
    return values


def class_rows(tracer, traced: Loop) -> dict:
    """Per traced op of each class: the layers whose cost grows with depth, and the counters."""
    ops = Counter(traced.classes)
    rows = {cls: {} for cls in sorted(ops)}
    for (cls, name), (calls, self_s) in tracer.layer_totals.items():
        if name in ("hfset.construct", "hfset.print", "hardy.annihilate"):
            rows[cls][f"{name}.calls"] = calls / ops[cls]
            rows[cls][f"{name}.self_s"] = self_s / ops[cls]
    for (cls, counter), amount in tracer.counter_totals.items():
        rows[cls][counter] = amount / ops[cls]
    return rows


def _result(spec: list, values: dict, loops) -> dict:
    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(len(loop.failures) for loop in loops)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hardysets" / "cli.py").is_file():
        print(f"error: no hardysets sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from hardysets.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    blocks = _blocks(workload, args.seed)

    if args.trace == 0:
        # Set-up samples are spread over the run, between blocks, so that
        # they see the same machine conditions as the ops.
        setup = []
        _warm_up(cli_main, workload, args.seed)
        loop = Loop()
        while loop.op_seconds < args.seconds:
            while len(setup) < SETUP_RUNS * loop.op_seconds / args.seconds:
                setup.append(setup_seconds())
            loop.run_block(cli_main, next(blocks))
        while len(setup) < SETUP_RUNS:
            setup.append(setup_seconds())
        values = end_to_end(loop, setup)
        loops = [loop]
        n, q = len(loop.latencies), tail_q(len(loop.latencies))
        record.update(
            ops=n,
            op_seconds=loop.op_seconds,
            tail_percentile=q * 100,
            latency_tail_s=percentile(loop.latencies, q),
            tail_samples_beyond=samples_beyond(n, q),
            setup_runs_s=setup,
            classes=loop.class_medians(),
        )
        result = _result(spec["end_to_end"], values, loops)
    else:
        _warm_up(cli_main, workload, args.seed)
        untraced, replay = Loop(), []
        while untraced.op_seconds < args.seconds / 3:
            replay.append(next(blocks))
            untraced.run_block(cli_main, replay[-1])
        tracer, traced = Tracer(), Loop()
        traced_main = tracer.wrap("cli", cli_main)
        tracer.install()
        try:
            for block in replay:
                traced.run_block(traced_main, block, tracer)
        finally:
            tracer.uninstall()
        values = per_layer(tracer, traced, untraced)
        loops = [untraced, traced]
        record.update(
            ops=len(traced.latencies),
            tracing={
                "untraced_ops_s": untraced.throughput,
                "traced_ops_s": traced.throughput,
                "overhead_share": traced.op_seconds / untraced.op_seconds - 1,
            },
            classes=class_rows(tracer, traced),
        )
        result = _result(spec["per_layer"], values, loops)

    if workload.name == "deep-values":
        record["known_defects"] = _probe_known_defects(cli_main, args.seed)
    record["failures"] = [f for loop in loops for f in loop.failures][:MAX_LISTED_FAILURES]
    print(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
