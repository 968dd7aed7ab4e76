"""Benchmark of mereotime: one workload per process, from a seed.

    python3 bench/run.py --workload sweep|represent|dualize --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  The
run sets up several times and reports the median set-up time, then attempts
whole rounds of the same operations until S seconds have passed, at least
four rounds ran and at least 100 operations were attempted.  Every
operation's output is checked against answers computed apart from the
program.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The traced run
alternates plain and traced rounds; its metrics are means over the traced
rounds, and its spans are written to `bench/out/`.

An operation's time is the median of its times over the rounds, each
scaled to a reference speed of the host: before every block of operations
(every operation, in the command-line workloads) the run times
`reference_work`, fixed pure-Python work that does not touch the program,
and multiplies the block's times by REFERENCE_S over the mean of the
reference timings just before and just after it.  A time therefore reads as
on a host where the reference work takes REFERENCE_S, which cancels the
slow phases a shared host goes through; set-up times are scaled the same
way.  The unscaled figures are printed above the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("boolean", "contact", "snapshot", "dca", "dms", "category", "models", "generate", "cli",
           "reporting", "errors")
SETUPS = 7
MIN_OPS = 100
MIN_ROUNDS = 4
REFERENCES = 100  # timings of the reference work per round
REFERENCE_S = 0.0035
# Rank windows whose mean estimates the median and the 90th percentile.
P50 = (0.40, 0.60)
P90 = (0.85, 0.95)

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_fresh() -> dict:
    """Import the package from this checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "mereotime" or n.startswith("mereotime.")]:
        del sys.modules[name]
    package = importlib.import_module("mereotime")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "mereotime":
        raise SystemExit(f"error: mereotime imported from {package.__file__}, not from {ROOT / 'src'}")
    modules = {name: importlib.import_module(f"mereotime.{name}") for name in MODULES}
    modules["mereotime"] = package
    return modules


def function_caches(modules) -> list:
    """Every function cache the package exposes, found by its `cache_clear`."""
    found = {}
    for module in modules.values():
        for value in vars(module).values():
            while value is not None:
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
                value = getattr(value, "__wrapped__", None)
    return list(found.values())


# Closed under union and intersection, these masks give 65 sets.
REFERENCE_BASE = tuple((0x9E3779B1 * (i + 1)) & 0xFF for i in range(6))


def reference_work() -> int:
    """Fixed pure-Python work that does not touch the program, about 4 ms.

    Clique enumeration, time conditions and a union-intersection closure:
    the kinds of set, tuple and integer work the program itself does.
    """
    family = {0, 0xFF, *REFERENCE_BASE}
    frontier = list(family)
    while frontier:
        fresh = [c for a in frontier for b in list(family) for c in (a | b, a & b) if c not in family]
        family.update(fresh)
        frontier = list(dict.fromkeys(fresh))
    total = len(family)
    for bits in range(0, 1 << 10, 23):
        edges = [e for i, e in enumerate(itertools.combinations(range(5), 2)) if bits >> i & 1]
        total += len(oracle.cliques(5, set(edges) | {(y, x) for x, y in edges}))
    for bits in range(0, 512, 29):
        prec = [(i, j) for i in range(3) for j in range(3) if bits >> (3 * i + j) & 1]
        total += sum(oracle.time_conditions(3, prec).values())
    return total


def time_reference() -> float:
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def quantile(ordered: list, low: float, high: float) -> float:
    """Mean of the sorted samples ranked between the shares `low` and `high`.

    Averaging a window of ranks keeps the estimate from jumping when two
    kinds of operation with different costs trade places at one rank.
    """
    window = ordered[math.floor(low * len(ordered)):math.ceil(high * len(ordered))]
    return sum(window) / len(window)


class Run:
    """Outcomes of whole rounds of the same operations.

    Every round repeats the same operations on the same inputs from the same
    cache state, so each operation has one scaled time per round.
    """

    def __init__(self, workload, caches):
        self.workload = workload
        self.caches = caches
        self.labels: list[str] = []
        self.times: list[list[float]] = []  # per operation of a round, its scaled seconds per round; inf if it failed
        self.unscaled: list[list[float]] = []
        self.round_seconds: list[float] = []  # scaled seconds of the completed operations, per round
        self.reference: list[float] = []  # seconds of each timing of the reference work
        self.attempted = 0
        self.rounds = 0
        self.failures: dict[tuple, int] = {}
        self.correct = True

    def clear(self) -> None:
        for cache in self.caches:
            cache.cache_clear()

    def cache_entries(self) -> int:
        return sum(cache.cache_info().currsize for cache in self.caches)

    def round(self, ops, tracer=None) -> float:
        """Attempt and check every operation of one round; its scale factor."""
        gc.collect()
        self.clear()
        times, reference = [], []
        digests = set()
        stride = max(1, len(ops) // REFERENCES)
        for i, op in enumerate(ops):
            if i % stride == 0:
                reference.append(time_reference())
            if self.workload.cold:
                self.clear()
            start = time.perf_counter()
            with tracer.operation(op.label) if tracer else nullcontext():
                try:
                    value, error = op.call(), None
                except Exception as exc:  # an operation that raises counts as failed
                    value, error = None, exc
            elapsed = time.perf_counter() - start
            if error is not None:
                problems = [f"uncaught {type(error).__name__}: {error}"]
            else:
                try:
                    problems = op.check(value)
                except Exception as exc:  # output too malformed to check
                    problems = [f"output not checkable: {type(exc).__name__}: {exc}"]
            key = op.digest()
            if key in digests:
                raise SystemExit(f"error: two operations of one round received equal inputs ({op.label})")
            digests.add(key)
            times.append(math.inf if problems else elapsed)
            if problems:
                known = op.known_fault is not None and any(op.known_fault in p for p in problems)
                self.correct &= known
                reason = ("known fault: " if known else "") + problems[0]
                self.failures[op.label, reason] = self.failures.get((op.label, reason), 0) + 1
        reference.append(time_reference())
        # Each operation is scaled by the reference timings just before and
        # just after its block of `stride` operations.
        scales = [2 * REFERENCE_S / (reference[i // stride] + reference[i // stride + 1]) for i in range(len(ops))]
        if not self.times:
            self.labels = [op.label for op in ops]
            self.times = [[] for _ in ops]
            self.unscaled = [[] for _ in ops]
        for scaled, unscaled, t, scale in zip(self.times, self.unscaled, times, scales):
            scaled.append(t * scale)
            unscaled.append(t)
        self.round_seconds.append(sum(t * s for t, s in zip(times, scales) if t != math.inf))
        self.reference += reference
        self.attempted += len(ops)
        self.rounds += 1
        return REFERENCE_S / statistics.fmean(reference)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def typical(self, scaled: bool = True) -> list[float]:
        """Each operation's median time over the rounds; inf if it failed."""
        return [statistics.median(times) for times in (self.times if scaled else self.unscaled)]

    def end_to_end(self, setup_s: float, scaled: bool = True) -> dict:
        """The five end-to-end metrics."""
        ordered = sorted(self.typical(scaled))
        completed = [t for t in ordered if t != math.inf]
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "ops_per_s": (len(completed) / sum(completed), "1/s"),
            "op_p50_ms": (quantile(ordered, *P50) * 1e3, "ms"),
            "op_p90_ms": (quantile(ordered, *P90) * 1e3, "ms"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mereotime" / "__init__.py").is_file():
        print(f"error: no mereotime sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = OUT / f"{args.workload}-{os.getpid()}"
    try:
        setups, scaled_setups = [], []
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            gc.collect()
            before = time_reference()
            start = time.perf_counter()
            modules = import_fresh()
            workload = WORKLOADS[args.workload]()
            workload.generate(modules, work, random.Random(args.seed))
            ops = workload.round(modules)
            setups.append(time.perf_counter() - start)
            scaled_setups.append(setups[-1] * 2 * REFERENCE_S / (before + time_reference()))
        run = Run(workload, function_caches(modules))
        tracer = spans.Tracer(modules) if args.trace else None
        traced = Run(workload, run.caches)
        layers = []
        start = time.perf_counter()
        while True:
            run.round(ops)
            ops = workload.round(modules)
            if tracer:
                first = len(tracer.spans)
                tracer.install()
                try:
                    scale = traced.round(ops, tracer)
                finally:
                    tracer.uninstall()
                measured = spans.layer_metrics(tracer.spans, first)
                layers.append({k: v * scale if spans.unit(k) == "s" else v for k, v in measured.items()})
                layers[-1]["cache.entries"] = traced.cache_entries()
                ops = workload.round(modules)
            rounds, attempted = run.rounds + traced.rounds, run.attempted + traced.attempted
            if time.perf_counter() - start >= args.seconds and rounds >= MIN_ROUNDS and attempted >= MIN_OPS:
                break
        if tracer:
            unmoved = spans.idle(layers, workload.MOVES)
            if unmoved:
                raise SystemExit(f"error: traced rounds of {args.workload} left {', '.join(unmoved)} at 0")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    by_label: dict[str, list[float]] = {}
    for label, seconds in zip(run.labels, run.typical()):
        by_label.setdefault(label, []).append(seconds)
    for label, typical in sorted(by_label.items()):
        print(f"op {label}: {len(typical)} per round, median {statistics.median(typical) * 1e3:.3f} ms")
    failures = dict(run.failures)
    for key, count in traced.failures.items():
        failures[key] = failures.get(key, 0) + count
    for (label, reason), count in sorted(failures.items()):
        print(f"failed {count}x {label}: {reason}")
    reference = statistics.median(run.reference)
    unscaled = run.end_to_end(statistics.median(setups), scaled=False)
    print(f"reference work: median {reference * 1e3:.3f} ms over {len(run.reference)} timings; "
          f"unscaled: " + " ".join(f"{k}={v:.6g}" for k, (v, _) in unscaled.items()))

    if tracer:
        metrics = {name: (statistics.fmean(r[name] for r in layers), spans.unit(name)) for name in layers[0]}
        overhead = statistics.fmean(traced.round_seconds) - statistics.fmean(run.round_seconds)
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = run.end_to_end(statistics.median(scaled_setups))
    result = {
        "correct": run.correct and traced.correct,
        "attempted": run.attempted + traced.attempted,
        "failed": run.failed + traced.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
