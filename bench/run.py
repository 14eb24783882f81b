#!/usr/bin/env python3
"""rwlearn benchmark: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload learn_scale --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; rwlearn is imported from its `src/`.
With --trace 0 the run sets the workload up several times (import, input
generation, warm-up) and reports the median as setup_s, then runs whole
sweeps of its operations until --seconds have passed, untraced.  Every
duration it reports is scaled to a reference host speed, measured next to it
by `reference.scale`; the table also gives the raw medians.  With
--trace 1 it alternates untraced and traced passes (set-up plus
`sweeps_per_pass` sweeps) until --seconds have passed, at least two traced,
and reports per-layer metrics of one pass; every count must repeat exactly
across the traced passes.  Each output is checked against a reference that is
independent of the learner.  A table goes to stdout, followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import pathlib
import resource
import shutil
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

import oracle
import reference
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = ("terms", "antiunify", "rewrite", "learner", "simplify", "dsl", "cli")
SETUP_REPEATS = 9


def import_rwlearn() -> SimpleNamespace:
    """A fresh import of every rwlearn module, so each set-up pays for it."""
    for name in [m for m in sys.modules if m == "rwlearn" or m.startswith("rwlearn.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"rwlearn.{m}") for m in MODULES})


class Tally:
    """Per-operation times and outcomes of a run."""

    def __init__(self, setup_rules: int, tracer=None, scale=reference.scale):
        self.tracer = tracer
        self.scale = scale  # factor to the reference speed, taken before each op
        self.times = []      # op times at the reference speed
        self.raw_times = []
        self.attempted = 0
        self.failed = 0
        self.steps = 0
        self.eval_s = 0.0
        self.rules = {"set-up": setup_rules}  # op label -> rules learned, which must repeat

    def sweep(self, ops):
        clock = time.perf_counter
        for op in ops:
            self.attempted += 1
            try:
                factor = self.scale()
                start = clock()
                result = op.run()
                seconds = clock() - start
                if self.tracer is None:
                    outcome = op.check(result, seconds)
                else:
                    with self.tracer.paused():
                        outcome = op.check(result, seconds)
                if self.rules.setdefault(op.label, outcome.rules) != outcome.rules:
                    raise oracle.Mismatch(f"{op.label}: rule count changed on repeat")
            except Exception:  # a failing operation is counted, reported, and the run goes on
                self.failed += 1
                print(f"operation {op.label} failed:", file=sys.stderr)
                traceback.print_exc()
                continue
            self.times.append(seconds * factor)
            self.raw_times.append(seconds)
            self.steps += outcome.steps
            self.eval_s += outcome.eval_s * factor


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timed_run(cls, seed: int, seconds: float):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts without the previous one's garbage
        before = reference.scale()
        start = time.perf_counter()
        rw = import_rwlearn()
        workload = cls(rw, seed, ROOT)
        workload.warm_up()
        took = time.perf_counter() - start
        raw_setups.append(took)
        setups.append(took * (before + reference.scale()) / 2)
    ops = workload.ops()
    tally = Tally(workload.setup_rules)
    gc.collect()
    deadline = time.perf_counter() + seconds
    while True:
        tally.sweep(ops)
        if time.perf_counter() >= deadline:
            break
    times = tally.times
    if not times or not tally.eval_s:
        return tally.attempted, tally.failed, {}, [], True
    tail = percentile(times, cls.tail_pct)
    beyond = sum(t > tail for t in times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms.p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms.tail": (tail * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "steps_per_s": (tally.steps / tally.eval_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rules_learned": (sum(tally.rules.values()), "count"),
    }
    notes = [f"op_ms.tail is p{cls.tail_pct} of {len(times)} ops, {beyond} beyond it"
             + ("" if beyond >= 10 else " (fewer than 10: too few ops for this tail)"),
             f"raw, not scaled to the reference speed: setup_s {statistics.median(raw_setups):.6g}"
             f" s, op_ms.p50 {statistics.median(tally.raw_times) * 1e3:.6g} ms; host at"
             f" {statistics.median(t / r for t, r in zip(times, tally.raw_times)):.3g}"
             " of the reference speed"]
    return tally.attempted, tally.failed, metrics, notes, True


def traced_run(cls, seed: int, seconds: float):
    rw = import_rwlearn()
    tracer = Tracer(rw)
    cls(rw, seed, ROOT).warm_up()
    untraced, traced, snapshots, tallies = [], [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(traced) < 2:
        for timings in (untraced, traced):
            tracer.reset()
            with tracer.installed() if timings is traced else contextlib.nullcontext():
                start = time.perf_counter()
                workload = cls(rw, seed, ROOT)
                # unscaled: pass times are only compared within the run
                tally = Tally(workload.setup_rules, tracer if timings is traced else None,
                              scale=lambda: 1.0)
                for _ in range(cls.sweeps_per_pass):
                    tally.sweep(workload.ops())
                timings.append(time.perf_counter() - start)
            if timings is traced:
                snapshots.append(tracer.snapshot())
            tallies.append(tally)

    notes, correct = [], True
    counts = snapshots[0]["counts"]
    if any(s["counts"] != counts for s in snapshots) or \
            any(t.rules != tallies[0].rules for t in tallies):
        correct = False
        notes.append("DETERMINISM: counts differ between traced passes of one seed")
    unhit = tracer.unhit(cls.name)
    if unhit:
        correct = False
        notes.append(f"UNHIT: wrapped call sites never called: {', '.join(unhit)}")
    if tracer.absent_sites:
        notes.append("absent call sites: "
                     + ", ".join(f"{m}.{a}" for m, a in tracer.absent_sites))
    if tracer.absent:
        notes.append(f"absent metrics: {', '.join(tracer.absent)}")
    times = {k: statistics.median(s["times"][k] for s in snapshots)
             for k in snapshots[0]["times"]}
    metrics = layer_metrics(counts, times)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    notes.append(f"{len(traced)} traced and {len(untraced)} untraced passes of "
                 f"set-up plus {cls.sweeps_per_pass} sweep(s); traced pass "
                 f"{statistics.median(traced):.3f} s, untraced {statistics.median(untraced):.3f} s")
    return (sum(t.attempted for t in tallies), sum(t.failed for t in tallies),
            metrics, notes, correct)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rwlearn" / "__init__.py").is_file():
        print(f"error: no rwlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    run = traced_run if args.trace else timed_run
    try:
        attempted, failed, metrics, notes, correct = run(WORKLOADS[args.workload], args.seed,
                                                         args.seconds)
    finally:
        shutil.rmtree(ROOT / ".bench_tmp", ignore_errors=True)
    correct = correct and failed == 0 and bool(metrics)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40} {value:>16.6g} {unit}")
    print(f"  {'failed_ratio':40} {failed / attempted:>16.6g} ratio ({failed} of {attempted} ops)")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
