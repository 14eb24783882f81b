"""Per-layer tracing by wrapping rwlearn functions from outside the package.

Each wrapped function is replaced, for the length of a traced pass, by a
wrapper that records a span: its duration, and its self time (the duration
minus the time of the wrapped calls made inside it).  Names are replaced
where they are looked up at call time, so a function is wrapped in the module
that calls it: `learner.renaming_match` counts the `terms.renaming_match`
calls made by the learner.  Spans are aggregated per metric name in memory.

Wrapped names that no longer exist are reported as absent instead of failing,
so a refactor that removes one loses that metric and nothing else.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

_ALL = frozenset({"learn_scale", "eval_long", "seed_cli"})  # eval_long learns in set-up
_CLI = frozenset({"seed_cli"})


def _hook_evaluate(tracer, args, result, seconds):
    tracer.counts["rewrite.steps"] += result[1]
    tracer.times["rewrite.normal_form_s"] += seconds


def _hook_induce(tracer, args, result, seconds):
    tracer.counts["learner.position_attempts"] += len(result.attempts)
    if result.failure is not None:
        tracer.counts["learner.underivable"] += len(result.failure.underivable)


def _hook_simplify(tracer, args, result, seconds):
    tracer.counts["simplify.rules_removed"] += len(args[0].rules) - len(result.rules)


# metric name, calling module, attribute, result hook, workloads that must call it.
# A metric may have several call sites; it is absent only when all are gone.
# cli.emit_trace is expected nowhere: the seed_cli runs pass --no-trace.
SITES = (
    ("dsl.parse_problem", "cli", "parse_problem", None, _CLI),
    ("dsl.parse_problem", "dsl", "parse_problem", None, frozenset({"eval_long", "seed_cli"})),
    ("antiunify.generalize_examples", "learner", "generalize_examples", None, _ALL),
    ("learner.induce", "learner", "induce", _hook_induce, frozenset({"learn_scale", "eval_long"})),
    ("learner.induce", "cli", "induce", _hook_induce, _CLI),
    ("learner.derive_aux_examples", "learner", "derive_aux_examples", None, _ALL),
    ("learner.detect_repetition", "learner", "detect_repetition", None, _ALL),
    ("learner.canonical_example_set", "learner", "_canonical_example_set", None, _ALL),
    ("learner.build_scheme", "learner", "build_scheme", None, _ALL),
    ("terms.renaming_match", "learner", "renaming_match", None, _ALL),
    ("terms.render_term", "learner", "render_term", None, _ALL),
    ("terms.render_term", "rewrite", "render_term", None, frozenset()),
    ("terms.render_term", "cli", "render_term", None, _CLI),
    ("rewrite.covers_all", "learner", "covers_all", None, _ALL),
    ("rewrite.covers_all", "cli", "covers_all", None, _CLI),
    ("rewrite.evaluate_steps", "rewrite", "evaluate_steps", _hook_evaluate, _ALL),
    ("rewrite.match_pattern", "rewrite", "match_pattern", None, _ALL),
    ("rewrite.substitute", "rewrite", "substitute", None, _ALL),
    ("simplify.prune_irrelevant_args", "simplify", "prune_irrelevant_args", _hook_simplify,
     frozenset({"learn_scale", "eval_long"})),
    ("simplify.prune_irrelevant_args", "cli", "prune_irrelevant_args", _hook_simplify, _CLI),
    ("simplify.inline_single_rule_aux", "cli", "inline_single_rule_aux", _hook_simplify, _CLI),
    ("cli.main", "cli", "main", None, _CLI),
    ("cli.run_problem", "cli", "run_problem", None, _CLI),
    ("cli.export_json", "cli", "export_json", None, _CLI),
    ("cli.emit_trace", "cli", "emit_trace", None, frozenset()),
)

# metrics whose non-None results over calls give a useful-outcome ratio
RATIOS = {
    "terms.renaming_match.hit_ratio": "terms.renaming_match",
    "rewrite.match_pattern.hit_ratio": "rewrite.match_pattern",
    "antiunify.candidate_ratio": "antiunify.generalize_examples",
}
# counters kept by the result hooks, with the metric whose call sites feed them
COUNTERS = {
    "rewrite.steps": "rewrite.evaluate_steps",
    "learner.position_attempts": "learner.induce",
    "learner.underivable": "learner.induce",
    "simplify.rules_removed": "simplify.prune_irrelevant_args",
}


@dataclass
class Span:
    calls: int = 0
    hits: int = 0        # calls that returned something other than None
    errors: int = 0      # calls that raised
    self_s: float = 0.0


class Tracer:
    def __init__(self, rw):
        self.rw = rw
        self.absent_sites = [(m, a) for _, m, a, _, _ in SITES if not hasattr(getattr(rw, m), a)]
        present = {name for name, m, a, _, _ in SITES if (m, a) not in self.absent_sites}
        self.absent = sorted({name for name, *_ in SITES} - present)
        self._paused = False
        self._stack = []
        self.reset()

    def reset(self):
        """Start a new pass; call it before `installed`, which binds the spans."""
        self.spans = {(m, a): Span() for _, m, a, _, _ in SITES if (m, a) not in self.absent_sites}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.times = {"rewrite.normal_form_s": 0.0}

    @contextlib.contextmanager
    def installed(self):
        """Replace every present call site by a recording wrapper; restore on exit."""
        saved = []
        try:
            for _, mod_name, attr, hook, _ in SITES:
                if (mod_name, attr) in self.spans:
                    mod = getattr(self.rw, mod_name)
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(self.spans[mod_name, attr], fn, hook))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded, e.g. while outputs are checked."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, span: Span, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                span.calls += 1
                span.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if result is not None:
                span.hits += 1
            if hook is not None:
                hook(self, args, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        """Counts (which must repeat exactly for the same inputs) and times of one pass,
        summed over each metric's call sites."""
        counts = dict(self.counts)
        times = dict(self.times)
        for name, mod_name, attr, _, _ in SITES:
            span = self.spans.get((mod_name, attr))
            if span is not None:
                for key, value in ((".calls", span.calls), (".hits", span.hits),
                                   (".errors", span.errors)):
                    counts[name + key] = counts.get(name + key, 0) + value
                times[name + ".self_s"] = times.get(name + ".self_s", 0.0) + span.self_s
        return {"counts": counts, "times": times}

    def unhit(self, workload: str) -> list:
        """Present call sites this workload must reach but did not."""
        return [f"{m}.{a}" for _, m, a, _, must in SITES
                if workload in must and (m, a) in self.spans and self.spans[m, a].calls == 0]


def layer_metrics(counts: dict, times: dict) -> dict:
    """Per-layer metric values (name -> (value, unit)) of one traced pass."""
    out = {}
    names = sorted({k[:-len(".calls")] for k in counts if k.endswith(".calls")})
    for name in names:
        out[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        out[f"{name}.self_s"] = (times[f"{name}.self_s"], "s")
    for metric, name in RATIOS.items():
        if f"{name}.calls" in counts:
            calls = counts[f"{name}.calls"]
            out[metric] = (counts[f"{name}.hits"] / calls if calls else 0.0, "ratio")
    for name, source in COUNTERS.items():
        if f"{source}.calls" in counts:
            out[name] = (counts[name], "count")
    if "rewrite.evaluate_steps.calls" in counts:
        out["rewrite.eval_errors"] = (counts["rewrite.evaluate_steps.errors"], "count")
        steps = counts["rewrite.steps"]
        out["rewrite.us_per_step"] = (
            times["rewrite.normal_form_s"] / steps * 1e6 if steps else 0.0, "us")
    return out
