"""The benchmark's workloads: learn_scale, eval_long and seed_cli.

A workload is built from a seed, and the same seed gives the same inputs;
rwlearn receives only the generated inputs.  `ops` is one sweep: a fixed list
of operations, each a timed call into rwlearn plus an untimed check of its
result against the plain-Python reference in `oracle`.  Every rwlearn function
is looked up on its module at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from typing import Callable

import oracle

# far above the step count of every input here; reaching it fails the operation
STEP_LIMIT = 1_000_000


@dataclass
class Outcome:
    rules: int = 0       # rules of the system the operation learned
    steps: int = 0       # rewrite steps of learned systems, timed for steps_per_s
    eval_s: float = 0.0  # the time those steps took


@dataclass
class Op:
    label: str
    run: Callable[[], object]                 # the timed part
    check: Callable[[object, float], Outcome]  # (result, run seconds); raises Mismatch


class _Terms:
    """Builds rwlearn terms and sort environments from Python values."""

    def __init__(self, rw):
        t = rw.terms
        self.App, self.Var, self.Eq, self.Sig = t.App, t.Var, t.IOEquation, t.Signature
        alt = t.ConstructorAlt
        nat = (alt("0"), alt("s", ("nat",)))
        self.nat_env = t.SortEnv({"nat": nat})
        self.tree_env = t.SortEnv({"tree": (alt("nl"), alt("nd", ("tree", "nat", "tree"))),
                                   "nat": nat})

    def nat(self, n: int):
        t = self.App("0")
        for _ in range(n):
            t = self.App("s", (t,))
        return t

    def lst(self, xs):
        t = self.App("nil")
        for x in reversed(xs):
            t = self.App("cons", (self.nat(x), t))
        return t

    def tree(self, shape, elem):
        """Shape None is a leaf, (left, right) an inner node; elem() gives each element."""
        if shape is None:
            return self.App("nl")
        left = self.tree(shape[0], elem)
        return self.App("nd", (left, elem(), self.tree(shape[1], elem)))

    def ground(self, t, values: dict):
        if isinstance(t, self.Var):
            return values[t.name]
        return self.App(t.head, tuple(self.ground(a, values) for a in t.args))


def random_shape(rng: random.Random, nodes: int):
    if nodes == 0:
        return None
    left = rng.randrange(nodes)
    return (random_shape(rng, left), random_shape(rng, nodes - 1 - left))


def shape_set(rng: random.Random, count: int, max_nodes: int = 7) -> list:
    """At least `count` distinct tree shapes: random trees of up to max_nodes inner
    nodes and all their subtrees.  Such sets let the learner derive every
    auxiliary example of size; sets drawn shape by shape often do not."""
    nodes = {None: 0}
    shapes = [None]

    def add(shape):
        if shape not in nodes:
            add(shape[0])
            add(shape[1])
            nodes[shape] = nodes[shape[0]] + nodes[shape[1]] + 1
            shapes.append(shape)

    while len(shapes) < count:
        add(random_shape(rng, rng.randint(1, max_nodes)))
    rng.shuffle(shapes)
    return [(s, nodes[s]) for s in shapes]


def size_examples(terms: _Terms, rng: random.Random, count: int) -> list:
    """size i/o equations over `count` shapes; element variables are distinct per example."""
    examples = []
    for shape, n in shape_set(rng, count):
        names = iter(range(n))
        lhs = terms.tree(shape, lambda: terms.Var(f"e{next(names)}"))
        examples.append(terms.Eq("size", (lhs,), terms.nat(n)))
    return examples


def _learn(rw, fn, examples, env, sigs, cfg=None):
    """induce, then prune_irrelevant_args: what a library user runs to learn fn."""
    report = rw.learner.induce(fn, examples, env, sigs, cfg)
    if not report.success:
        return report, None
    return report, rw.simplify.prune_irrelevant_args(report.system, keep={fn})


def _held_out(rw, system, sig, inputs) -> Outcome:
    """Evaluate a learned system on each input against the reference, timing each call."""
    outcome = Outcome(rules=len(system.rules))
    for args in inputs:
        start = time.perf_counter()
        out, steps = rw.rewrite.evaluate_steps(system, rw.terms.App(sig.name, args), STEP_LIMIT)
        outcome.eval_s += time.perf_counter() - start
        outcome.steps += steps
        oracle.check(sig.name, args, sig.domain, sig.range, out)
    return outcome


class LearnScale:
    """induce plus prune on generated example sets of a size where auxiliary
    derivation and coverage dominate: add over all pairs a, b < 16 with
    a + b < 18 (165 examples) in seeded order, and size over twelve seeded sets
    of about 75 tree shapes of up to 7 nodes.  Each learned system is checked on
    held-out inputs larger than any example, outside the timed operation."""

    name = "learn_scale"
    tail_pct = 75
    sweeps_per_pass = 1
    setup_rules = 0

    def __init__(self, rw, seed: int, root):
        self.rw = rw
        rng = random.Random(seed)
        t = self.terms = _Terms(rw)
        add_sig = t.Sig("add", ("nat", "nat"), "nat")
        size_sig = t.Sig("size", ("tree",), "nat")
        pairs = [(a, b) for a in range(16) for b in range(16) if a + b < 18]
        rng.shuffle(pairs)
        add_examples = [t.Eq("add", (t.nat(a), t.nat(b)), t.nat(a + b)) for a, b in pairs]
        add_held = [(t.nat(a), t.nat(b)) for a, b in ((17, 30), (30, 17), (24, 23))]
        elem = lambda: t.nat(rng.randrange(4))
        size_held = [(t.tree(random_shape(rng, n), elem),) for n in (10, 15, 20)]
        # Twelve size sets of one size: the median and the tail op then spread
        # over many seeded sets instead of resting on one or two.
        self.tasks = [("add", add_examples, t.nat_env, add_sig, add_held)] + [
            ("size", size_examples(t, rng, 75), t.tree_env, size_sig, size_held)
            for _ in range(12)]
        rng.shuffle(self.tasks)

    def _op(self, label, fn, examples, env, sig, held) -> Op:
        def run():
            return _learn(self.rw, fn, examples, env, [sig])

        def check(result, seconds):
            report, system = result
            if system is None:
                raise oracle.Mismatch(f"{fn}: synthesis failed ({report.failure.reason})")
            return _held_out(self.rw, system, sig, held)

        return Op(label, run, check)

    def ops(self) -> list:
        return [self._op(f"{task[0]}#{i}/{len(task[1])}", *task)
                for i, task in enumerate(self.tasks)]

    def warm_up(self):
        t = self.terms
        pairs = [(a, b) for a in range(3) for b in range(3)]
        examples = [t.Eq("add", (t.nat(a), t.nat(b)), t.nat(a + b)) for a, b in pairs]
        op = self._op("warm-up", "add", examples, t.nat_env, t.Sig("add", ("nat", "nat"), "nat"),
                      [(t.nat(3), t.nat(4))])
        op.check(op.run(), 0.0)


class EvalLong:
    """evaluate_steps of learned systems on long ground inputs, a fixed size
    ladder per seed: rev on two lists of each length 25, 30, .., 60, add on
    operand pairs (a, 100 - a) for a = 20, 25, .., 80, size on four random
    trees of each of 20, 25, .., 60 nodes.  Several inputs of each size keep
    the median and tail op from resting on one seeded input.  rev and add are learned from problems/*.tl, size from 70 generated
    shapes, because the system learned from problems/size.tl is stuck on
    trees outside its 9 examples."""

    name = "eval_long"
    tail_pct = 90
    sweeps_per_pass = 1

    def __init__(self, rw, seed: int, root):
        self.rw = rw
        rng = random.Random(seed)
        t = self.terms = _Terms(rw)
        self.systems = {}
        for fn in ("rev", "add"):
            problem = rw.dsl.parse_problem((root / "problems" / f"{fn}.tl").read_text())
            self._learned(fn, problem.target_signature, _learn(
                rw, fn, problem.examples, problem.sort_env, problem.signatures, problem.config))
        size_sig = t.Sig("size", ("tree",), "nat")
        self._learned("size", size_sig, _learn(
            rw, "size", size_examples(t, rng, 70), t.tree_env, [size_sig]))
        self.setup_rules = sum(len(system.rules) for system, _ in self.systems.values())

        elem = lambda: t.nat(rng.randrange(4))
        self.inputs = [("rev", (t.lst([rng.randrange(4) for _ in range(n)]),))
                       for n in range(25, 61, 5) for _ in range(2)]
        self.inputs += [("add", (t.nat(a), t.nat(100 - a))) for a in range(20, 81, 5)]
        self.inputs += [("size", (t.tree(random_shape(rng, n), elem),))
                        for n in range(20, 61, 5) for _ in range(4)]
        rng.shuffle(self.inputs)

    def _learned(self, fn, sig, result):
        report, system = result
        if system is None:
            raise oracle.Mismatch(f"set-up: learning {fn} failed ({report.failure.reason})")
        self.systems[fn] = (system, sig)

    def _op(self, fn, args) -> Op:
        system, sig = self.systems[fn]
        term = self.rw.terms.App(fn, args)

        def run():
            return self.rw.rewrite.evaluate_steps(system, term, STEP_LIMIT)

        def check(result, seconds):
            out, steps = result
            oracle.check(fn, args, sig.domain, sig.range, out)
            return Outcome(steps=steps, eval_s=seconds)

        return Op(fn, run, check)

    def ops(self) -> list:
        return [self._op(fn, args) for fn, args in self.inputs]

    def warm_up(self):
        t = self.terms
        for fn, args in (("rev", (t.lst([1, 2, 3]),)), ("add", (t.nat(2), t.nat(3))),
                         ("size", (t.tree(((None, None), None), lambda: t.nat(1)),))):
            op = self._op(fn, args)
            op.check(op.run(), 0.0)


# The runs of scripts/run_all_problems.py: (file, options, exit code, failure reason).
RUNS = [
    ("add.tl", [], 0, None),
    ("size.tl", [], 0, None),
    ("size.tl", ["--depth", "3"], 0, None),
    ("size.tl", ["--depth", "2"], 1, "underivable-aux-examples"),
    ("rev.tl", [], 0, None),
    ("dup.tl", [], 0, None),
    ("dup.tl", ["--inline", "--whole-set-lgg"], 0, None),
    ("lgth.tl", ["--inline", "--whole-set-lgg"], 0, None),
    ("sq.tl", [], 1, "underivable-aux-examples"),
    ("badd.tl", [], 1, "underivable-aux-examples"),
]


# ground instances of each example a learned system is checked on; several,
# so that steps_per_s rests on more than a few evaluations of microseconds
GROUNDINGS = 4


class SeedCli:
    """The ten runs of scripts/run_all_problems.py, in-process through
    rwlearn.cli.main with --no-trace and --json, in seed-permuted order.  Each
    is checked for its exit code and a JSON report that parses; a failure for
    its reason, a success by evaluating the exported rules on ground instances
    of the problem's examples."""

    name = "seed_cli"
    tail_pct = 99
    sweeps_per_pass = 10
    setup_rules = 0

    def __init__(self, rw, seed: int, root):
        self.rw = rw
        rng = random.Random(seed)
        self.terms = _Terms(rw)
        self.problems = root / "problems"
        self.json_path = root / ".bench_tmp" / "report.json"
        self.json_path.parent.mkdir(exist_ok=True)
        self.instances = {}
        for name in sorted({run[0] for run in RUNS}):
            problem = rw.dsl.parse_problem((self.problems / name).read_text())
            self.instances[name] = []
            for _ in range(GROUNDINGS):
                values = {v: self.terms.nat(rng.randrange(4)) for v in sorted(problem.var_sorts)}
                self.instances[name] += [tuple(self.terms.ground(a, values) for a in ex.lhs_args)
                                         for ex in problem.examples]
        self.runs = list(RUNS)
        rng.shuffle(self.runs)

    def _op(self, name, opts, expected, reason) -> Op:
        argv = [str(self.problems / name), "--no-trace", *opts, "--json", str(self.json_path)]
        label = " ".join([name, *opts])

        def run():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return self.rw.cli.main(argv)

        def check(code, seconds):
            try:
                if code != expected:
                    raise oracle.Mismatch(f"{label}: exit {code}, expected {expected}")
                doc = json.loads(self.json_path.read_text())
            finally:
                self.json_path.unlink(missing_ok=True)
            if expected:
                if doc["failure"]["reason"] != reason:
                    raise oracle.Mismatch(f"{label}: failed with {doc['failure']['reason']}")
                return Outcome()
            return self._check_system(label, doc, self.instances[name])

        return Op(label, run, check)

    def _check_system(self, label, doc, instances) -> Outcome:
        cli, rewrite, terms = self.rw.cli, self.rw.rewrite, self.rw.terms
        if not doc["success"] or not doc["rules"]:
            raise oracle.Mismatch(f"{label}: report has no learned rules")
        sigs = [terms.Signature(s["name"], tuple(s["domain"]), s["range"])
                for s in doc["signatures"] + doc["aux_signatures"]]
        rules = [rewrite.Rule(cli.term_from_json(r["lhs"]), cli.term_from_json(r["rhs"]))
                 for r in doc["rules"]]
        target = next(s for s in sigs if s.name == doc["target"])
        return _held_out(self.rw, rewrite.RewriteSystem(rules, sigs), target, instances)

    def ops(self) -> list:
        return [self._op(*run) for run in self.runs]

    def warm_up(self):
        op = self._op(*RUNS[0])
        op.check(op.run(), 0.0)


WORKLOADS = {w.name: w for w in (LearnScale, EvalLong, SeedCli)}
