"""Syntactic and depth-bounded least general generalization of term tuples.

A generalization run is parameterized by a GenStore: tuples of terms that
cannot be generalized structurally are replaced by a variable that depends
only on the tuple, so the same tuple always yields the same variable within
one run.  That coherence is what makes the result least general.
"""

from __future__ import annotations

import itertools
import math

from .rewrite import Rule, rule_defect
from .terms import App, Term, Var

INF = math.inf


class GenStore:
    """Tuple-indexed source of generalization variables for one run."""

    def __init__(self, fresh=None):
        self.entries: dict[tuple, str] = {}
        if fresh is None:
            counter = itertools.count()
            fresh = lambda: f"g{next(counter)}"
        self._fresh = fresh

    def var_for(self, ts: tuple) -> Var:
        name = self.entries.get(ts)
        if name is None:
            name = self._fresh()
            self.entries[ts] = name
        return Var(name)


def _heads_agree(ts: tuple) -> bool:
    t0 = ts[0]
    if isinstance(t0, Var):
        return all(t == t0 for t in ts)
    return all(
        isinstance(t, App) and t.head == t0.head and len(t.args) == len(t0.args)
        for t in ts
    )


def lgg(ts, store: GenStore, depth=INF, _level: int = 1) -> Term:
    """Depth-bounded least general generalization.

    The root symbol sits at depth 1; a node is kept only when all heads agree
    and its depth is still below the bound, otherwise the tuple is generalized
    by a store variable.  depth=INF gives the classical lgg.

    Built on an explicit stack of kept nodes (head, the iterator over their
    argument tuples, the generalized arguments so far, depth), so store
    variables are taken in left-to-right pre-order, as a recursive walk
    takes them.
    """
    ts = tuple(ts)
    if not ts:
        raise ValueError("lgg of an empty tuple")
    # the bottom frame stands above the root and collects its generalization
    frames = [(None, iter((ts,)), [], _level - 1)]
    while True:
        head, columns, done, level = frames[-1]
        for column in columns:
            t0 = column[0]
            if not (_heads_agree(column) and level + 1 < depth):
                done.append(store.var_for(column))
            elif t0.__class__ is App and t0.args:
                frames.append((t0.head, zip(*(t.args for t in column)), [], level + 1))
                break
            else:  # a variable or a constant shared by the whole column
                done.append(t0)
        else:
            frames.pop()
            if not frames:
                return done[0]
            frames[-1][2].append(App(head, tuple(done)))


def generalize_examples(fn: str, examples, depth=INF, fresh=None) -> Rule | None:
    """Anti-unify the i/o equations of fn into a single rule.

    Left-hand argument tuples and right-hand sides share one GenStore, so
    lhs/rhs correlations are preserved.  Arguments sit below the function
    symbol and are generalized from depth 2; the rhs from depth 1.  Returns
    None when the anti-unifier is not an admissible rule for fn (see
    `rule_defect`): its lhs is not left-linear or a rhs variable is unbound.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("no examples to generalize")
    arity = len(examples[0].lhs_args)
    if any(len(ex.lhs_args) != arity or ex.fn != fn for ex in examples):
        raise ValueError("examples disagree on function or arity")
    store = GenStore(fresh)
    lhs_args = tuple(
        lgg(tuple(ex.lhs_args[i] for ex in examples), store, depth, _level=2)
        for i in range(arity)
    )
    rhs = lgg(tuple(ex.rhs for ex in examples), store, depth, _level=1)
    rule = Rule(App(fn, lhs_args), rhs)
    return rule if rule_defect(rule, (fn,)) is None else None
