"""Bounded innermost evaluation of rewrite systems and the coverage test.

A rewrite system is an ordered list of rules over a set of function
signatures.  Evaluation rewrites the leftmost-innermost redex with the first
matching rule, so it is a deterministic function of (system, term, limit).
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (App, IOEquation, Term, Var, match_pattern, render_term, substitute, subterms,
                    term_vars)


class EvalError(Exception):
    pass


class StepLimitExceeded(EvalError):
    def __init__(self, limit: int):
        super().__init__(f"no normal form within {limit} rewrite steps")
        self.limit = limit


class StuckTerm(EvalError):
    """Rendered only when read: coverage checks catch and drop most of these."""

    def __init__(self, term: Term):
        super().__init__(term)
        self.term = term

    def __str__(self):
        return f"no rule applies to {render_term(self.term)}"


class RuleError(ValueError):
    pass


@dataclass(frozen=True)
class Rule:
    lhs: App
    rhs: Term

    def render(self) -> str:
        return f"{render_term(self.lhs)}={render_term(self.rhs)}"


def rule_defect(rule: Rule, defined) -> str | None:
    """Why rule cannot join a system that defines the names in `defined`, or None.

    The lhs head must be defined, lhs arguments must be left-linear patterns
    of constructors and variables, and every rhs variable must occur on the
    lhs.
    """
    head = rule.lhs.head
    if head not in defined:
        return f"lhs head {head} has no signature"
    seen: set[str] = set()
    for a in rule.lhs.args:
        for sub in subterms(a):
            if isinstance(sub, Var):
                if sub.name in seen:
                    return f"non-left-linear lhs of {head}: variable {sub.name} repeats"
                seen.add(sub.name)
            elif sub.head in defined:
                return f"defined symbol {sub.head} inside lhs pattern"
    for v in term_vars(rule.rhs):
        if v not in seen:
            return f"unbound rhs variable {v} in a rule of {head}"
    return None


class RewriteSystem:
    """Immutable ordered rule list plus the signatures of all defined symbols.

    Every rule must pass `rule_defect` against the declared names.
    """

    def __init__(self, rules, signatures):
        self.signatures = tuple(signatures)
        self.sig_by_name = {s.name: s for s in self.signatures}
        self.rules = tuple(rules)
        self._by_head: dict[str, list[Rule]] = {}
        for rule in self.rules:
            defect = rule_defect(rule, self.sig_by_name)
            if defect is not None:
                raise RuleError(defect)
            self._by_head.setdefault(rule.lhs.head, []).append(rule)

    def is_defined(self, name: str) -> bool:
        return name in self.sig_by_name

    def rules_for(self, name: str):
        return self._by_head.get(name, ())


def _rewrite_innermost(sys: RewriteSystem, t: Term):
    """One leftmost-innermost step; returns the new term or None when t is normal.

    Raises StuckTerm when an innermost defined-symbol subterm matches no rule
    (its arguments are already normal, so it can never become reducible).
    """
    if isinstance(t, Var):
        return None
    for i, a in enumerate(t.args):
        new = _rewrite_innermost(sys, a)
        if new is not None:
            return App(t.head, t.args[:i] + (new,) + t.args[i + 1:])
    if sys.is_defined(t.head):
        for rule in sys.rules_for(t.head):
            binding = match_pattern(rule.lhs, t)
            if binding is not None:
                return substitute(rule.rhs, binding)
        raise StuckTerm(t)
    return None


def evaluate_steps(sys: RewriteSystem, t: Term, step_limit: int = 10000):
    """Normal form of t together with the number of rewrite steps taken."""
    steps = 0
    while True:
        new = _rewrite_innermost(sys, t)
        if new is None:
            return t, steps
        steps += 1
        if steps > step_limit:
            raise StepLimitExceeded(step_limit)
        t = new


def evaluate(sys: RewriteSystem, t: Term, step_limit: int = 10000) -> Term:
    """Innermost-leftmost normal form; free variables are rigid atoms."""
    return evaluate_steps(sys, t, step_limit)[0]


def covers(sys: RewriteSystem, ex: IOEquation, step_limit: int = 10000) -> bool:
    """Whether evaluating the example lhs yields its rhs.

    Example variables are frozen as rigid atoms; evaluation failure (stuck
    subterm or step limit) counts as not covered, never as an exception.
    """
    try:
        return evaluate(sys, ex.lhs, step_limit) == ex.rhs
    except EvalError:
        return False


def covers_all(sys: RewriteSystem, examples, step_limit: int = 10000):
    """(all covered?, list of uncovered examples)."""
    uncovered = [ex for ex in examples if not covers(sys, ex, step_limit)]
    return not uncovered, uncovered
