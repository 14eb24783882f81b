"""Post-synthesis cleanup of learned rewrite systems.

Two passes: fixpoint removal of irrelevant auxiliary arguments, and inlining
of single-rule auxiliaries.  Both preserve the evaluation result on every
term the original system could evaluate; functions listed in `keep` (the
user-facing target) are never changed in arity or removed.
"""

from __future__ import annotations

from .rewrite import RewriteSystem, Rule
from .terms import App, Signature, Term, Var, fold, substitute, subterms


def prune_irrelevant_args(sys: RewriteSystem, keep=()) -> RewriteSystem:
    """Drop auxiliary argument positions that can never influence any result.

    A position (g, j) is relevant iff some rule of g has a non-variable lhs
    pattern at j, or its lhs variable occurs in the rhs outside the irrelevant
    argument positions of defined-function calls.  The greatest irrelevant set
    is computed by fixpoint, then signatures, patterns and all call sites are
    rewritten in one pass.
    """
    keep = set(keep)
    irrelevant: set[tuple] = {
        (sig.name, j)
        for sig in sys.signatures
        if sig.name not in keep
        for j in range(sig.arity)
    }

    def used(u: App, names: list) -> set:
        """The variables of u outside the irrelevant argument positions of defined calls."""
        if sys.is_defined(u.head):
            names = [n for j, n in enumerate(names) if (u.head, j) not in irrelevant]
        # each set is fresh and has one parent, so the largest takes in the rest
        out = max(names, key=len, default=set())
        out.update(*(n for n in names if n is not out))
        return out

    changed = True
    while changed:
        changed = False
        for rule in sys.rules:
            head, pats = rule.lhs.head, rule.lhs.args
            if not any((head, j) in irrelevant for j in range(len(pats))):
                continue
            outside = fold(rule.rhs, lambda v: {v.name}, used)
            for j, pat in enumerate(pats):
                if (head, j) in irrelevant and (pat.__class__ is App or pat.name in outside):
                    irrelevant.discard((head, j))
                    changed = True

    if not irrelevant:
        return sys

    def strip(u: App, args) -> App:
        return App(u.head, tuple(a for j, a in enumerate(args) if (u.head, j) not in irrelevant))

    # below its root an lhs holds no defined symbol
    rules = [Rule(strip(r.lhs, r.lhs.args), fold(r.rhs, lambda v: v, strip)) for r in sys.rules]
    signatures = [
        Signature(s.name,
                  tuple(d for j, d in enumerate(s.domain) if (s.name, j) not in irrelevant),
                  s.range)
        for s in sys.signatures
    ]
    return RewriteSystem(rules, signatures)


def inline_single_rule_aux(sys: RewriteSystem, keep=()) -> RewriteSystem:
    """Inline every auxiliary defined by one rule over distinct variable patterns.

    Calls are replaced by the rule's rhs with actuals substituted in; the
    auxiliary's rule and signature disappear once no call remains.  Terminates
    because learner-produced auxiliary call graphs are acyclic.
    """
    keep = set(keep)
    rules = list(sys.rules)
    signatures = list(sys.signatures)
    while True:
        target = None
        for sig in signatures:
            if sig.name in keep:
                continue
            own = [r for r in rules if r.lhs.head == sig.name]
            if len(own) != 1:
                continue
            pats = own[0].lhs.args
            callers = [r for r in rules
                       if any(isinstance(u, App) and u.head == sig.name for u in subterms(r.rhs))]
            if (callers and own[0] not in callers and all(isinstance(p, Var) for p in pats)
                    and len({p.name for p in pats}) == len(pats)):
                target = (sig, own[0])
                break
        if target is None:
            break
        sig, rule = target
        params = [p.name for p in rule.lhs.args]

        def expand(u: App, args: list) -> Term:
            if u.head == sig.name:
                return substitute(rule.rhs, dict(zip(params, args)))
            return App(u.head, tuple(args))

        rules = [r if r is rule else Rule(r.lhs, fold(r.rhs, lambda v: v, expand)) for r in rules]
        rules.remove(rule)
        signatures.remove(sig)
    return RewriteSystem(rules, signatures)
