"""Post-synthesis cleanup of learned rewrite systems.

Two passes: fixpoint removal of irrelevant auxiliary arguments, and inlining
of single-rule auxiliaries.  Both preserve the evaluation result on every
term the original system could evaluate; functions listed in `keep` (the
user-facing target) are never changed in arity or removed.
"""

from __future__ import annotations

from .rewrite import RewriteSystem, Rule
from .terms import App, Signature, Term, Var, substitute, subterms


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

    def occurs_outside_irrelevant(var: str, t: Term) -> bool:
        if isinstance(t, Var):
            return t.name == var
        for j, a in enumerate(t.args):
            if sys.is_defined(t.head) and (t.head, j) in irrelevant:
                continue
            if occurs_outside_irrelevant(var, a):
                return True
        return False

    changed = True
    while changed:
        changed = False
        for rule in sys.rules:
            for j, pat in enumerate(rule.lhs.args):
                if (rule.lhs.head, j) not in irrelevant:
                    continue
                relevant = (not isinstance(pat, Var)
                            or occurs_outside_irrelevant(pat.name, rule.rhs))
                if relevant:
                    irrelevant.discard((rule.lhs.head, j))
                    changed = True

    if not irrelevant:
        return sys

    def strip(t: Term) -> Term:
        if isinstance(t, Var):
            return t
        args = tuple(
            strip(a)
            for j, a in enumerate(t.args)
            if (t.head, j) not in irrelevant
        )
        return App(t.head, args)

    rules = [Rule(strip(r.lhs), strip(r.rhs)) for r in sys.rules]
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

        def expand(t: Term) -> Term:
            if isinstance(t, Var):
                return t
            args = tuple(expand(a) for a in t.args)
            if t.head == sig.name:
                return substitute(rule.rhs, dict(zip(params, args)))
            return App(t.head, args)

        rules = [r if r is rule else Rule(r.lhs, expand(r.rhs)) for r in rules]
        rules.remove(rule)
        signatures.remove(sig)
    return RewriteSystem(rules, signatures)
