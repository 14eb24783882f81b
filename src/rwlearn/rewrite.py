"""Bounded innermost evaluation of rewrite systems and the coverage test.

A rewrite system is an ordered list of rules over a set of function
signatures.  Evaluation rewrites the leftmost-innermost redex with the first
matching rule, so it is a deterministic function of (system, term, limit).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not

from .terms import (App, IOEquation, Term, Var, cached_property, fold, match_pattern,
                    render_term, same_term, substitute, subterms)


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

    def index_entry(self, defined) -> tuple:
        """`(lhs, rhs, shape)`, shape being the rhs's `redex_skeleton` over `defined`.

        The shape depends only on which heads of the rhs are defined, so it
        is computed once for each such set and kept on the rule: systems
        built again from rules that an earlier system had reuse it.
        """
        heads, entries = self._index_entries
        key = heads.intersection(defined)
        entry = entries.get(key)
        if entry is None:
            entry = entries[key] = (self.lhs, self.rhs, redex_skeleton(self.rhs, defined))
        return entry

    @cached_property
    def _index_entries(self) -> tuple:
        """The heads of the rhs, and the index entries made so far by the defined ones among them."""
        return frozenset(u.head for u in subterms(self.rhs) if u.__class__ is App), {}

    @cached_property
    def _admission(self) -> tuple:
        """What `rule_defect` needs to know of the rule alone, from one walk of each side.

        The heads inside the lhs arguments up to a repeated variable, in
        pre-order, and the first defect that no signature can mend, or None:
        a repeated lhs variable, else an rhs variable that the lhs does not
        bind.  A defined head among those heads is named before that defect,
        as one pre-order walk with the signatures would name it.
        """
        head = self.lhs.head
        heads: dict[str, None] = {}
        seen: set[str] = set()
        for a in self.lhs.args:
            for sub in subterms(a):
                if sub.__class__ is App:
                    heads[sub.head] = None
                elif sub.name in seen:
                    return heads, f"non-left-linear lhs of {head}: variable {sub.name} repeats"
                else:
                    seen.add(sub.name)
        for sub in subterms(self.rhs):
            if sub.__class__ is Var and sub.name not in seen:
                return heads, f"unbound rhs variable {sub.name} in a rule of {head}"
        return heads, None


def rule_defect(rule: Rule, defined) -> str | None:
    """Why rule cannot join a system that defines the names in `defined`, or None.

    The lhs head must be defined, lhs arguments must be left-linear patterns
    of constructors and variables, and every rhs variable must occur on the
    lhs.  When `defined` maps the names to their signatures, the lhs must
    also have as many arguments as its head's signature has domain sorts.
    Of several defects in the lhs arguments, the first in pre-order is named.
    The rule's walks are made once, by its first check.
    """
    head = rule.lhs.head
    if head not in defined:
        return f"lhs head {head} has no signature"
    if isinstance(defined, dict) and len(rule.lhs.args) != defined[head].arity:
        return (f"lhs of {head} has {len(rule.lhs.args)} arguments, "
                f"but {head} has arity {defined[head].arity}")
    heads, defect = rule._admission
    for symbol in heads:
        if symbol in defined:
            return f"defined symbol {symbol} inside lhs pattern"
    return defect


class RewriteSystem:
    """Immutable ordered rule list plus the signatures of all defined symbols.

    Every rule must pass `rule_defect` against the declared signatures.

    `index` maps each defined symbol to the rules that may match a term it
    heads (first-argument indexing, generalised to the first position that
    has a constructor in every rule of the symbol): `(position, {constructor:
    rules})`, or `(None, rules)` when no position has one.  Each list keeps
    rule order, and holds each rule as an `(lhs, rhs, shape)` triple, where
    shape is the rhs's `redex_skeleton`.  Rules in different buckets cannot
    match the same term, so trying a term's bucket first to last finds the
    rule a scan finds.

    A system is cold until the `evaluate_steps` calls on it without a table
    have taken `HOT_STEPS` steps in all, as it stood when the system was
    built (`steps_to_hot` counts down).  Then it is hot, and such calls whose
    input is a defined call over normal arguments run `compiled`, the
    evaluator that `codegen.compile_system` generates for it when one first
    needs it.  Tabled calls neither count nor run it, and the generic loop
    of `evaluate_steps` walks every other input, hot or cold.
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
        self.index = {name: _index_rules(self.rules_for(name), self.sig_by_name)
                      for name in self.sig_by_name}
        self.steps_to_hot = HOT_STEPS

    def is_defined(self, name: str) -> bool:
        return name in self.sig_by_name

    def rules_for(self, name: str):
        return self._by_head.get(name, ())

    @cached_property
    def compiled(self):
        from .codegen import compile_system  # loaded by the first system that turns hot
        return compile_system(self)


def _index_rules(rules, defined) -> tuple:
    """`RewriteSystem.index` entry of one symbol's rules, given the defined symbols."""
    entries = [rule.index_entry(defined) for rule in rules]
    arity = min((len(rule.lhs.args) for rule in rules), default=0)
    for i in range(arity):
        if all(rule.lhs.args[i].__class__ is App for rule in rules):
            buckets: dict[str, list[tuple]] = {}
            for rule, entry in zip(rules, entries):
                buckets.setdefault(rule.lhs.args[i].head, []).append(entry)
            return i, buckets
    return None, entries


# The shape of a position whose instances are always normal.
NORMAL = Var("")


def redex_skeleton(rhs: Term, defined) -> tuple | None:
    """The argument shapes that `evaluate_steps` walks in an instance of rhs.

    Every instance of a subterm without a symbol in `defined` is normal, as
    rule variables are bound to normal terms, so its shape is `NORMAL`.  A
    defined call whose arguments all have that shape becomes an App with no
    arguments: its frame pops at once and it is contracted.  Any other App
    keeps its head and the shapes of its arguments.  None when all of rhs is
    `NORMAL`: its instance is a normal form as it stands.
    """
    def shape(u: App, shapes: list):
        if all(sub is NORMAL for sub in shapes):
            return App(u.head) if u.head in defined else NORMAL
        return App(u.head, tuple(shapes))

    skeleton = fold(rhs, lambda v: NORMAL, shape)
    return None if skeleton is NORMAL else skeleton.args


# A system turns hot once its untabled evaluate_steps calls have taken this
# many steps: generating and compiling its evaluator costs about as much as
# a few hundred generic steps, so systems that take few steps stay cold.
HOT_STEPS = 2000


def evaluate_steps(sys: RewriteSystem, t: Term, step_limit: int = 10000, table=None,
                   normal_args: bool = False):
    """Normal form of t together with the number of rewrite steps taken.

    Call by value: the arguments of an App are normalised left to right,
    then a defined root is contracted with the first rule that matches, of
    those in its `RewriteSystem.index` bucket, and the contractum is
    normalised in turn.  The contractum is not built first: only its parts
    are, each once, and a defined call in it is contracted as soon as its
    arguments are normal.  This contracts the leftmost-innermost redex at
    every step without going back to the root, so a step costs the part of
    its rule's rhs that can hold a redex, not the size of the term.

    An untabled call on a hot sys whose t is a defined call over normal
    arguments runs `sys.compiled`, which does all this in code generated
    for sys's rules.  Any other call, whatever the tier, runs the generic
    loop below, over an explicit stack: it matches by `match_pattern`, and
    walks the rule's rhs with the binding along its `shape`, the positions
    that hold a defined call or lie above one.  A normal part of the rhs is
    instantiated by `substitute` (a variable is read from the binding) when
    the walk reaches it, a defined call over normal arguments is
    instantiated and contracted at once, and a node above a call is built
    once, over the normal forms of its arguments.  Both contract the same
    redexes with the same rules.  With normal_args the caller vouches that
    t's arguments are normal, and neither tier scans or walks them.

    Raises StuckTerm when a defined-symbol subterm with normal arguments
    matches no rule (it can never become reducible), and StepLimitExceeded
    on the step after the limit.

    table, a dict owned by the caller, tables redexes across calls on the
    same system: each redex contracted is recorded with its normal form, or
    the stuck term it ends in, and the number of steps that took.  A redex
    found there is not contracted again, but its steps are counted, so the
    result, the step count and the exception are those of an untabled call.
    A redex still open when StepLimitExceeded fires is not recorded.
    """
    if isinstance(t, Var):
        return t, 0
    if table is None and sys.steps_to_hot <= 0 and t.head in sys.index and (
            normal_args or _normal_args(t, sys.index)):
        return sys.compiled(t, step_limit)
    index = sys.index
    steps = 0
    # One frame per App being normalised: the App, a shape whose Var
    # positions mark the arguments already known to be normal, the normal
    # forms of the arguments done so far, the redexes that reduce to this
    # App's normal form when tabling, each with the step count before its
    # contraction, and a binding.  With a binding the frame holds a rhs node
    # and its redex skeleton, and stands for the node's instance: a normal
    # argument is instantiated when it is reached, and the instance is built
    # once, when the frame pops.  A subterm of t has no binding.
    frames = [(t, (), list(t.args), None, None) if normal_args else (t, t.args, [], None, None)]
    try:
        while True:
            term, shape, done, opened, binding = frames[-1]
            i = len(done)
            if i < len(shape):
                arg = term.args[i]
                sub = shape[i]
                if sub.__class__ is Var:
                    done.append(arg if binding is None else binding[arg.name]
                                if arg.__class__ is Var else substitute(arg, binding)
                                if arg.args else arg)
                    continue
                if sub.args:
                    frames.append((arg, sub.args, [], None, binding))
                    continue
                # an App with no argument to walk (in a rhs, a defined call over
                # normal arguments; in t, a constant) needs no frame of its own
                # and goes straight on to contraction
                term = arg if binding is None else substitute(arg, binding)
                opened = None
            else:
                frames.pop()
                if binding is not None or any(map(is_not, done, term.args)):
                    term = App(term.head, tuple(done))
            entry = index.get(term.head)
            if entry is not None:
                known = None if table is None else table.get(term)
                if known is None:
                    position, rules = entry
                    if position is not None:
                        # a variable there, or too few arguments, matches no rule
                        key = term.args[position] if position < len(term.args) else None
                        rules = rules.get(key.head, ()) if key.__class__ is App else ()
                    for lhs, rhs, shape in rules:
                        binding = match_pattern(lhs, term)
                        if binding is not None:
                            break
                    else:
                        raise _stuck(term, steps, table, frames,
                                     [*(opened or ()), (term, steps)])
                    if table is not None:
                        opened = [] if opened is None else opened
                        opened.append((term, steps))
                    if steps >= step_limit:
                        raise StepLimitExceeded(step_limit)
                    steps += 1
                    if shape:
                        frames.append((rhs, shape, [], opened, binding))
                        continue
                    term = binding[rhs.name] if rhs.__class__ is Var else substitute(rhs, binding)
                    if shape is not None:
                        # the contractum is itself a call over normal arguments
                        frames.append((term, (), [], opened, None))
                        continue
                else:
                    term, taken, stuck = known
                    steps += taken
                    if steps > step_limit:
                        raise StepLimitExceeded(step_limit)
                    if stuck:
                        raise _stuck(term, steps, table, frames, opened)
            if opened:
                for redex, start in opened:
                    table[redex] = (term, steps - start, False)
            if not frames:
                return term, steps
            frames[-1][2].append(term)
    finally:
        if table is None:  # what it took counts toward sys turning hot, however it ended
            sys.steps_to_hot -= steps


def _normal_args(t: App, defined) -> bool:
    """Whether no argument of t holds a symbol in defined, by one scan without recursion."""
    scan = list(t.args)
    while scan:
        a = scan.pop()
        if a.__class__ is App:
            if a.head in defined:
                return False
            scan += a.args
    return True


def _stuck(term: App, steps: int, table, frames, opened) -> StuckTerm:
    """StuckTerm(term), after tabling every redex still open as stuck in term."""
    if table is not None:
        for pending in [opened, *(frame[3] for frame in frames)]:
            for redex, start in pending or ():
                table[redex] = (term, steps - start, True)
    return StuckTerm(term)


def evaluate(sys: RewriteSystem, t: Term, step_limit: int = 10000) -> Term:
    """Innermost-leftmost normal form; free variables are rigid atoms."""
    return evaluate_steps(sys, t, step_limit)[0]


def covers(sys: RewriteSystem, ex: IOEquation, step_limit: int = 10000, table=None) -> bool:
    """Whether evaluating the example lhs yields its rhs.

    Example variables are frozen as rigid atoms; evaluation failure (stuck
    subterm or step limit) counts as not covered, never as an exception.
    table is passed on to evaluate_steps.
    """
    try:
        normal_form, _ = evaluate_steps(sys, ex.lhs, step_limit, table,
                                        ex.arg_heads.isdisjoint(sys.sig_by_name))
    except EvalError:
        return False
    return same_term(normal_form, ex.rhs)


def covers_all(sys: RewriteSystem, examples, step_limit: int = 10000, table=None):
    """(all covered?, list of uncovered examples).

    The examples share one table of redex normal forms, so work that one
    example's evaluation shares with another's is done once.  table, when
    given, is that table: a dict owned by the caller, which may hold entries
    already and gets the new ones.  Each entry must be what an evaluation on
    sys with step_limit would record for its redex (see `evaluate_steps`),
    or the result is not that of a fresh table.
    """
    if table is None:
        table = {}
    uncovered = [ex for ex in examples if not covers(sys, ex, step_limit, table)]
    return not uncovered, uncovered
