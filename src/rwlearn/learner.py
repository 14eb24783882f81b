"""Recursive synthesis of structurally recursive rewrite definitions.

For a target function and a chosen argument position, the examples are split
per constructor of that position's sort.  Each subset is first anti-unified;
when the resulting candidate is not executable and the constructor has
recursive arguments, a structural recursion scheme introduces a fresh
auxiliary function whose i/o equations are derived from the target's, and the
auxiliary is learned recursively.  A position succeeds when the assembled
system covers every given example.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from operator import is_

from .antiunify import INF, generalize_examples
from .rewrite import RewriteSystem, Rule, covers_all
from .terms import (
    App,
    ConstructorAlt,
    Frozen,
    IOEquation,
    Record,
    Signature,
    SortEnv,
    Term,
    Var,
    blind_form,
    cached_property,
    classify_args,
    init_field,
    intern,
    match_pattern,
    render_term,
    renaming_key,
    renaming_match,
    substitute,
)


class FreshNames:
    """Single monotone counter for fresh variable and function names.

    Generated names (v<N>, f<N>) skip anything in the reserved set, so they
    never collide with user symbols or variables.
    """

    def __init__(self, reserved=()):
        self.reserved = set(reserved)
        self._n = 0

    def _next(self, prefix: str) -> str:
        while True:
            self._n += 1
            name = f"{prefix}{self._n}"
            if name not in self.reserved:
                self.reserved.add(name)
                return name

    def var(self) -> str:
        return self._next("v")

    def fn(self) -> str:
        return self._next("f")


class InduceConfig(Record):
    __slots__ = _fields = ("depth", "max_aux_functions", "max_recursion_depth", "step_limit",
                           "try_whole_set_lgg_first")

    def __init__(self, depth: float = INF, max_aux_functions: int = 50,
                 max_recursion_depth: int = 10, step_limit: int = 10000,
                 try_whole_set_lgg_first: bool = False):
        if depth != INF:
            depth = int(depth)
            if depth < 1:
                raise ValueError("depth must be >= 1 or INF")
        for cap in (max_aux_functions, max_recursion_depth, step_limit):
            if cap <= 0:
                raise ValueError("caps must be positive")
        self.depth = depth
        self.max_aux_functions = max_aux_functions
        self.max_recursion_depth = max_recursion_depth
        self.step_limit = step_limit
        self.try_whole_set_lgg_first = try_whole_set_lgg_first


class SchemeEquation(Frozen):
    """f(x.., c(y..), x..) = g(other xs, non-recursive ys, recursive f-calls)."""

    __slots__ = _fields = ("lhs", "rhs", "aux_sig")

    def __init__(self, lhs: App, rhs: App, aux_sig: Signature):
        init_field(self, "lhs", lhs)
        init_field(self, "rhs", rhs)
        init_field(self, "aux_sig", aux_sig)


class TraceEvent(Frozen):
    """One trace line, kept as `parts`: strings, terms, equations and tuples
    of equations.  `text` joins their renderings on first read, as most
    traces are never printed.

    Only the `new recursion scheme` text is built when the event is made,
    by two `render_term` calls per scheme: `bench/tracer.py` requires every
    workload to reach `learner.render_term` until that site can be dropped
    (ROADMAP item 20)."""

    __slots__ = ("level", "kind", "parts", "__dict__")  # `__dict__` holds `text`
    _fields = __slots__[:3]

    def __init__(self, level: int, kind: str, parts: tuple):
        init_field(self, "level", level)
        init_field(self, "kind", kind)
        init_field(self, "parts", parts)

    @cached_property
    def text(self) -> str:
        return "".join(_render_part(p) for p in self.parts)


def _render_part(part) -> str:
    if part.__class__ is str:
        return part
    if part.__class__ is tuple:
        return "[" + ",".join(ex.render() for ex in part) + "]"
    if part.__class__ is IOEquation:
        return part.render()
    return render_term(part)


class UnderivableExample(Frozen):
    __slots__ = _fields = ("aux_name", "layer", "member", "call")

    def __init__(self, aux_name: str, layer: int, member: IOEquation, call: Term):
        init_field(self, "aux_name", aux_name)
        init_field(self, "layer", layer)
        init_field(self, "member", member)
        init_field(self, "call", call)


class PositionAttempt(Record):
    __slots__ = _fields = ("fn", "position", "candidate", "uncovered")

    def __init__(self, fn: str, position: int, candidate: RewriteSystem, uncovered: list):
        self.fn = fn
        self.position = position
        self.candidate = candidate
        self.uncovered = uncovered


class FailureInfo(Record):
    __slots__ = _fields = ("reason", "underivable", "uncovered")

    def __init__(self, reason: str, underivable: list, uncovered: list):
        self.reason = reason
        self.underivable = underivable
        self.uncovered = uncovered


class InduceReport(Record):
    """The lists left out are new empty ones."""

    __slots__ = _fields = ("target", "system", "failure", "trace", "derived_aux", "attempts",
                           "warnings")

    def __init__(self, target: str, system: RewriteSystem | None = None,
                 failure: FailureInfo | None = None, trace: list | None = None,
                 derived_aux: list | None = None, attempts: list | None = None,
                 warnings: list | None = None):
        self.target = target
        self.system = system
        self.failure = failure
        self.trace = [] if trace is None else trace
        self.derived_aux = [] if derived_aux is None else derived_aux
        self.attempts = [] if attempts is None else attempts
        self.warnings = [] if warnings is None else warnings

    @property
    def success(self) -> bool:
        return self.system is not None


def split_by_constructor(examples, position: int, alt: ConstructorAlt) -> list:
    """Examples whose lhs argument at position (0-based) is headed by alt.

    A variable at that position matches no constructor.
    """
    return [ex for ex in examples if ex.lhs_args[position].head == alt.name]  # Var.head is None


def build_scheme(sig: Signature, position: int, alt: ConstructorAlt,
                 fresh: FreshNames) -> SchemeEquation:
    """Structural recursion scheme for sig at the given argument position and constructor.

    The auxiliary's arguments are: the remaining target arguments in original
    order, the non-recursive constructor arguments in constructor order, then
    one recursive target call per recursive constructor argument.
    """
    sort = sig.domain[position]
    rec, nonrec = classify_args(sort, alt)
    if not rec:
        raise ValueError(f"{alt.name} has no recursive argument")
    xs = [Var(fresh.var()) for _ in range(sig.arity - 1)]
    ys = [Var(fresh.var()) for _ in range(alt.arity)]
    aux_name = fresh.fn()

    lhs_args = list(xs)
    lhs_args.insert(position, App(alt.name, tuple(ys)))
    lhs = App(sig.name, tuple(lhs_args))

    def target_call(arg: Term) -> App:
        call_args = list(xs)
        call_args.insert(position, arg)
        return App(sig.name, tuple(call_args))

    rhs_args = list(xs) + [ys[j] for j in nonrec] + [target_call(ys[j]) for j in rec]
    other_sorts = [s for i, s in enumerate(sig.domain) if i != position]
    aux_domain = tuple(other_sorts + [alt.arg_sorts[j] for j in nonrec] + [sig.range] * len(rec))
    aux_sig = Signature(aux_name, aux_domain, sig.range)
    return SchemeEquation(lhs, App(aux_name, tuple(rhs_args)), aux_sig)


def derive_aux_examples(scheme: SchemeEquation, all_examples, subset, pool: dict):
    """Join the scheme with the matching examples to get auxiliary i/o equations.

    Each recursive target call is resolved against the lhs of some given
    example via a renaming substitution; its rhs, renamed accordingly, stands
    in for the call.  The candidates are the examples whose lhs arguments
    have the `blind_form`s of the call's, in example order: one whose lhs
    arguments are the call's own nodes resolves to its rhs as it stands, and
    `renaming_match` tries the others.  The examples are nodes of pool, and so is
    each side of an auxiliary equation: a renamed rhs is interned there.
    Members with an unresolvable call are returned as underivable.  Returns
    (aux examples, underivable members, warnings), where aux examples carry
    the originating member and the built call.
    """
    by_form: dict[tuple, list[IOEquation]] = {}
    for ex in all_examples:
        by_form.setdefault(tuple(map(blind_form, ex.lhs_args)), []).append(ex)
    derived = []
    underivable = []
    warnings = []
    for member in subset:
        binding = match_pattern(scheme.lhs, member.lhs)
        if binding is None:
            raise ValueError("subset member does not match the scheme lhs")
        args = []
        for arg in scheme.rhs.args:
            if isinstance(arg, App) and arg.head == scheme.lhs.head:
                call = substitute(arg, binding)
                value, warn = _resolve_call(
                    call, by_form.get(tuple(map(blind_form, call.args)), ()), pool)
                if warn:
                    warnings.append(warn)
                if value is None:
                    underivable.append((member, call))
                    break
                args.append(value)
            else:
                args.append(substitute(arg, binding))
        else:
            derived.append((IOEquation(scheme.aux_sig.name, tuple(args), member.rhs), member))
    return derived, underivable, warnings


def _resolve_call(call: App, examples, pool: dict):
    """First example whose lhs renames onto the call, rhs renamed into pool; warns if ambiguous.

    One whose lhs arguments are the call's own nodes gives its rhs, the identity
    renaming's instance, unmatched.  Resolutions are pool nodes: equal ones are one."""
    resolutions = []
    for ex in examples:
        if all(map(is_, ex.lhs_args, call.args)):
            resolutions.append(ex.rhs)
        elif (sigma := renaming_match(ex.lhs, call)) is not None:
            resolutions.append(ex.rhs if blind_form(ex.rhs) is ex.rhs  # ground: shared
                               else intern(substitute(ex.rhs, sigma), pool))
    if not resolutions:
        return None, None
    warn = None
    if any(r is not resolutions[0] for r in resolutions[1:]):
        warn = (f"ambiguous lookup for {render_term(call)}: "
                f"{', '.join(render_term(r) for r in resolutions)}; taking the first")
    return resolutions[0], warn


class _ExampleSet:
    """Example multiset up to variable renaming and head-symbol renaming.

    Example variables are quantified per equation, so each equation is keyed
    by its sides with the function symbol erased.  Hashed by the multiset of
    the equations' blind forms; only when those agree does `==` compare the
    multisets of their renaming keys, each computed once.
    """

    def __init__(self, examples):
        self.examples = examples
        self.blind = frozenset(Counter((*map(blind_form, ex.lhs_args), blind_form(ex.rhs))
                                       for ex in examples).items())

    @cached_property
    def renamed(self) -> Counter:
        return Counter(renaming_key(App("", (*ex.lhs_args, ex.rhs))) for ex in self.examples)

    def __hash__(self):
        return hash(self.blind)

    def __eq__(self, other):
        return self.blind == other.blind and self.renamed == other.renamed


def _canonical_example_set(examples) -> _ExampleSet:
    """The repetition key of an example list, as `detect_repetition` compares them."""
    return _ExampleSet(examples)


def detect_repetition(history, key) -> bool:
    """True iff an ancestor's example set has the canonical key of the current one."""
    return key in history


class _Ctx:
    """One `induce` run.  No fresh name is a head or variable of pool's nodes, and
    derivation adds no head to pool, so `normal_args`, true when no such head names
    a signature, vouches for the arguments of every equation the run checks."""

    def __init__(self, env, cfg, report, pool, sig_map):
        heads = {key[0] for key in pool if key.__class__ is tuple}
        self.env = env
        self.cfg = cfg
        self.fresh = FreshNames({*sig_map, *env.symbols(), *heads,
                                 *(key for key in pool if key.__class__ is str)})
        self.normal_args = heads.isdisjoint(sig_map)
        self.report = report
        self.pool = pool  # every term `_induce` sees is a node of it
        self.underivable: list = []
        self.aux_count = 0
        self.capped = False  # a recursion-depth or auxiliary-function cap fired

    def emit(self, level, kind, *parts):
        self.report.trace.append(TraceEvent(level, kind, parts))

    @contextmanager
    def bracket(self, level, kind, text):
        """Emit kind on entry and kind-end when the block ends, by return, break or continue too."""
        self.emit(level, kind, text)
        yield
        self.emit(level, f"{kind}-end", text)


def induce(target: str, examples, env: SortEnv, sigs,
           cfg: InduceConfig | None = None) -> InduceReport:
    """Learn a rewrite system for target that covers all given i/o equations.

    Failure is a value: the report carries the diagnostics (underivable
    auxiliary examples, uncovered examples per attempted position) instead of
    raising.  Checked arguments are judged normal once per run (see `_Ctx`).
    """
    cfg = cfg if cfg is not None else InduceConfig()
    examples = list(examples)
    if not examples:
        raise ValueError("no examples given")
    sig_map = {s.name: s for s in sigs}
    if target not in sig_map:
        raise ValueError(f"no signature for {target}")
    # equal subterms of the examples become one object, so a coverage table
    # hit and the covered check stop at `is` one level down; derivation adds
    # its renamed right-hand sides to the same pool
    pool = {}
    examples = [IOEquation(ex.fn, tuple([intern(a, pool) for a in ex.lhs_args]),
                           intern(ex.rhs, pool)) for ex in examples]
    report = InduceReport(target)
    ctx = _Ctx(env, cfg, report, pool, sig_map)
    rules, aux_sigs, uncovered, _ = _induce(ctx, target, examples, sig_map, 0, frozenset())
    if rules is not None:
        # the attempt that built these rules evaluated every example against
        # them; this system only declares fewer rule-less signatures
        assert uncovered == [], "internal error: success without coverage"
        report.system = RewriteSystem(rules, aux_sigs + [sig_map[target]])
    else:
        reason = ("cap-exceeded" if ctx.capped else
                  "underivable-aux-examples" if ctx.underivable else "uncovered-examples")
        report.failure = FailureInfo(reason, ctx.underivable,
                                     examples if uncovered is None else uncovered)
    return report


def _induce(ctx: _Ctx, fn: str, examples, sig_map, layer, history):
    """Returns (rules or None on failure, aux signatures, uncovered, table).

    uncovered lists the examples that the last assembled system left
    uncovered: empty on success, None when no system was assembled.  table
    is the coverage table of the successful check, None on failure.

    A candidate that adopts a learned auxiliary's rules starts its coverage
    table from the entries of that auxiliary's table whose redex is rooted
    at a symbol those rules define.  The candidate holds the rules verbatim
    and in order, their right-hand sides call only symbols they define, and
    both checks run with the same step limit, so each such entry is what the
    candidate's own evaluation would record.  A candidate without rules is
    not evaluated: every example is stuck at its root.
    """
    cfg = ctx.cfg
    level = 2 * layer
    with ctx.bracket(level, "induce", f"induce({fn})"):
        if layer > cfg.max_recursion_depth:
            ctx.capped = True
            ctx.emit(level + 1, "cap", f"recursion depth cap {cfg.max_recursion_depth} exceeded")
            return None, [], None, None
        key = _canonical_example_set(examples)
        if detect_repetition(history, key):
            ctx.emit(level + 1, "repetition", "repeated example set, aborting branch")
            return None, [], None, None
        history = history | {key}
        sig = sig_map[fn]

        if cfg.try_whole_set_lgg_first:
            rule = generalize_examples(fn, examples, cfg.depth, ctx.fresh.var)
            if rule is not None:
                candidate = RewriteSystem([rule], sig_map.values())
                table = {}
                ok, uncovered = covers_all(candidate, examples, cfg.step_limit, table,
                                           ctx.normal_args)
                if ok:
                    ctx.emit(level + 1, "anti-unifier", f"anti-unifier: {rule.render()}")
                    ctx.emit(level + 1, "covered", "all examples covered")
                    return [rule], [], uncovered, table

        uncovered = None
        for position in range(sig.arity):
            ctx.emit(level + 1, "trying-position", f"trying argument position: {position + 1}")
            rules: list[Rule] = []
            aux_rules: list[Rule] = []
            aux_sigs: list[Signature] = []
            table = {}
            abandoned = True  # unless every constructor alternative is learned
            for alt in ctx.env.alternatives(sig.domain[position]):
                with ctx.bracket(level + 1, "inducePos",
                                 f"inducePos({fn},{position + 1},{alt.render()})"):
                    subset = split_by_constructor(examples, position, alt)
                    ctx.emit(level + 2, "matching-examples", "matching examples: ",
                             tuple(subset))
                    if not subset:
                        ctx.emit(level + 2, "no-examples", "no examples")
                        continue
                    rule = generalize_examples(fn, subset, cfg.depth, ctx.fresh.var)
                    if rule is not None:
                        ctx.emit(level + 2, "anti-unifier", f"anti-unifier: {rule.render()}")
                        rules.append(rule)
                        continue
                    rec, _ = classify_args(sig.domain[position], alt)
                    if not rec:
                        break
                    if ctx.aux_count >= cfg.max_aux_functions:
                        ctx.capped = True
                        ctx.emit(level + 2, "cap",
                                 f"auxiliary function cap {cfg.max_aux_functions} exceeded")
                        break
                    scheme = build_scheme(sig, position, alt, ctx.fresh)
                    aux_name = scheme.aux_sig.name
                    ctx.aux_count += 1
                    ctx.emit(level + 2, "new-scheme", f"new recursion scheme: "
                             f"{render_term(scheme.lhs)} = {render_term(scheme.rhs)}")
                    derived, underivable, warnings = derive_aux_examples(
                        scheme, examples, subset, ctx.pool)
                    ctx.report.warnings.extend(warnings)
                    for aux_eq, member in derived:
                        ctx.emit(level + 2, "derive", "derive new equation: ", member.rhs,
                                 " = ", member.lhs, " = ", aux_eq.lhs)
                        ctx.report.derived_aux.append((aux_name, layer + 1, aux_eq))
                    for member, call in underivable:
                        ctx.emit(level + 2, "underivable", "underivable equation: ", member,
                                 " needs ", call)
                        ctx.underivable.append(
                            UnderivableExample(aux_name, layer + 1, member, call))
                    if not derived:
                        break
                    sub_rules, sub_aux, _, sub_table = _induce(
                        ctx, aux_name, [eq for eq, _ in derived],
                        {**sig_map, aux_name: scheme.aux_sig}, layer + 1, history)
                    if sub_rules is None:
                        break
                    rules.append(Rule(scheme.lhs, scheme.rhs))
                    aux_rules.extend(sub_rules)
                    aux_sigs += [scheme.aux_sig, *sub_aux]
                    heads = {rule.lhs.head for rule in sub_rules}
                    table.update((redex, entry) for redex, entry in sub_table.items()
                                 if redex.head in heads)
            else:
                abandoned = False
            candidate = RewriteSystem(rules + aux_rules, list(sig_map.values()) + aux_sigs)
            if rules:
                ok, uncovered = covers_all(candidate, examples, cfg.step_limit, table,
                                           ctx.normal_args)
            else:
                ok, uncovered = False, list(examples)
            ctx.report.attempts.append(PositionAttempt(fn, position, candidate, uncovered))
            if ok and not abandoned:
                ctx.emit(level + 1, "covered", "all examples covered")
                return rules + aux_rules, aux_sigs, uncovered, table
            ctx.emit(level + 1, "uncovered", "uncovered examples: ", tuple(uncovered))
        return None, [], uncovered, None
