"""Shared builders, generators and oracles for the test suite."""

from __future__ import annotations

import contextlib
import itertools
import pathlib
import re
from operator import is_not

import pytest

from rwlearn import InduceConfig, ParseError, codegen, induce, parse_problem, rewrite
from rwlearn.codegen import compile_system
from rwlearn.rewrite import EvalError, RewriteSystem, Rule, StepLimitExceeded, StuckTerm
from rwlearn.terms import (
    BLIND,
    App,
    ConstructorAlt,
    IOEquation,
    Signature,
    SortEnv,
    Var,
    fold,
    intern,
    match_pattern,
    render_term,
    renaming_match,
    same_term,
    substitute,
    subterms,
    term_vars,
)

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def nat_env() -> SortEnv:
    return SortEnv({"nat": (ConstructorAlt("0"), ConstructorAlt("s", ("nat",)))})


def list_env() -> SortEnv:
    return SortEnv({
        "nat": (ConstructorAlt("0"), ConstructorAlt("s", ("nat",))),
        "list": (ConstructorAlt("nil"), ConstructorAlt("cons", ("nat", "list"))),
    })


def tree_env() -> SortEnv:
    return SortEnv({
        "nat": (ConstructorAlt("0"), ConstructorAlt("s", ("nat",))),
        "tree": (ConstructorAlt("nl"), ConstructorAlt("nd", ("tree", "nat", "tree"))),
    })


def constructor_home(env: SortEnv, name: str) -> tuple:
    """(owning sort, alternative) of a constructor of env."""
    return next((sort, alt) for sort, alts in env.sorts.items() for alt in alts
                if alt.name == name)


def nat(n: int):
    t = App("0")
    for _ in range(n):
        t = App("s", (t,))
    return t


def lst(*elems):
    t = App("nil")
    for e in reversed(elems):
        t = App("cons", (e, t))
    return t


def eq(fn, args, rhs) -> IOEquation:
    return IOEquation(fn, tuple(args), rhs)


def interned(examples) -> tuple:
    """(the examples interned into a fresh pool, the pool), as `induce` interns them."""
    pool = {}
    return [eq(ex.fn, (intern(a, pool) for a in ex.lhs_args), intern(ex.rhs, pool))
            for ex in examples], pool


def built_apart(t):
    """A copy of t that shares no node with any other term, variables included."""
    return fold(t, lambda v: Var(v.name), lambda u, values: App(u.head, tuple(values)))


def blinded(t):
    """Oracle for `terms.blind_form`: t with every variable mapped to the one marker."""
    return substitute(t, dict.fromkeys(term_vars(t), BLIND))


def renames_onto(a, b) -> bool:
    """Oracle for the repetition check and the call lookup: whether some order of
    the example list b renames onto the list a equation by equation, each on
    its own, with the function symbols ignored.  Tries every order."""
    def sides(ex):
        return App("", (*ex.lhs_args, ex.rhs))

    return len(a) == len(b) and any(
        all(renaming_match(sides(p), sides(q)) is not None
            and renaming_match(sides(q), sides(p)) is not None for p, q in zip(a, order))
        for order in itertools.permutations(b))


def equal_subterms_are_one_object(terms) -> bool:
    """Whether any two subterms of terms that are == are also `is`."""
    first = {}
    return all(first.setdefault(u, u) is u for t in terms for u in subterms(t))


def size_shape_examples(rng, count: int, max_nodes: int = 7) -> list:
    """size i/o equations over at least count distinct tree shapes, in seeded order.

    The shapes are random trees of up to max_nodes inner nodes and all their
    subtrees, and element variables are distinct per example: the size sets
    of the benchmark's learn_scale workload are drawn so.
    """
    nodes = {None: 0}  # shape -> inner nodes; None is a leaf, (left, right) an inner node

    def random_shape(n):
        if n == 0:
            return None
        left = rng.randrange(n)
        return random_shape(left), random_shape(n - 1 - left)

    def add(shape):
        if shape not in nodes:
            add(shape[0])
            add(shape[1])
            nodes[shape] = nodes[shape[0]] + nodes[shape[1]] + 1

    def tree(shape, names):
        if shape is None:
            return App("nl")
        left = tree(shape[0], names)
        return App("nd", (left, Var(f"e{next(names)}"), tree(shape[1], names)))

    while len(nodes) < count:
        add(random_shape(rng.randint(1, max_nodes)))
    shapes = list(nodes)
    rng.shuffle(shapes)
    return [eq("size", (tree(s, itertools.count()),), nat(nodes[s])) for s in shapes]


def load_problem(name: str, **cfg):
    problem = parse_problem((PROBLEMS / name).read_text())
    if cfg:
        problem.config = InduceConfig(**cfg)
    return problem


def run_file(name: str, **cfg):
    """(problem, raw induce report) for a problem file, no simplification."""
    problem = load_problem(name, **cfg)
    report = induce(problem.target, problem.examples, problem.sort_env,
                    problem.signatures, problem.config)
    return problem, report


def random_term(env: SortEnv, sort: str, height: int, rng, var_pool=None):
    """A random well-sorted term; var_pool maps sort -> variable name list."""
    if var_pool and var_pool.get(sort) and rng.random() < 0.25:
        return Var(rng.choice(var_pool[sort]))
    alts = env.alternatives(sort)
    if height <= 1:
        alts = [a for a in alts if a.arity == 0]
    alt = rng.choice(list(alts))
    return App(alt.name,
               tuple(random_term(env, s, height - 1, rng, var_pool) for s in alt.arg_sorts))


def random_ground_subst(var_sorts: dict, env: SortEnv, rng, height: int = 3) -> dict:
    return {v: random_term(env, s, height, rng) for v, s in var_sorts.items()}


def common_generalizations(t1, t2) -> list:
    """Every common generalization of (t1, t2), in finest variable naming.

    Holes are keyed by the pair of subterms they stand for, so equal pairs
    share a variable; any coarser-named common generalization is more general
    than one produced here.
    """
    holes: dict = {}

    def hole(a, b) -> Var:
        return Var(holes.setdefault((a, b), f"h{len(holes)}"))

    def go(a, b) -> list:
        options = [hole(a, b)]
        if isinstance(a, Var) and a == b:
            options.append(a)
        elif (isinstance(a, App) and isinstance(b, App)
              and a.head == b.head and len(a.args) == len(b.args)):
            for combo in itertools.product(*(go(x, y) for x, y in zip(a.args, b.args))):
                options.append(App(a.head, combo))
        return options

    return go(t1, t2)


def is_common_generalization(g, t1, t2) -> bool:
    return match_pattern(g, t1) is not None and match_pattern(g, t2) is not None


def lgg_classic(ts, store):
    """Plotkin's least general generalization, written without a depth bound.

    Oracle for `lgg(..., depth=INF)`: agreeing heads are kept, any other
    tuple becomes the store's variable for that tuple.
    """
    ts = tuple(ts)
    t0 = ts[0]
    if isinstance(t0, Var):
        return t0 if all(t == t0 for t in ts) else store.var_for(ts)
    if not all(isinstance(t, App) and t.head == t0.head and len(t.args) == len(t0.args)
               for t in ts):
        return store.var_for(ts)
    return App(t0.head, tuple(lgg_classic(args, store) for args in zip(*(t.args for t in ts))))


def witness(store, i: int) -> dict:
    """Substitution mapping each variable of a GenStore back to the i-th input term."""
    return {name: ts[i] for ts, name in store.entries.items()}


def is_ground(t) -> bool:
    return not term_vars(t)


def is_renaming(subst: dict) -> bool:
    images = list(subst.values())
    return all(isinstance(v, Var) for v in images) and len({v.name for v in images}) == len(images)


def closure_match_pattern(pattern, subject):
    """Oracle for `terms.match_pattern`: the same match, by a recursive walk.

    Binds variables in pre-order of their first occurrence in pattern and
    stops at the first mismatch.
    """
    binding = {}

    def walk(p, s) -> bool:
        if isinstance(p, Var):
            bound = binding.get(p.name)
            if bound is None:
                binding[p.name] = s
                return True
            return bound == s
        if isinstance(s, Var):
            return False
        if p.head != s.head or len(p.args) != len(s.args):
            return False
        return all(walk(a, b) for a, b in zip(p.args, s.args))

    return binding if walk(pattern, subject) else None


def closure_substitute(t, subst):
    """Oracle for `terms.substitute`: the same instance, by a recursive walk."""
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if not t.args:
        return t
    return App(t.head, tuple(closure_substitute(a, subst) for a in t.args))


_LINE_COLUMN_TOKEN = re.compile(r"[A-Za-z0-9_]+|->|[(),;:|=]|#[^\n]*|\s+|.")


def line_column_tokenize(text: str) -> list:
    """(token, line, column) triples of the problem language, found by one
    regex match per piece of text and a running line and column count;
    a stray character raises the ParseError the parser raises."""
    toks = []
    line, col = 1, 1
    for m in _LINE_COLUMN_TOKEN.finditer(text):
        s = m.group()
        if not s.isspace() and not s.startswith("#"):
            if not (s == "->" or s in "(),;:|=" or re.fullmatch(r"[A-Za-z0-9_]+", s)):
                raise ParseError(f"unexpected character {s!r}", line, col)
            toks.append((s, line, col))
        newlines = s.count("\n")
        if newlines:
            line += newlines
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
    return toks


def recursive_term_to_json(t):
    """`cli.term_to_json` as a recursive function of the term."""
    if isinstance(t, Var):
        return {"var": t.name}
    return {"app": t.head, "args": [recursive_term_to_json(a) for a in t.args]}


def recursive_redex_skeleton(rhs, defined):
    """`rewrite.redex_skeleton` as a recursive function of the rhs."""
    def shape(t):
        if isinstance(t, Var):
            return rewrite.NORMAL
        shapes = tuple(shape(a) for a in t.args)
        if all(sub is rewrite.NORMAL for sub in shapes):
            return App(t.head) if t.head in defined else rewrite.NORMAL
        return App(t.head, shapes)

    skeleton = shape(rhs)
    return None if skeleton is rewrite.NORMAL else skeleton.args


def recursive_prune_irrelevant_args(sys, keep=()):
    """`simplify.prune_irrelevant_args` with recursive walkers, one occurrence check per position."""
    keep = set(keep)
    irrelevant = {(sig.name, j) for sig in sys.signatures if sig.name not in keep
                  for j in range(sig.arity)}

    def occurs_outside_irrelevant(var, t):
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
                if not isinstance(pat, Var) or occurs_outside_irrelevant(pat.name, rule.rhs):
                    irrelevant.discard((rule.lhs.head, j))
                    changed = True
    if not irrelevant:
        return sys

    def strip(t):
        if isinstance(t, Var):
            return t
        return App(t.head, tuple(strip(a) for j, a in enumerate(t.args)
                                 if (t.head, j) not in irrelevant))

    signatures = [Signature(s.name, tuple(d for j, d in enumerate(s.domain)
                                          if (s.name, j) not in irrelevant), s.range)
                  for s in sys.signatures]
    return RewriteSystem([Rule(strip(r.lhs), strip(r.rhs)) for r in sys.rules], signatures)


def recursive_inline_single_rule_aux(sys, keep=()):
    """`simplify.inline_single_rule_aux` with a recursive call expander."""
    keep = set(keep)
    rules = list(sys.rules)
    signatures = list(sys.signatures)
    while True:
        target = None
        for sig in signatures:
            own = [r for r in rules if r.lhs.head == sig.name]
            if sig.name in keep or len(own) != 1:
                continue
            pats = own[0].lhs.args
            callers = [r for r in rules
                       if any(isinstance(u, App) and u.head == sig.name for u in subterms(r.rhs))]
            if (callers and own[0] not in callers and all(isinstance(p, Var) for p in pats)
                    and len({p.name for p in pats}) == len(pats)):
                target = (sig, own[0])
                break
        if target is None:
            return RewriteSystem(rules, signatures)
        sig, rule = target
        params = [p.name for p in rule.lhs.args]

        def expand(t):
            if isinstance(t, Var):
                return t
            args = tuple(expand(a) for a in t.args)
            if t.head == sig.name:
                return closure_substitute(rule.rhs, dict(zip(params, args)))
            return App(t.head, args)

        rules = [r if r is rule else Rule(r.lhs, expand(r.rhs)) for r in rules]
        rules.remove(rule)
        signatures.remove(sig)


def _rewrite_innermost(system, t, normal):
    """One leftmost-innermost step from the root; the new term, or None when t is normal.

    normal maps the id of each node found normal so far to the node.  Terms
    are immutable, so a node shared by several arguments, as a rule with a
    repeated rhs variable makes, is searched once: the tree of a term whose
    graph grows by a node per step may grow exponentially.
    """
    if isinstance(t, Var) or id(t) in normal:
        return None
    for i, a in enumerate(t.args):
        new = _rewrite_innermost(system, a, normal)
        if new is not None:
            return App(t.head, t.args[:i] + (new,) + t.args[i + 1:])
    if system.is_defined(t.head):
        for rule in system.rules_for(t.head):
            binding = closure_match_pattern(rule.lhs, t)
            if binding is not None:
                return closure_substitute(rule.rhs, binding)
        raise StuckTerm(t)
    normal[id(t)] = t
    return None


def restarting_evaluate_steps(system, t, step_limit: int = 10000):
    """Oracle for `rewrite.evaluate_steps`: every step searches for its redex from the root.

    The redex head's rules are scanned in order, and matched and instantiated by
    the recursive oracles above, not by the kernels under test.
    """
    steps = 0
    normal = {}
    while True:
        new = _rewrite_innermost(system, t, normal)
        if new is None:
            return t, steps
        steps += 1
        if steps > step_limit:
            raise StepLimitExceeded(step_limit)
        t = new


def outcome(evaluate, system, t, step_limit):
    """What evaluate gives on t: its result, or the kind of EvalError with its term or limit."""
    try:
        return evaluate(system, t, step_limit)
    except StuckTerm as e:
        return StuckTerm, e.term
    except StepLimitExceeded as e:
        return StepLimitExceeded, e.limit


@contextlib.contextmanager
def hot_steps(n):
    """`rewrite.HOT_STEPS` set to n: a system built inside turns hot once its untabled
    calls have taken n steps, at once for 0 and never for infinity."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewrite, "HOT_STEPS", n)
        yield


def rebuilt(system) -> RewriteSystem:
    """system built again, with a step count of its own: under `hot_steps(n)` it turns
    hot once its untabled calls have taken n steps."""
    return RewriteSystem(system.rules, system.signatures)


def is_hot(system) -> bool:
    """Whether an untabled `evaluate_steps` call on system runs its compiled evaluator."""
    return system.steps_to_hot <= 0


@contextlib.contextmanager
def compiles():
    """The systems that `codegen.compile_system` compiles inside, in order."""
    compiled = []

    def recording(system):
        compiled.append(system)
        return compile_system(system)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codegen, "compile_system", recording)
        yield compiled


def untabled_evaluate_steps(system, t, step_limit: int = 10000):
    """Oracle for `rewrite.evaluate_steps` with a table: the explicit-stack loop without one.

    Every redex is contracted where it occurs, and every argument is walked.
    """
    if isinstance(t, Var):
        return t, 0
    steps = 0
    frames = [(t, t.args, [])]
    while True:
        term, shape, done = frames[-1]
        i = len(done)
        if i < len(shape):
            arg = term.args[i]
            if isinstance(shape[i], Var):
                done.append(arg)
            else:
                frames.append((arg, shape[i].args, []))
            continue
        frames.pop()
        if any(map(is_not, done, term.args)):
            term = App(term.head, tuple(done))
        if system.is_defined(term.head):
            for rule in system.rules_for(term.head):
                binding = match_pattern(rule.lhs, term)
                if binding is not None:
                    break
            else:
                raise StuckTerm(term)
            contractum = substitute(rule.rhs, binding)
            steps += 1
            if steps > step_limit:
                raise StepLimitExceeded(step_limit)
            if isinstance(rule.rhs, App):
                frames.append((contractum, rule.rhs.args, []))
                continue
            term = contractum
        if not frames:
            return term, steps
        frames[-1][2].append(term)


def untabled_covers_all(system, examples, step_limit: int = 10000):
    """Oracle for `rewrite.covers_all`: each example evaluated on its own, from scratch."""
    uncovered = []
    for ex in examples:
        try:
            covered = same_term(untabled_evaluate_steps(system, ex.lhs, step_limit)[0], ex.rhs)
        except EvalError:
            covered = False
        if not covered:
            uncovered.append(ex)
    return not uncovered, uncovered


def scan_resolve_call(call: App, examples) -> tuple:
    """Oracle for `learner._resolve_call`: the rhs of the first example whose lhs renames
    onto call, renamed as the two lhs's variables pair up in pre-order, and a warning
    when the examples whose lhs renames onto call do not all give an `==` rhs so."""
    def lhs(args):
        return [eq("", args, App(""))]

    resolutions = []
    for ex in examples:
        if ex.fn == call.head and renames_onto(lhs(ex.lhs_args), lhs(call.args)):
            sigma = {u.name: v for u, v in zip(subterms(ex.lhs), subterms(call))
                     if u.__class__ is Var}
            resolutions.append(substitute(ex.rhs, sigma))
    if not resolutions:
        return None, None
    if all(r == resolutions[0] for r in resolutions):
        return resolutions[0], None
    return resolutions[0], (f"ambiguous lookup for {render_term(call)}: "
                            f"{', '.join(map(render_term, resolutions))}; taking the first")


def renaming_resolve_call(call: App, examples, pool: dict) -> tuple:
    """Reference for `learner._resolve_call` without its identity shortcut: every
    example of the bucket is tried by `renaming_match`, each renamed rhs is interned
    into pool, and the resolutions are compared by `==`."""
    resolutions = []
    for ex in examples:
        sigma = renaming_match(ex.lhs, call)
        if sigma is not None:
            resolutions.append(intern(substitute(ex.rhs, sigma), pool))
    if not resolutions:
        return None, None
    if all(r == resolutions[0] for r in resolutions):
        return resolutions[0], None
    return resolutions[0], (f"ambiguous lookup for {render_term(call)}: "
                            f"{', '.join(map(render_term, resolutions))}; taking the first")


def scan_derive_aux_examples(scheme, all_examples, subset):
    """Oracle for `learner.derive_aux_examples`: every call is tried against every example."""
    derived = []
    underivable = []
    warnings = []
    for member in subset:
        binding = match_pattern(scheme.lhs, member.lhs)
        if binding is None:
            raise ValueError("subset member does not match the scheme lhs")
        args = []
        stuck_call = None
        for arg in scheme.rhs.args:
            if isinstance(arg, App) and arg.head == scheme.lhs.head:
                call = substitute(arg, binding)
                value, warn = scan_resolve_call(call, all_examples)
                if warn:
                    warnings.append(warn)
                if value is None:
                    stuck_call = call
                    break
                args.append(value)
            else:
                args.append(substitute(arg, binding))
        if stuck_call is not None:
            underivable.append((member, stuck_call))
            continue
        derived.append((IOEquation(scheme.aux_sig.name, tuple(args), member.rhs), member))
    return derived, underivable, warnings


def canonical_rules(rules, fixed_symbols) -> tuple:
    """Rules with variables and non-fixed function symbols renamed by first occurrence.

    Two learned systems are structurally equal modulo consistent renaming of
    fresh variables and auxiliary symbols iff their canonical forms coincide.
    """
    fixed = set(fixed_symbols)
    fn_map: dict = {}

    def canon(t, var_map):
        if isinstance(t, Var):
            return Var(var_map.setdefault(t.name, f"V{len(var_map)}"))
        head = t.head if t.head in fixed else fn_map.setdefault(t.head, f"F{len(fn_map)}")
        return App(head, tuple(canon(a, var_map) for a in t.args))

    out = []
    for r in rules:
        var_map: dict = {}  # variables are rule-scoped
        out.append((canon(r.lhs, var_map), canon(r.rhs, var_map)))
    return tuple(out)


def renamed_subterm_pool(examples) -> list:
    """All subterms of both sides of the given i/o equations."""
    pool = []
    for ex in examples:
        for side in (*ex.lhs_args, ex.rhs):
            pool.extend(subterms(side))
    return pool


def contained_up_to_renaming(t, pool) -> bool:
    return any(renaming_match(s, t) is not None for s in pool)


def int_to_blist(n: int):
    """Binary digit list, least significant digit outermost: 6 -> o(i(i(nl)))."""
    if n == 0:
        return App("nl")
    return App("i" if n & 1 else "o", (int_to_blist(n >> 1),))


def blist_add_examples(limit: int = 4) -> list:
    """Binary-addition i/o equations for all argument pairs below limit."""
    return [
        eq("badd", (int_to_blist(m), int_to_blist(n)), int_to_blist(m + n))
        for m in range(limit)
        for n in range(limit)
    ]
