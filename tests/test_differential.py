"""The explicit-stack evaluator, the matcher and the call lookup against the oracles in helpers.

`rewrite.evaluate_steps`, which tries only the rules of a redex's
constructor-index bucket and walks only the redex skeleton of a contractum,
must contract the same redexes in the same order as
`restarting_evaluate_steps`, which searches for each redex from the root and
scans all rules of its head with the recursive matcher and instantiator: the
same normal form and step count, or the same exception with the same stuck
term or limit.  With a table shared across calls it must give what the
untabled loop `untabled_evaluate_steps` gives on each call alone, and
`rewrite.covers_all` what `untabled_covers_all` gives, in the same order.
All of this holds at both tiers of the evaluator: with every call run by
the generic loop, with every untabled evaluation of a root call over normal
arguments run by the compiled evaluator, and with a system that turns hot
between two calls.  The compiled evaluator is one function that does not
call itself, and its blocks nest no deeper for larger systems or terms; the
random rules put lhs pattern nodes into their right-hand sides, whose
instances it takes from the input instead of building them.
`terms.match_pattern` must return the binding of `closure_match_pattern`, in
the same key order, and `terms.substitute` the instance that
`closure_substitute` builds.  `learner.derive_aux_examples`,
which looks each recursive call up by the blind forms of its arguments, must
return what `scan_derive_aux_examples` returns by trying every example, in
the same order; `terms.renaming_key` must agree with `terms.renaming_match`.
`simplify.prune_irrelevant_args`, `simplify.inline_single_rule_aux` and
`rewrite.redex_skeleton`, which walk terms by `terms.fold`, must give what the
recursive walkers `recursive_prune_irrelevant_args`,
`recursive_inline_single_rule_aux` and `recursive_redex_skeleton` give.
The one-scan tokenizer of `dsl` must give the tokens, lines and columns, or
the error, of `line_column_tokenize`; `cli.term_to_json` the document of
`recursive_term_to_json`, which `cli.term_from_json` reads back; and the JSON
report writer `cli._dumps` the text of `json.dumps(doc, indent=2)`.
"""

import ast
import itertools
import json
import math
import random
from sys import getrecursionlimit

import pytest
from hypothesis import given, settings, strategies as st

from rwlearn import ParseError
from rwlearn.cli import _dumps, term_from_json, term_to_json
from rwlearn.codegen import evaluator_source
from rwlearn.dsl import _tokenize
from rwlearn import learner
from rwlearn.learner import FreshNames, build_scheme, derive_aux_examples, split_by_constructor
from rwlearn.rewrite import (
    NORMAL,
    RewriteSystem,
    Rule,
    StepLimitExceeded,
    StuckTerm,
    covers_all,
    evaluate_steps,
    redex_skeleton,
)
from rwlearn.simplify import inline_single_rule_aux, prune_irrelevant_args
from rwlearn.terms import (
    App,
    Signature,
    Var,
    blind_form,
    classify_args,
    match_pattern,
    renaming_key,
    renaming_match,
    same_term,
    substitute,
    subterms,
    term_vars,
)

from helpers import (
    closure_match_pattern,
    closure_substitute,
    constructor_home,
    eq,
    hot_steps,
    interned,
    line_column_tokenize,
    list_env,
    nat_env,
    outcome,
    random_term,
    rebuilt,
    recursive_inline_single_rule_aux,
    recursive_prune_irrelevant_args,
    recursive_redex_skeleton,
    recursive_term_to_json,
    restarting_evaluate_steps,
    run_file,
    scan_derive_aux_examples,
    untabled_covers_all,
    untabled_evaluate_steps,
)

# the successful runs of scripts/run_all_problems.py: (file, config, inline)
SEED_RUNS = [
    ("add.tl", {}, False),
    ("size.tl", {}, False),
    ("size.tl", {"depth": 3}, False),
    ("rev.tl", {}, False),
    ("dup.tl", {}, False),
    ("dup.tl", {"try_whole_set_lgg_first": True}, True),
    ("lgth.tl", {"try_whole_set_lgg_first": True}, True),
]

# HOT_STEPS values: every system hot from the start, and every system cold
TIERS = [0, math.inf]
# and a system that turns hot after its first few steps, between two calls
SWITCH = 3


def assert_same_outcome(system, t, step_limit):
    """evaluate_steps gives what the oracle gives; and a normal form found in s
    steps is found with the limit s, and the limit s - 1 is exceeded."""
    expected = outcome(restarting_evaluate_steps, system, t, step_limit)
    assert outcome(evaluate_steps, system, t, step_limit) == expected
    if expected[0] not in (StuckTerm, StepLimitExceeded):
        steps = expected[1]
        assert outcome(evaluate_steps, system, t, steps) == expected
        if steps:
            assert outcome(evaluate_steps, system, t, steps - 1) == (StepLimitExceeded, steps - 1)


def random_call(system, env, sort, height, rng, var_pool):
    """A random term of sort that may call any function of system, at any depth."""
    calls = [s for s in system.signatures if s.range == sort]
    if height > 1 and calls and rng.random() < 0.3:
        sig = rng.choice(calls)
        return App(sig.name, tuple(random_call(system, env, d, height - 1, rng, var_pool)
                                   for d in sig.domain))
    if rng.random() < 0.15:
        return Var(rng.choice(var_pool))
    alts = [a for a in env.alternatives(sort) if height > 1 or a.arity == 0]
    alt = rng.choice(alts)
    return App(alt.name, tuple(random_call(system, env, s, height - 1, rng, var_pool)
                               for s in alt.arg_sorts))


@pytest.fixture(scope="module")
def seed_systems():
    systems = []
    for name, cfg, inline in SEED_RUNS:
        problem, report = run_file(name, **cfg)
        assert report.success, name
        # as learned, and as the CLI prints it
        system = prune_irrelevant_args(report.system, keep={problem.target})
        if inline:
            system = inline_single_rule_aux(system, keep={problem.target})
        systems += [(problem, report.system), (problem, system)]
    return systems


@pytest.mark.parametrize("tier", [*TIERS, SWITCH])
@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_evaluators_agree_on_learned_seed_systems(seed_systems, tier, seed):
    rng = random.Random(seed)
    problem, system = rng.choice(seed_systems)
    with hot_steps(tier):
        system = rebuilt(system)
        ex = rng.choice(problem.examples)
        assert_same_outcome(system, ex.lhs, 10000)
        for _ in range(5):
            sig = rng.choice(system.signatures)
            t = App(sig.name, tuple(random_call(system, problem.sort_env, d, rng.randint(1, 5),
                                                rng, ["a", "b"]) for d in sig.domain))
            assert_same_outcome(system, t, rng.choice([0, 2, 10, 10000]))


# One sort with a nullary, a unary and a binary constructor; c, f and g are defined.
CTORS = {"0": 0, "s": 1, "p": 2}
DEFINED = {"c": 0, "f": 1, "g": 2}


def random_pattern(height, rng, fresh):
    """A left-linear constructor pattern; fresh() names each variable."""
    if height <= 1 or rng.random() < 0.6:
        return Var(fresh())
    head = rng.choice(list(CTORS))
    return App(head, tuple(random_pattern(height - 1, rng, fresh) for _ in range(CTORS[head])))


def random_small_term(height, rng, symbols, var_names, var_p=0.25):
    if var_names and rng.random() < var_p:
        return Var(rng.choice(var_names))
    if height <= 1:
        symbols = {h: n for h, n in symbols.items() if n == 0}
    head = rng.choice(list(symbols))
    return App(head, tuple(random_small_term(height - 1, rng, symbols, var_names, var_p)
                           for _ in range(symbols[head])))


def random_system(rng, pattern_height=3, var_p=0.25) -> RewriteSystem:
    """Up to six rules in random order: often stuck somewhere, sometimes non-terminating.

    With pattern_height 1 every lhs argument is a variable; var_p is the
    share of rhs positions that hold a variable.
    """
    rules = []
    for _ in range(rng.randint(1, 6)):
        head = rng.choice(list(DEFINED))
        names = iter(f"x{i}" for i in range(100))
        lhs = App(head, tuple(random_pattern(pattern_height, rng, lambda: next(names))
                              for _ in range(DEFINED[head])))
        rhs = random_small_term(rng.randint(1, 5), rng, {**CTORS, **DEFINED}, term_vars(lhs),
                                var_p)
        rules.append(Rule(lhs, rhs))
    sigs = [Signature(h, ("t",) * n, "t") for h, n in DEFINED.items()]
    return RewriteSystem(rules, sigs)


# no deadline: the restarting oracle is quadratic in the steps taken, and a
# non-terminating draw takes up to 200 of them
@pytest.mark.parametrize("tier", [*TIERS, SWITCH])
@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_evaluators_agree_on_random_small_systems(tier, seed):
    rng = random.Random(seed)
    with hot_steps(tier):
        system = random_system(rng)
        for _ in range(5):
            if rng.random() < 0.5:
                head = rng.choice(list(DEFINED))
                t = App(head, tuple(random_small_term(rng.randint(1, 3), rng,
                                                      {**CTORS, **DEFINED}, ["a", "b"], 0.1)
                                    for _ in range(DEFINED[head])))
            else:  # an instance of a rule's lhs, so that each rule is contracted now and then
                lhs = rng.choice(system.rules).lhs
                t = substitute(lhs, {v: random_small_term(rng.randint(1, 3), rng, CTORS, ["a"], 0.1)
                                     for v in term_vars(lhs)})
            assert_same_outcome(system, t, rng.choice([0, 1, 5, 50, 200]))


# A rule for each defined symbol that keeps its arguments in a constructor term
CATCH_ALL = [Rule(App("c"), App("0")), Rule(App("f", (Var("x0"),)), App("s", (Var("x0"),))),
             Rule(App("g", (Var("x0"), Var("x1"))), App("p", (Var("x0"), Var("x1"))))]


R_SIGS = [Signature(h, ("t",) * n, "t") for h, n in {**DEFINED, "r": 2}.items()]

# where random_r_rule puts a compound lhs pattern node into the rhs, and
# "index" when that node is the lhs argument at r's index position
PLACES = ["below a call", "beside a call", "whole rhs"]


def random_r_rule(rng) -> tuple:
    """(lhs, rhs, part, kinds): one random rule for r, whose rhs may call c, f and g.

    Sometimes a compound lhs pattern node that holds a variable, part, is
    put into the rhs too: as an argument of a call, beside a call so that
    its value is saved across the call, or as the whole rhs; kinds names where,
    and whether part is the argument at the index position.  Else part is
    None and kinds is empty.
    """
    names = iter(f"y{i}" for i in range(100))
    lhs = App("r", tuple(random_pattern(3, rng, lambda: next(names)) for _ in range(2)))
    symbols, variables = {**CTORS, **DEFINED}, term_vars(lhs)
    rhs = random_small_term(rng.randint(2, 5), rng, symbols, variables, 0.4)
    if variables and rng.random() < 0.5:
        # a compound normal argument beside a call, below a constructor or a call
        call = rng.choice(["f", "g"])
        args = [App(call, tuple(random_small_term(3, rng, symbols, variables)
                                for _ in range(DEFINED[call]))),
                App("s", (random_small_term(3, rng, CTORS, variables, 0.5),)), rhs]
        rng.shuffle(args)
        rhs = App(rng.choice(["p", "g"]), tuple(args[:2]))
    parts = [u for a in lhs.args for u in subterms(a) if u.__class__ is App and term_vars(u)]
    if not parts or rng.random() < 0.3:
        return lhs, rhs, None, set()
    # r has one rule: its index position is its first compound argument
    indexed = next(a for a in lhs.args if a.__class__ is App)
    part = indexed if indexed in parts and rng.random() < 0.5 else rng.choice(parts)
    place, call = rng.choice(PLACES), rng.choice(["f", "g"])
    if place == "whole rhs":
        rhs = part
    elif place == "below a call":
        args = [part, rhs][:DEFINED[call]]
        rng.shuffle(args)
        rhs = App(call, tuple(args))
        if rng.random() < 0.5:
            rhs = App("s", (rhs,))
    else:
        args = [App(call, tuple(random_small_term(3, rng, symbols, variables)
                                for _ in range(DEFINED[call]))), part]
        rng.shuffle(args)
        rhs = App(rng.choice(["p", "g"]), tuple(args))
    return lhs, rhs, part, {place, "index"} if part is indexed else {place}


def random_instance(lhs, rng):
    return substitute(lhs, {v: random_small_term(rng.randint(1, 3), rng, CTORS, ["a"], 0.2)
                            for v in term_vars(lhs)})


@pytest.mark.parametrize("tier", [*TIERS, SWITCH])
@given(st.integers(0, 10**9))
def test_right_hand_sides_are_instantiated_as_the_oracle_does(tier, seed):
    # each of c, f and g has a single rule that keeps its arguments, so every
    # instance reaches a normal form in which each part of the contractum can
    # be seen
    rng = random.Random(seed)
    lhs, rhs, _, _ = random_r_rule(rng)
    with hot_steps(tier):
        system = RewriteSystem([Rule(lhs, rhs), *CATCH_ALL], R_SIGS)
        for _ in range(3):
            assert_same_outcome(system, random_instance(lhs, rng), 100)


def matched_node(pattern, t, part):
    """The node of t that the node part of pattern matches."""
    stack = [(pattern, t)]
    while stack:
        p, u = stack.pop()
        if p is part:
            return u
        if p.__class__ is App:
            stack += zip(p.args, u.args)
    raise ValueError("part is not a node of pattern")


def test_r_rule_draws_reach_every_place_of_a_matched_node():
    # the property above checks the compiled evaluator's reuse of a matched
    # node only if its draws reach each place: then the node of the input
    # that part matched is itself a node of the normal form, as no other
    # node of the input or of the rules is that object
    reused = dict.fromkeys([*PLACES, "index"], 0)
    for seed in range(300):
        rng = random.Random(seed)
        lhs, rhs, part, kinds = random_r_rule(rng)
        if part is None:
            continue
        with hot_steps(0):
            system = RewriteSystem([Rule(lhs, rhs), *CATCH_ALL], R_SIGS)
        t = random_instance(lhs, rng)
        node = matched_node(lhs, t, part)
        normal_form, _ = evaluate_steps(system, t, 100)
        if any(u is node for u in subterms(normal_form)):
            for kind in kinds:
                reused[kind] += 1
    # 23 to 59 draws of each kind reach it
    assert min(reused.values()) >= 15, reused


def nesting(tree) -> int:
    """The most compound statements in tree that nest one in another."""
    deepest = 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        depth += isinstance(node, (ast.FunctionDef, ast.If, ast.While, ast.For, ast.With, ast.Try))
        deepest = max(deepest, depth)
        stack += [(child, depth) for child in ast.iter_child_nodes(node)]
    return deepest


# FunctionDef > while > a block > a bucket > a guard > the step limit check
FLAT = 6


def one_flat_function(system) -> bool:
    """Whether the evaluator source of system is one function that does not
    call itself, and nests no deeper than FLAT."""
    tree = ast.parse(evaluator_source(system)[0])
    [run] = tree.body
    return (isinstance(run, ast.FunctionDef)
            and not any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == run.name
                        for node in ast.walk(run))
            and nesting(tree) <= FLAT)


@given(st.integers(0, 10**9))
def test_generated_evaluators_are_one_flat_function(seed_systems, seed):
    rng = random.Random(seed)
    assert one_flat_function(rng.choice(seed_systems)[1])
    assert one_flat_function(random_system(rng) if rng.random() < 0.5 else cleanup_system(rng))


def test_generated_evaluators_stay_flat_for_large_systems_and_terms():
    # many buckets of one symbol, many rules in one bucket, many symbols, a
    # deep lhs and a deep rhs, deeper than the parser and the compiler take
    # nested expressions, and a deep rhs that holds a deep pattern node twice
    n = 2 * getrecursionlimit()
    x = Var("x")
    deep = x
    for _ in range(n):
        deep = App("s", (deep,))
    sigs = [Signature(f"f{i}", ("t",), "t") for i in range(300)]
    # plain booleans, asserted outside the handler: pytest's report of a deep
    # RecursionError takes minutes
    try:
        systems = [
            RewriteSystem([Rule(App("f0", (App(f"c{i}", (x,)),)), App("f0", (x,)))
                           for i in range(300)], sigs[:1]),
            RewriteSystem([Rule(App("f0", (App("p", (x, App(f"c{i}"))),)), App("f0", (x,)))
                           for i in range(300)], sigs[:1]),
            RewriteSystem([Rule(App(f"f{i}", (x,)), App(f"f{(i + 1) % 300}", (App("s", (x, x)),)))
                           for i in range(300)], sigs),
            RewriteSystem([Rule(App("f0", (deep,)), x)], sigs[:1]),
            RewriteSystem([Rule(App("f0", (x,)), substitute(deep, {"x": App("f1", (x,))})),
                           Rule(App("f1", (x,)), x)], sigs[:2]),
            RewriteSystem([Rule(App("f0", (deep,)), App("p", (deep, substitute(deep, {})))),
                           Rule(App("f1", (x,)), x)], sigs[:2]),
        ]
        flat = [one_flat_function(system) for system in systems]
    except RecursionError:
        flat = []
    assert flat == [True] * 6


def test_random_systems_reach_every_index_shape():
    # the property above checks the constructor index only if the draws give heads
    # indexed at the first and at a later position, heads with rules that no
    # position indexes, and buckets that hold several rules
    shapes = {"first": 0, "later": 0, "unindexed": 0, "shared bucket": 0}
    for seed in range(300):
        system = random_system(random.Random(seed))
        for head, (position, rules) in system.index.items():
            if position is None:
                shapes["unindexed"] += DEFINED[head] > 0 and bool(rules)
            else:
                shapes["first" if position == 0 else "later"] += 1
                shapes["shared bucket"] += any(len(bucket) > 1 for bucket in rules.values())
    assert all(shapes.values()), shapes


def skeleton_nodes(rhs, shape):
    """Each rhs node on the redex skeleton that has argument shapes, with them."""
    stack = [(rhs, shape)]
    while stack:
        node, shapes = stack.pop()
        yield node, shapes
        stack += [(arg, sub.args) for arg, sub in zip(node.args, shapes)
                  if sub is not NORMAL and sub.args]


def test_random_systems_reach_every_skeleton_shape():
    # the properties above and below check the instantiation of right-hand
    # sides along their redex skeletons against the skeleton-free oracles only
    # if the draws give right-hand sides with no defined symbol, defined calls
    # over normal arguments (the nullary c among them), constructors above a
    # defined call, a defined call right below a constructor, as in s(g(x)),
    # and a compound normal argument beside a call, as in g(s(x), f(y))
    shapes = {"normal": 0, "call over normal": 0, "c": 0, "constructor above a call": 0,
              "call below a constructor": 0, "compound normal beside a call": 0}
    for seed in range(300):
        system = random_system(random.Random(seed))
        for position, rules in system.index.values():
            buckets = [rules] if position is None else rules.values()
            for _, rhs, shape in (entry for bucket in buckets for entry in bucket):
                if shape is None:
                    shapes["normal"] += 1
                elif shape == ():
                    shapes["call over normal"] += 1
                    shapes["c"] += rhs == App("c")
                else:
                    shapes["constructor above a call"] += rhs.head in CTORS
                    for node, subs in skeleton_nodes(rhs, shape):
                        calls = [sub is not NORMAL for sub in subs]
                        shapes["call below a constructor"] += node.head in CTORS and any(
                            call and not sub.args for call, sub in zip(calls, subs))
                        shapes["compound normal beside a call"] += any(calls) and any(
                            not call and arg.__class__ is App and bool(arg.args)
                            for call, arg in zip(calls, node.args))
    assert all(shapes.values()), shapes
    # the rarest shape, and the one a walk most easily leaves uninstantiated
    assert shapes["compound normal beside a call"] >= 30, shapes


def assert_simplified_as_the_oracles(system, keep):
    for simplify, oracle in ((prune_irrelevant_args, recursive_prune_irrelevant_args),
                             (inline_single_rule_aux, recursive_inline_single_rule_aux)):
        got, expected = simplify(system, keep), oracle(system, keep)
        assert (got.rules, got.signatures) == (expected.rules, expected.signatures)
    for rule in system.rules:
        assert (redex_skeleton(rule.rhs, system.sig_by_name)
                == recursive_redex_skeleton(rule.rhs, system.sig_by_name))


def cleanup_system(rng) -> RewriteSystem:
    """A random system drawn for pruning and inlining: variable patterns, and
    right-hand sides that often hold several of them side by side."""
    system = random_system(rng, pattern_height=rng.choice([1, 3]), var_p=0.5)
    symbols = {**CTORS, **DEFINED}
    return RewriteSystem(
        [rule if rng.random() < 0.5 else
         Rule(rule.lhs, App(rng.choice(["p", "g"]), (
             rule.rhs, random_small_term(2, rng, symbols, term_vars(rule.lhs), 0.7))))
         for rule in system.rules], system.signatures)


# a draw that tells a variable lost beside another apart is rare: about 1 in 30
@settings(max_examples=400)
@given(st.integers(0, 10**9))
def test_simplification_and_skeletons_agree_with_the_recursive_walkers(seed):
    rng = random.Random(seed)
    system = random_system(rng) if rng.random() < 0.3 else cleanup_system(rng)
    assert_simplified_as_the_oracles(system, set(rng.sample(sorted(DEFINED), rng.randint(0, 2))))


@given(st.integers(0, 10**9))
def test_simplification_and_skeletons_agree_with_the_recursive_walkers_on_seed_systems(
        seed_systems, seed):
    rng = random.Random(seed)
    problem, system = rng.choice(seed_systems)
    others = sorted(s.name for s in system.signatures if s.name != problem.target)
    keep = {problem.target, *rng.sample(others, rng.randint(0, len(others)))}
    assert_simplified_as_the_oracles(system, keep)


def test_random_systems_reach_every_simplification():
    # the property above is vacuous unless pruning drops positions, keeps some
    # of a pruned symbol's, and inlining removes auxiliaries
    seen = {"pruned": 0, "partly pruned": 0, "inlined": 0}
    for seed in range(300):
        system = cleanup_system(random.Random(seed))
        arity = {s.name: s.arity for s in system.signatures}
        pruned = {s.name: s.arity for s in prune_irrelevant_args(system).signatures}
        seen["pruned"] += pruned != arity
        seen["partly pruned"] += any(0 < pruned[h] < arity[h] for h in arity)
        seen["inlined"] += len(inline_single_rule_aux(system).signatures) < len(arity)
    assert all(seen.values()), seen


class CountingTable(dict):
    """A table that counts its hits, normal forms and stuck terms apart."""

    def __init__(self):
        super().__init__()
        self.hits = {False: 0, True: 0}

    def get(self, key, default=None):
        known = super().get(key, default)
        if known is not None:
            self.hits[known[2]] += 1
        return known


def has_defined_symbol(system, terms) -> bool:
    return any(isinstance(u, App) and system.is_defined(u.head)
               for t in terms for u in subterms(t))


def assert_tabled_agrees(system, examples, step_limits):
    """One shared table over the example lhs, in order, against fresh untabled calls;
    then covers_all against its untabled oracle."""
    table = {}
    for ex, limit in zip(examples, step_limits):
        normal_args = not has_defined_symbol(system, ex.lhs_args)
        tabled = outcome(lambda *a: evaluate_steps(*a, table, normal_args), system, ex.lhs, limit)
        expected = outcome(untabled_evaluate_steps, system, ex.lhs, limit)
        assert tabled == expected
        # an untabled call between two that share the table, which alone counts
        # toward the system turning hot
        assert outcome(evaluate_steps, system, ex.lhs, limit) == expected
    for limit in set(step_limits):
        ok, uncovered = covers_all(system, examples, limit)
        expected_ok, expected = untabled_covers_all(system, examples, limit)
        assert ok == expected_ok
        assert len(uncovered) == len(expected)
        assert all(a is b for a, b in zip(uncovered, expected))


def seed_system_draw(seed_systems, rng):
    """A learned seed system, its examples in random order with random calls among
    them, and a step limit per term."""
    problem, system = rng.choice(seed_systems)
    examples = list(problem.examples)
    for _ in range(rng.randint(0, 5)):
        sig = rng.choice(system.signatures)
        examples.append(eq(sig.name, [random_call(system, problem.sort_env, d, rng.randint(1, 4),
                                                  rng, ["a", "b"]) for d in sig.domain],
                           random_term(problem.sort_env, sig.range, 3, rng)))
    rng.shuffle(examples)
    return system, examples, [rng.choice([0, 1, 2, 5, 20, 200]) for _ in examples]


def small_system_draw(rng):
    """A random small system, and terms over it that share subterms, each with an
    expected rhs that is its normal form about half of the time."""
    system = random_system(rng)
    symbols = {**CTORS, **DEFINED}
    pool = [random_small_term(rng.randint(1, 3), rng, CTORS, ["a", "b"], 0.1) for _ in range(3)]
    examples = []
    for _ in range(rng.randint(1, 8)):
        head = rng.choice(list(DEFINED))
        args = tuple(rng.choice(pool) if rng.random() < 0.5 else
                     random_small_term(rng.randint(1, 3), rng, symbols, ["a", "b"], 0.1)
                     for _ in range(DEFINED[head]))
        rhs = random_small_term(2, rng, CTORS, ["a"], 0.1)
        if rng.random() < 0.5:
            try:
                rhs = untabled_evaluate_steps(system, App(head, args), 200)[0]
            except (StuckTerm, StepLimitExceeded):
                pass
        examples.append(eq(head, args, rhs))
        pool.append(App(head, args))
    return system, examples, [rng.randint(0, 200) for _ in examples]


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_tabled_evaluation_agrees_with_untabled_on_learned_seed_systems(seed_systems, seed):
    rng = random.Random(seed)
    assert_tabled_agrees(*seed_system_draw(seed_systems, rng))


# 1: the system turns hot at the first untabled call that takes a step, most
# often between two calls that share the table
@pytest.mark.parametrize("tier", [*TIERS, 1])
@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_tabled_evaluation_agrees_with_untabled_on_random_small_systems(tier, seed):
    rng = random.Random(seed)
    with hot_steps(tier):
        assert_tabled_agrees(*small_system_draw(rng))


def test_tabled_draws_reach_every_outcome(seed_systems):
    # the two properties above are vacuous unless normal forms and stuck terms are
    # found in the table, and the step limit fires after a hit
    hits = {False: 0, True: 0}
    limit_after_hit = 0
    for seed in range(200):
        rng = random.Random(seed)
        system, examples, limits = (small_system_draw(rng) if seed % 2 else
                                    seed_system_draw(seed_systems, rng))
        table = CountingTable()
        for ex, limit in zip(examples, limits):
            before = sum(table.hits.values())
            result = outcome(lambda *a: evaluate_steps(*a, table), system, ex.lhs, limit)
            limit_after_hit += (result[0] is StepLimitExceeded
                                and sum(table.hits.values()) > before)
        for stuck in hits:
            hits[stuck] += table.hits[stuck]
    assert hits[False] and hits[True] and limit_after_hit


@given(st.integers(0, 10**9))
def test_match_pattern_agrees_with_the_closure_matcher(seed):
    rng = random.Random(seed)
    # a pool of three names makes non-linear patterns and shared subject names common;
    # 1 and q share an arity with 0 and s, so heads must be compared, not only arities
    symbols = {**CTORS, "1": 0, "q": 1}
    if rng.random() < 0.2:
        pattern = Var(rng.choice(["x", "y", "z"]))
    else:
        pattern = App("p", tuple(random_small_term(rng.randint(1, 3), rng, symbols,
                                                   ["x", "y", "z"], 0.5) for _ in range(2)))
    roll = rng.random()
    if roll < 0.5:
        subst = {v: random_small_term(rng.randint(1, 3), rng, symbols, ["x", "a"])
                 for v in ("x", "y", "z")}
        subject = substitute(pattern, subst)
    elif roll < 0.8:  # the pattern root's head, with its arity or another
        subject = App("p", tuple(random_small_term(rng.randint(1, 3), rng, symbols, ["x", "a"])
                                 for _ in range(rng.choice([0, 1, 2, 2, 3]))))
    else:
        subject = random_small_term(rng.randint(1, 4), rng, symbols, ["x", "a"])
    expected = closure_match_pattern(pattern, subject)
    binding = match_pattern(pattern, subject)
    assert binding == expected
    if expected is not None:
        assert list(binding) == list(expected)
    assert same_term(pattern, subject) == (pattern == subject)
    assert same_term(subject, substitute(subject, {}))  # an equal copy, not the same object


@given(st.integers(0, 10**9))
def test_substitute_agrees_with_the_closure_substitute(seed):
    rng = random.Random(seed)
    symbols = {**CTORS, "f": 2}
    t = random_small_term(rng.randint(1, 4), rng, symbols, ["x", "y", "z"], 0.4)
    # a partial map, so that some variables stay; images may be variables or constants
    subst = {v: random_small_term(rng.randint(1, 3), rng, symbols, ["x", "a"], 0.3)
             for v in rng.sample(["x", "y", "z"], rng.randint(0, 3))}
    expected = closure_substitute(t, subst)
    out = substitute(t, subst)
    assert out == expected
    if isinstance(t, Var) or not t.args:  # a variable or constant root is not rebuilt
        assert out is expected


def random_example_set(rng):
    """(env, signature, i/o equations) over nat or list, drawn so that many calls resolve.

    Variable names are shared between equations and often repeat within one
    lhs.  Some equations hold the recursive call of another, and some are
    renamed duplicates of another, with an equal or a conflicting rhs.  Some
    come in twins that repeat another's lhs with each leaf a variable: one
    variable for all, or one for each (`f(s(x),x)` beside `f(s(u0),u1)`), so
    that a call's bucket of equal blind forms holds an example that
    `renaming_match` rejects.
    """
    env = rng.choice([nat_env(), list_env()])
    sig = Signature("f", (rng.choice(list(env.sorts)), "nat"), "nat")
    pool = {"nat": ["x", "y"], "list": ["k", "l"]}

    def rhs():
        return random_term(env, sig.range, 3, rng, pool)

    examples = [eq("f", [random_term(env, s, rng.randint(1, 4), rng, pool) for s in sig.domain],
                   rhs())
                for _ in range(rng.randint(1, 6))]
    for ex in rng.sample(examples, rng.randint(0, min(2, len(examples)))):
        one = itertools.repeat("x")
        apart = (f"u{i}" for i in itertools.count())
        for names in (one, apart):
            examples.append(eq("f", [leaves_to_variables(a, names) for a in ex.lhs_args], rhs()))
    for ex in list(examples):
        i = rng.randrange(sig.arity)
        arg = ex.lhs_args[i]
        if isinstance(arg, App) and rng.random() < 0.7:
            rec, _ = classify_args(sig.domain[i], constructor_home(env, arg.head)[1])
            if rec:
                args = list(ex.lhs_args)
                args[i] = arg.args[rng.choice(rec)]
                examples.append(eq("f", args, rhs()))
    for ex in rng.sample(examples, rng.randint(0, len(examples))):
        names = term_vars(ex.lhs)
        renaming = dict(zip(names, map(Var, rng.sample(["x", "y", "k", "l", "u", "w"],
                                                          len(names)))))
        renamed = substitute(ex.rhs, renaming) if rng.random() < 0.5 else rhs()
        examples.insert(rng.randint(0, len(examples)),
                        eq("f", [substitute(a, renaming) for a in ex.lhs_args], renamed))
    return env, sig, examples


def leaves_to_variables(t, names):
    """t with each leaf, variable or constant, replaced by a variable named by
    the next of names."""
    if isinstance(t, Var) or not t.args:
        return Var(next(names))
    return App(t.head, tuple(leaves_to_variables(a, names) for a in t.args))


def schemes(seed):
    """(scheme, examples, subset, pool) for every recursive scheme of one draw,
    its examples interned into pool."""
    env, sig, examples = random_example_set(random.Random(seed))
    examples, pool = interned(examples)
    reserved = {v for ex in examples for v in term_vars(ex.lhs) + term_vars(ex.rhs)}
    for position, sort in enumerate(sig.domain):
        for alt in env.alternatives(sort):
            if classify_args(sort, alt)[0]:
                scheme = build_scheme(sig, position, alt, FreshNames(reserved))
                yield scheme, examples, split_by_constructor(examples, position, alt), pool


@given(st.integers(0, 10**9))
def test_indexed_call_lookup_agrees_with_the_scan(seed):
    for scheme, examples, subset, pool in schemes(seed):
        assert derive_aux_examples(scheme, examples, subset, pool) == \
            scan_derive_aux_examples(scheme, examples, subset)


def test_example_set_draws_reach_every_outcome(monkeypatch):
    # the property above is vacuous unless calls resolve, fail and conflict,
    # and unless some bucket holds a candidate that renaming_match rejects
    rejected = []

    def recording(lhs, call):
        sigma = renaming_match(lhs, call)
        if sigma is None:
            rejected.append((lhs, call))
        return sigma

    monkeypatch.setattr(learner, "renaming_match", recording)
    results = [derive_aux_examples(*draw) for seed in range(100) for draw in schemes(seed)]
    assert any(derived for derived, _, _ in results)
    assert any(underivable for _, underivable, _ in results)
    assert any(warnings for _, _, warnings in results)
    assert any(tuple(map(blind_form, lhs.args)) == tuple(map(blind_form, call.args))
               for lhs, call in rejected)


def assert_key_agrees_with_renaming_match(a, b):
    both_ways = renaming_match(a, b) is not None and renaming_match(b, a) is not None
    assert (renaming_key(a) == renaming_key(b)) == both_ways


def test_renaming_key_separates_repeated_variables():
    x, y, a, b = Var("x"), Var("y"), Var("a"), Var("b")
    for s, t in [(App("f", (x, x)), App("f", (a, b))),
                 (App("f", (x, y)), App("f", (a, b))),
                 (App("f", (x, x)), App("f", (a, a))),
                 (App("f", (x, y)), App("f", (y, x))),
                 (App("f", (x, App("0"))), App("f", (App("0"), x)))]:
        assert_key_agrees_with_renaming_match(s, t)
        assert_key_agrees_with_renaming_match(t, s)
    assert renaming_key(App("f", (x, x))) != renaming_key(App("f", (a, b)))


@given(st.integers(0, 10**9))
def test_renaming_key_agrees_with_renaming_match(seed):
    rng = random.Random(seed)
    symbols = {**CTORS, "f": 2}
    a = random_small_term(rng.randint(1, 4), rng, symbols, ["x", "y", "z"], 0.4)
    names = term_vars(a)
    pick = rng.randrange(4)
    if pick == 0:  # an injective renaming
        b = substitute(a, dict(zip(names, map(Var, rng.sample(["x", "y", "z", "a", "b"],
                                                               len(names))))))
    elif pick == 1:  # any variable-to-variable map, which may merge variables
        b = substitute(a, {v: Var(rng.choice(["x", "y", "a"])) for v in names})
    elif pick == 2:  # a variable instantiated
        b = substitute(a, {v: random_small_term(2, rng, symbols, ["x", "a"])
                           for v in names[:1]})
    else:
        b = random_small_term(rng.randint(1, 4), rng, symbols, ["x", "y", "a"], 0.4)
    assert_key_agrees_with_renaming_match(a, b)
    assert_key_agrees_with_renaming_match(b, a)


# problem-text pieces: words, punctuation, comments, whitespace and stray characters
TEXT_PIECES = ["sort", "fun", "ex", "learn", "nat", "s", "0", "x_1", "Z9", "(", ")", ",", ";",
               ":", "|", "=", "->", "-", ">", "#", "# a (note) ;", "\n", " ", "\t", "\r",
               "\x0b", "\x1c", "\u2028", "\xe9", "$", "\x00"]


@given(st.lists(st.sampled_from(TEXT_PIECES), max_size=40).map("".join) | st.text(max_size=30))
def test_tokenizer_agrees_with_the_line_column_tokenizer(text):
    try:
        expected = line_column_tokenize(text)
    except ParseError as e:
        with pytest.raises(ParseError) as info:
            _tokenize(text)
        assert str(info.value) == str(e)
        assert (info.value.line, info.value.column) == (e.line, e.column)
        return
    toks, offsets = _tokenize(text)
    assert toks[-1] is None
    positions = [ParseError.at("", text, at) for at in offsets[:len(toks) - 1]]
    assert [(tok, e.line, e.column) for tok, e in zip(toks, positions)] == expected


JSON_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f",
                                                   "\xe9", "\u2028", "\U0001f600"])
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-2**80, 2**80) | JSON_TEXT,
    lambda docs: st.lists(docs, max_size=4) | st.dictionaries(JSON_TEXT, docs, max_size=4),
    max_leaves=30)


@given(JSON_DOCS)
def test_json_writer_agrees_with_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


@given(st.integers(0, 10**9))
def test_term_json_agrees_with_the_recursive_encoding(seed):
    rng = random.Random(seed)
    t = random_small_term(rng.randint(1, 5), rng, {**CTORS, "nd": 3}, ["x", "y"], 0.3)
    doc = term_to_json(t)
    assert doc == recursive_term_to_json(t)
    assert term_from_json(doc) == t


def test_term_json_round_trips_deep_terms():
    t = Var("x")
    for i in range(10 * getrecursionlimit()):
        t = App("p", (App("0"), t)) if i % 3 else App("s", (t,))
    assert term_from_json(term_to_json(t)) == t
