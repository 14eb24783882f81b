"""Unit tests for scheme construction, example derivation and the learner."""

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rwlearn import InduceConfig, induce, learner, rewrite
from rwlearn.learner import (
    FreshNames,
    _canonical_example_set,
    _resolve_call,
    build_scheme,
    derive_aux_examples,
    detect_repetition,
    split_by_constructor,
)
from rwlearn.rewrite import covers, covers_all
from rwlearn.terms import (
    App,
    Signature,
    Var,
    blind_form,
    intern,
    match_pattern,
    render_term,
    renaming_match,
    substitute,
    subterms,
)

from golden.regen import HERE as GOLDEN
from helpers import (
    blinded,
    built_apart,
    eq,
    equal_subterms_are_one_object,
    interned,
    is_ground,
    list_env,
    load_problem,
    lst,
    nat,
    nat_env,
    random_term,
    renames_onto,
    run_file,
    size_shape_examples,
    tree_env,
    untabled_covers_all,
)


def test_fresh_names_skip_reserved():
    fresh = FreshNames({"v1", "f1", "f2"})
    assert fresh.var() == "v2"
    assert fresh.fn() == "f3"


def test_induce_config_validation():
    with pytest.raises(ValueError):
        InduceConfig(depth=0)
    with pytest.raises(ValueError):
        InduceConfig(max_aux_functions=0)


def test_split_by_constructor_ignores_variable_arguments():
    env = list_env()
    alt = env.alternatives("list")[1]  # cons
    examples = [
        eq("f", (lst(nat(1)),), nat(1)),
        eq("f", (App("nil"),), nat(0)),
        eq("f", (Var("x"),), nat(0)),
    ]
    assert split_by_constructor(examples, 0, alt) == [examples[0]]


def test_build_scheme_tree_node():
    env = tree_env()
    sig = Signature("size", ("tree",), "nat")
    alt = env.alternatives("tree")[1]  # nd(tree, nat, tree)
    scheme = build_scheme(sig, 0, alt, FreshNames())
    # aux arguments: non-recursive constructor args, then one recursive
    # call per recursive constructor argument, in constructor order
    y1, y2, y3 = scheme.lhs.args[0].args
    assert scheme.lhs == App("size", (App("nd", (y1, y2, y3)),))
    assert scheme.rhs.args == (y2, App("size", (y1,)), App("size", (y3,)))
    assert scheme.aux_sig.domain == ("nat", "nat", "nat")
    assert scheme.aux_sig.range == "nat"


def test_build_scheme_keeps_other_arguments_in_order():
    env = nat_env()
    sig = Signature("add", ("nat", "nat"), "nat")
    alt = env.alternatives("nat")[1]  # s(nat)
    scheme = build_scheme(sig, 0, alt, FreshNames())
    (x,) = [a for a in scheme.lhs.args if isinstance(a, Var)]
    (y,) = scheme.lhs.args[0].args
    assert scheme.rhs.args == (x, App("add", (y, x)))


def test_build_scheme_rejects_nonrecursive_constructor():
    env = nat_env()
    sig = Signature("f", ("nat",), "nat")
    with pytest.raises(ValueError):
        build_scheme(sig, 0, env.alternatives("nat")[0], FreshNames())


def test_derive_aux_examples_resolves_calls_by_renaming():
    env = list_env()
    sig = Signature("lgth", ("list",), "nat")
    examples = [
        eq("lgth", (App("nil"),), nat(0)),
        eq("lgth", (lst(Var("a")),), nat(1)),
        eq("lgth", (lst(Var("a"), Var("b")),), nat(2)),
    ]
    alt = env.alternatives("list")[1]
    scheme = build_scheme(sig, 0, alt, FreshNames({"a", "b"}))
    examples, pool = interned(examples)
    subset = split_by_constructor(examples, 0, alt)
    derived, underivable, warnings = derive_aux_examples(scheme, examples, subset, pool)
    assert not underivable
    # lgth(cons(a, cons(b, nil))): the recursive call lgth(cons(b, nil)) is
    # resolved against lgth(cons(a, nil)) = s(0) via the renaming a -> b
    assert [d.lhs_args for d, _ in derived] == [
        (Var("a"), nat(0)),
        (Var("a"), nat(1)),
    ]
    assert [d.rhs for d, _ in derived] == [nat(1), nat(2)]


def test_derive_aux_examples_reports_underivable_members():
    env = nat_env()
    sig = Signature("sq", ("nat",), "nat")
    examples = [
        eq("sq", (nat(0),), nat(0)),
        eq("sq", (nat(2),), nat(4)),  # sq(1) missing: sq(2) is underivable
    ]
    alt = env.alternatives("nat")[1]
    scheme = build_scheme(sig, 0, alt, FreshNames())
    examples, pool = interned(examples)
    subset = split_by_constructor(examples, 0, alt)
    derived, underivable, _ = derive_aux_examples(scheme, examples, subset, pool)
    assert not derived
    assert [(m, call) for m, call in underivable] == [
        (examples[1], App("sq", (nat(1),)))
    ]


def test_resolve_call_warns_on_ambiguity():
    examples, pool = interned([
        eq("f", (Var("x"), Var("y")), Var("x")),
        eq("f", (Var("u"), Var("v")), Var("v")),
    ])
    value, warning = _resolve_call(App("f", (Var("a"), Var("b"))), examples, pool)
    assert value == Var("a")  # first resolution wins
    assert warning is not None and "ambiguous" in warning


@pytest.mark.parametrize("name, renamed", [("add.tl", False), ("size.tl", False),
                                           ("rev.tl", True)])
def test_a_ground_resolving_rhs_is_shared_and_another_is_renamed(name, renamed):
    problem = load_problem(name)
    sig = problem.target_signature
    alt = problem.sort_env.alternatives(sig.domain[0])[1]  # s, nd, cons
    scheme = build_scheme(sig, 0, alt, FreshNames())
    calls = [a for a in scheme.rhs.args if isinstance(a, App)]  # the recursive target calls
    examples, pool = interned(problem.examples)
    derived, _, _ = derive_aux_examples(
        scheme, examples, split_by_constructor(examples, 0, alt), pool)
    shared, copied = 0, 0
    for aux_eq, member in derived:
        binding = match_pattern(scheme.lhs, member.lhs)
        for pattern, value in zip(calls, aux_eq.lhs_args[-len(calls):]):
            call = substitute(pattern, binding)
            ex = next(ex for ex in examples if renaming_match(ex.lhs, call) is not None)
            if is_ground(ex.rhs):
                shared += value is ex.rhs
            else:  # renamed into the pool, so the example's own rhs only when equal to it
                copied += ((value is ex.rhs) == (value == ex.rhs) and intern(value, pool) is value
                           and value == substitute(ex.rhs, renaming_match(ex.lhs, call)))
    assert shared > 0 and shared + copied == len(derived) * len(calls)
    assert (copied > 0) == renamed


def canonical(examples):
    """`_canonical_example_set` of the examples interned into a fresh pool."""
    return _canonical_example_set(interned(examples)[0])


def test_canonical_example_set_identifies_renamed_sets():
    a = [eq("f", (Var("x"),), nat(1)), eq("f", (nat(0),), nat(0))]
    b = [eq("g", (nat(0),), nat(0)), eq("g", (Var("z"),), nat(1))]
    assert canonical(a) == canonical(b)
    assert detect_repetition({canonical(a)}, canonical(b))
    assert not detect_repetition(frozenset(), canonical(b))


def test_canonical_example_set_renames_each_equation_apart():
    # example variables are quantified per equation: x need not be one variable across the set
    a = [eq("f", (Var("x"),), Var("x")), eq("f", (Var("x"),), App("s", (Var("x"),)))]
    b = [eq("g", (Var("y"),), Var("y")), eq("g", (Var("z"),), App("s", (Var("z"),)))]
    assert canonical(a) == canonical(b)


def test_canonical_example_set_tells_variable_patterns_apart():
    # each pair has equal blind forms, so one hash, but no renaming maps one set onto the other
    x, y, z = Var("x"), Var("y"), Var("z")
    pairs = [([eq("f", (x, x), nat(0))], [eq("f", (y, z), nat(0))]),
             ([eq("f", (x, y), x)], [eq("f", (x, y), y)]),
             ([eq("f", (x, y), x), eq("f", (x, x), x)], [eq("g", (y, y), y), eq("g", (x, y), y)]),
             ([eq("f", (x, nat(1)), x)] * 2, [eq("f", (x, nat(1)), x), eq("f", (x, nat(1)), z)])]
    for a, b in pairs:
        key_a, key_b = canonical(a), canonical(b)
        assert hash(key_a) == hash(key_b) and key_a != key_b
        assert not detect_repetition({key_a}, key_b) and not detect_repetition({key_b}, key_a)
    # renamed sets, in another order and under another symbol, still repeat
    a = [eq("f", (x, y), x), eq("f", (x, x), nat(1))]
    b = [eq("g", (z, z), nat(1)), eq("g", (z, x), z)]
    assert detect_repetition({canonical(a)}, canonical(b))


def random_equations(rng, count: int) -> list:
    """count equations over nat with two arguments and few variables, often repeated."""
    env, names = nat_env(), {"nat": ["x", "y"]}
    return [eq("f", [random_term(env, "nat", rng.randint(1, 3), rng, names) for _ in range(2)],
               random_term(env, "nat", 2, rng, names)) for _ in range(count)]


@given(st.integers(0, 10**9))
def test_canonical_example_set_agrees_with_the_renaming_oracle(seed):
    rng = random.Random(seed)
    a = random_equations(rng, rng.randint(1, 4))
    b = []
    for ex in rng.sample(a, len(a)):  # a reordered, each equation renamed, blinded or redrawn
        names = sorted({v.name for t in (*ex.lhs_args, ex.rhs) for v in subterms(t)
                        if isinstance(v, Var)})
        pick = rng.randrange(3)
        if pick == 0:
            subst = dict(zip(names, map(Var, rng.sample(["x", "y", "z"], len(names)))))
        elif pick == 1:
            subst = {v: Var(rng.choice(["x", "y", "z"])) for v in names}
        else:
            subst = {}
            ex = random_equations(rng, 1)[0]
        b.append(eq("g", [substitute(t, subst) for t in ex.lhs_args], substitute(ex.rhs, subst)))
    key_a, key_b = canonical(a), canonical(b)
    assert (key_a == key_b) == renames_onto(a, b)
    assert key_a != key_b or hash(key_a) == hash(key_b)
    assert detect_repetition({key_a}, key_b) == renames_onto(a, b)


SEED_PROBLEMS = [
    ("add.tl", {}), ("badd.tl", {}), ("dup.tl", {}), ("lgth.tl", {}), ("rev.tl", {}),
    ("size.tl", {}), ("size.tl", {"depth": 2}), ("size.tl", {"depth": 3}), ("sq.tl", {}),
    ("dup.tl", {"try_whole_set_lgg_first": True}), ("lgth.tl", {"try_whole_set_lgg_first": True}),
]


def random_small_problem(rng):
    """(target, examples, env, signatures) of a random small add, lgth, rev or size set.

    Only rev's right-hand sides hold variables, so only its recursive calls
    resolve to renamed right-hand sides."""
    kind = rng.choice(["add", "lgth", "rev", "size"])
    if kind == "add":
        env, sig = nat_env(), Signature("add", ("nat", "nat"), "nat")
        pairs = rng.sample([(m, n) for m in range(4) for n in range(4)], rng.randint(1, 8))
        examples = [eq("add", (nat(m), nat(n)), nat(m + n)) for m, n in pairs]
    elif kind == "lgth":
        env, sig = list_env(), Signature("lgth", ("list",), "nat")
        examples = [eq("lgth", (lst(*(Var(f"e{i}") if rng.random() < 0.5 else nat(i)
                                      for i in range(n))),), nat(n))
                    for n in rng.sample(range(5), rng.randint(1, 5))]
    elif kind == "rev":
        env, sig = list_env(), Signature("rev", ("list",), "list")
        elems = [[Var(f"e{i}") if rng.random() < 0.8 else nat(i % 2) for i in range(n)]
                 for n in rng.sample(range(5), rng.randint(1, 5))]
        examples = [eq("rev", (lst(*es),), lst(*reversed(es))) for es in elems]
    else:
        env, sig = tree_env(), Signature("size", ("tree",), "nat")
        trees = [random_term(env, "tree", rng.randint(1, 4), rng, {"nat": ["a", "b"]})
                 for _ in range(rng.randint(1, 6))]
        examples = [eq("size", (t,), nat(sum(isinstance(u, App) and u.head == "nd"
                                             for u in subterms(t))))
                    for t in trees]
    return sig.name, examples, env, [sig]


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_every_aux_example_set_is_smaller_than_its_parents(seed):
    """Why the repetition check cannot fire, whatever equivalence it uses that keeps the count.

    An auxiliary set has at most one equation per member of the split subset.
    If that subset is the whole parent set, the member whose split argument
    is smallest makes a recursive call on a still smaller argument, which no
    example's lhs renames onto, so that member is underivable.  Either way
    the child set is strictly smaller, and so cannot equal an ancestor's.
    """
    rng = random.Random(seed)
    if rng.random() < 0.3:
        name, cfg = rng.choice(SEED_PROBLEMS)
        problem = load_problem(name, **cfg)
        args = (problem.target, problem.examples, problem.sort_env, problem.signatures,
                problem.config)
    else:
        args = random_small_problem(rng)
    sizes = []  # (parent set size, child set size) of every recursive _induce call
    parents = []
    inner = learner._induce

    def recording_induce(ctx, fn, examples, *rest):
        if parents:
            sizes.append((parents[-1], len(examples)))
        parents.append(len(examples))
        try:
            return inner(ctx, fn, examples, *rest)
        finally:
            parents.pop()

    with mock.patch.object(learner, "_induce", recording_induce):
        report = induce(*args)
    assert all(child < parent for parent, child in sizes)
    assert all(e.kind != "repetition" for e in report.trace)


def test_induce_learns_direct_recursion():
    env = nat_env()
    sig = Signature("dup", ("nat",), "nat")
    examples = [eq("dup", (nat(n),), nat(2 * n)) for n in range(4)]
    report = induce("dup", examples, env, [sig])
    assert report.success
    assert covers_all(report.system, examples)[0]
    assert len(report.system.signatures) == 2  # dup and one auxiliary


def test_induce_tries_later_positions_after_failure():
    # size recursion only works on the tree argument; the learner must get
    # past a leading irrelevant nat argument
    env = tree_env()
    sig = Signature("f", ("nat", "tree"), "nat")
    examples = [
        eq("f", (Var("k"), App("nl")), nat(0)),
        eq("f", (Var("k"), App("nd", (App("nl"), Var("a"), App("nl")))), nat(1)),
        eq("f", (Var("k"), App("nd", (App("nd", (App("nl"), Var("a"), App("nl"))),
                                      Var("b"), App("nl")))), nat(2)),
    ]
    report = induce("f", examples, env, [sig])
    assert report.success
    positions = [a.position for a in report.attempts if a.fn == "f"]
    assert positions[0] == 0 and positions[-1] == 1


def test_induce_failure_carries_diagnostics():
    problem, report = run_file("sq.tl")
    assert not report.success
    assert report.system is None
    assert report.failure.reason == "underivable-aux-examples"
    assert report.failure.uncovered  # the last position attempt's leftovers
    assert all(u.layer == 2 for u in report.failure.underivable)


def test_induce_respects_recursion_depth_cap():
    # size needs a second auxiliary layer, which a cap of 1 forbids
    problem = load_problem("size.tl", max_recursion_depth=1)
    report = induce(problem.target, problem.examples, problem.sort_env,
                    problem.signatures, problem.config)
    assert not report.success
    assert any(e.kind == "cap" for e in report.trace)
    assert report.failure.reason == "cap-exceeded"


def test_induce_respects_aux_function_cap():
    problem = load_problem("size.tl", max_aux_functions=1)
    report = induce(problem.target, problem.examples, problem.sort_env,
                    problem.signatures, problem.config)
    assert not report.success
    assert any(e.kind == "cap" for e in report.trace)
    assert report.failure.reason == "cap-exceeded"


def test_trace_vocabulary_and_nesting():
    _, report = run_file("add.tl")
    texts = [e.text for e in report.trace]
    assert texts[0] == "induce(add)"
    assert "trying argument position: 1" in texts
    assert any(t.startswith("inducePos(add,1,") for t in texts)
    assert any(t.startswith("anti-unifier:") for t in texts)
    assert any(t.startswith("new recursion scheme:") for t in texts)
    assert any(t.startswith("derive new equation:") for t in texts)
    assert texts[-1] == "induce(add)"
    # the nested auxiliary induction is two levels deeper than the target's
    nested = [e for e in report.trace if e.kind == "induce" and e.text != "induce(add)"]
    assert nested and all(e.level == 2 for e in nested)


def test_unread_derive_and_underivable_events_render_nothing(monkeypatch):
    rendered = []

    def counted(t):
        rendered.append(t)
        return render_term(t)

    monkeypatch.setattr(learner, "render_term", counted)
    _, report = run_file("size.tl", depth=2)
    lazy = [e for e in report.trace if e.kind in ("derive", "underivable")]
    assert {e.kind for e in lazy} == {"derive", "underivable"}
    # only the new recursion scheme texts, two terms each, are built eagerly
    assert len(rendered) == 2 * sum(e.kind == "new-scheme" for e in report.trace)
    stderr = (GOLDEN / "size_depth_2.txt").read_text().split("== stderr\n")[1]
    eager = [line.lstrip(". ") for line in stderr.splitlines()
             if line.lstrip(". ").startswith(("derive new equation:", "underivable equation:"))]
    assert [e.text for e in lazy] == eager


def test_trace_reports_empty_subsets_and_uncovered():
    _, report = run_file("size.tl")
    kinds = [e.kind for e in report.trace]
    assert "no-examples" in kinds
    assert "uncovered" in kinds
    assert kinds.count("covered") >= 3  # size, f12-analogue, f46-analogue


def test_whole_set_lgg_first_short_circuits():
    env = nat_env()
    sig = Signature("id", ("nat",), "nat")
    examples = [eq("id", (nat(n),), nat(n)) for n in range(3)]
    report = induce("id", examples, env, [sig],
                    InduceConfig(try_whole_set_lgg_first=True))
    assert report.success
    assert len(report.system.rules) == 1
    assert [s.name for s in report.system.signatures] == ["id"]


def test_induce_is_deterministic():
    for name in ("add.tl", "size.tl", "rev.tl"):
        problem, first = run_file(name)
        _, second = run_file(name)
        assert first.system.rules == second.system.rules
        assert first.system.signatures == second.system.signatures
        assert [(e.level, e.kind, e.text) for e in first.trace] == \
               [(e.level, e.kind, e.text) for e in second.trace]


def test_learned_auxiliaries_cover_their_derived_examples():
    for name in ("add.tl", "size.tl", "rev.tl"):
        _, report = run_file(name)
        defined = {r.lhs.head for r in report.system.rules}
        adopted = [ex for aux, _layer, ex in report.derived_aux if aux in defined]
        assert adopted
        for ex in adopted:
            assert covers(report.system, ex)


def test_success_evaluates_coverage_once_per_attempt(monkeypatch):
    # the final system is not evaluated again after the attempt that built it
    calls = []

    def counting_covers_all(*args):
        calls.append(args)
        return covers_all(*args)

    monkeypatch.setattr(learner, "covers_all", counting_covers_all)
    _, report = run_file("add.tl")
    assert report.success
    assert len(calls) == len(report.attempts)


def layer_examples(report, examples) -> dict:
    """The examples of each function's coverage checks: the target's, and each auxiliary's
    derived set."""
    by_fn = {report.target: list(examples)}
    for aux, _layer, ex in report.derived_aux:
        by_fn.setdefault(aux, []).append(ex)
    return by_fn


@contextmanager
def coverage_checks():
    """(system, redexes its table held before the check) of each coverage check in learner."""
    checks = []

    def recording(system, examples, step_limit, table=None):
        checks.append((system, list(table or ())))
        return covers_all(system, examples, step_limit, table)

    with mock.patch.object(learner, "covers_all", recording):
        yield checks


def assert_seeded_coverage_is_exact(target, examples, env, sigs, cfg=None):
    """Every attempt's uncovered examples are those each example's own untabled
    evaluation leaves, in order, and every redex that a check's table held
    before the check is rooted at a symbol of the auxiliaries below the
    checked function: none at that function or a layer above it.  Returns
    how many checks started from a seeded table."""
    with coverage_checks() as checks:
        report = induce(target, examples, env, sigs, cfg)
    by_fn = layer_examples(report, examples)
    step_limit = (cfg or InduceConfig()).step_limit
    for attempt in report.attempts:
        _, expected = untabled_covers_all(attempt.candidate, by_fn[attempt.fn], step_limit)
        assert attempt.uncovered == expected
    learned_below = {a.candidate: {r.lhs.head for r in a.candidate.rules} - {a.fn}
                     for a in report.attempts}
    for system, seeded in checks:
        if system in learned_below:  # the whole-set anti-unifier's check has no attempt
            assert {redex.head for redex in seeded} <= learned_below[system]
    return sum(bool(seeded) for _, seeded in checks)


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_seeded_coverage_agrees_with_untabled_coverage(seed):
    rng = random.Random(seed)
    if rng.random() < 0.2:
        env, sig = tree_env(), Signature("size", ("tree",), "nat")
        args = ("size", size_shape_examples(rng, rng.randint(2, 25)), env, [sig])
    else:
        args = random_small_problem(rng)
    # a small limit ends some evaluations, tabled or not, at the same step
    cfg = InduceConfig(step_limit=rng.choice([10000, rng.randint(1, 30)]))
    assert_seeded_coverage_is_exact(*args, cfg)


@pytest.mark.parametrize("name, cfg", SEED_PROBLEMS)
def test_seeded_coverage_agrees_with_untabled_coverage_on_seed_problems(name, cfg):
    problem = load_problem(name, **cfg)
    assert_seeded_coverage_is_exact(problem.target, problem.examples, problem.sort_env,
                                    problem.signatures, problem.config)


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_coverage_agrees_with_untabled_coverage_on_a_large_size_set(seed):
    env, sig = tree_env(), Signature("size", ("tree",), "nat")
    examples = size_shape_examples(random.Random(seed), 75)
    assert assert_seeded_coverage_is_exact("size", examples, env, [sig]) > 0


def test_a_seeded_table_leaves_out_redexes_of_the_layers_above():
    """An auxiliary's system has no rule for the target, so a call of the target is stuck
    there; a table entry saying so must not reach the target's check, whose system
    evaluates that call.  The entry is put into each successful auxiliary's table
    by hand: an auxiliary whose examples hold such a call never succeeds."""
    problem = load_problem("add.tl")
    add = lambda a, b: App("add", (a, b))
    examples = [*problem.examples,
                eq("add", (add(nat(0), nat(1)), nat(0)), nat(1)),
                eq("add", (App("s", (add(nat(0), nat(1)),)), nat(0)), nat(2)),
                eq("add", (nat(1), add(nat(1), nat(1))), nat(3))]
    args = ("add", examples, problem.sort_env, problem.signatures)
    stuck_call = add(nat(0), nat(1))
    inner = learner._induce

    def stuck_target_call_induce(ctx, fn, *rest):
        rules, aux_sigs, uncovered, table = inner(ctx, fn, *rest)
        if table is not None and fn != "add":
            table[stuck_call] = (stuck_call, 0, True)
        return rules, aux_sigs, uncovered, table

    def fresh_table_covers_all(system, examples, step_limit, table=None):
        return covers_all(system, examples, step_limit)

    def outcome(report):
        return (report.system and [r.render() for r in report.system.rules],
                [(a.fn, a.position, a.uncovered) for a in report.attempts])

    with mock.patch.object(learner, "_induce", stuck_target_call_induce):
        assert assert_seeded_coverage_is_exact(*args) > 0
        seeded = induce(*args)
    with mock.patch.object(learner, "covers_all", fresh_table_covers_all):
        fresh = induce(*args)
    assert seeded.success
    assert outcome(seeded) == outcome(fresh)


def test_a_candidate_without_rules_is_not_evaluated():
    # f8's first argument is the tree's element, a variable in every example
    problem = load_problem("size.tl")
    evaluated = []
    evaluate_steps = rewrite.evaluate_steps

    def recording_evaluate_steps(system, *rest):
        evaluated.append(system)
        return evaluate_steps(system, *rest)

    with mock.patch.object(rewrite, "evaluate_steps", recording_evaluate_steps):
        report = induce(problem.target, problem.examples, problem.sort_env,
                        problem.signatures, problem.config)
    first = report.attempts[0]
    assert (first.fn, first.position, first.candidate.rules) == ("f8", 0, ())
    assert first.uncovered == layer_examples(report, problem.examples)["f8"]
    assert all(system is not first.candidate for system in evaluated)
    assert evaluated  # the other attempts are evaluated
    assert next(e for e in report.trace if e.kind == "uncovered").text == (
        "uncovered examples: [f8(va,0,0)=s(0),f8(vb,s(0),0)=s(s(0)),f8(va,0,s(0))=s(s(0)),"
        "f8(vb,s(0),s(0))=s(s(s(0))),f8(va,0,s(s(0)))=s(s(s(0))),f8(va,0,s(s(0)))=s(s(s(0))),"
        "f8(vb,s(0),s(s(0)))=s(s(s(s(0)))),f8(vc,s(s(0)),s(0))=s(s(s(s(0))))]")


def outcome_text(report) -> tuple:
    """Everything a printer shows of an induce report, as text."""
    failure = report.failure
    return ([(e.level, e.kind, e.text) for e in report.trace],
            report.system and [r.render() for r in report.system.rules],
            report.warnings,
            failure and (failure.reason, [ex.render() for ex in failure.uncovered]))


def sharing_variants(examples) -> list:
    """examples as given, as copies that share no node, and with every equal
    subterm one object."""
    return [examples,
            [eq(ex.fn, map(built_apart, ex.lhs_args), built_apart(ex.rhs)) for ex in examples],
            interned(examples)[0]]


SHARING_PROBLEMS = [(name, cfg, None) for name, cfg in SEED_PROBLEMS] + [
    ("size", {}, seed) for seed in (1, 2)]


@pytest.mark.parametrize("name, cfg, seed", SHARING_PROBLEMS)
def test_induce_does_not_depend_on_how_its_input_shares_nodes(name, cfg, seed):
    if seed is None:
        problem = load_problem(name, **cfg)
        target, examples, env, sigs, config = (problem.target, problem.examples,
                                               problem.sort_env, problem.signatures,
                                               problem.config)
    else:  # a learn_scale-like size set
        target, env, sigs = "size", tree_env(), [Signature("size", ("tree",), "nat")]
        examples, config = size_shape_examples(random.Random(seed), 75), None
    outcomes = []
    for given in sharing_variants(examples):
        report = induce(target, given, env, sigs, config)
        outcomes.append(outcome_text(report))
        if report.failure:  # the uncovered examples are given ones, in their order
            left = iter(given)
            assert all(any(ex == g for g in left) for ex in report.failure.uncovered)
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("seed", [1, 2])
def test_equal_arguments_of_derived_examples_are_one_object(seed):
    examples = size_shape_examples(random.Random(seed), 75)
    report = induce("size", examples, tree_env(), [Signature("size", ("tree",), "nat")])
    assert report.success
    args = [a for _aux, _layer, ex in report.derived_aux for a in ex.lhs_args]
    assert len(set(args)) < len(args)  # some are equal
    assert equal_subterms_are_one_object(args)


def derived_sides(args) -> tuple:
    """(each side of each derived auxiliary equation of `induce(*args)`, each
    renamed resolution of a recursive call)."""
    renamed = []
    inner = learner._resolve_call

    def recording(call, examples, pool):
        value, warn = inner(call, examples, pool)
        if value is not None and not is_ground(value):
            renamed.append(value)
        return value, warn

    with mock.patch.object(learner, "_resolve_call", recording):
        report = induce(*args)
    return [t for _aux, _layer, ex in report.derived_aux for t in (*ex.lhs_args, ex.rhs)], renamed


def assert_nodes_of_one_pool(terms):
    """Every term has its cached blind form, and equal subterms are one object."""
    assert all(blind_form(t) == blinded(t) for t in terms)
    assert equal_subterms_are_one_object(terms)


@pytest.mark.parametrize("name, cfg", SEED_PROBLEMS)
def test_derived_equations_are_nodes_of_the_induce_pool_on_seed_problems(name, cfg):
    problem = load_problem(name, **cfg)
    sides, renamed = derived_sides((problem.target, problem.examples, problem.sort_env,
                                    problem.signatures, problem.config))
    assert_nodes_of_one_pool(sides + renamed)
    assert bool(renamed) == (name == "rev.tl")  # the one seed problem whose rhs hold variables


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_derived_equations_are_nodes_of_the_induce_pool(seed):
    sides, renamed = derived_sides(random_small_problem(random.Random(seed)))
    assert_nodes_of_one_pool(sides + renamed)


def test_small_problem_draws_resolve_calls_to_renamed_right_hand_sides():
    # the property above is vacuous for renamed resolutions unless some draw makes one
    assert any(derived_sides(random_small_problem(random.Random(seed)))[1] for seed in range(20))
