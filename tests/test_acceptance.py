"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line so a full run doubles as a report.
The expected rewrite systems are written out literally and compared modulo
consistent renaming of fresh variables and auxiliary function symbols.
"""

import random

from rwlearn import induce, prune_irrelevant_args
from rwlearn.antiunify import INF, GenStore, lgg
from rwlearn.rewrite import Rule, covers, covers_all
from rwlearn.simplify import inline_single_rule_aux
from rwlearn.terms import (
    App,
    ConstructorAlt,
    IOEquation,
    Signature,
    SortEnv,
    Var,
    match_pattern,
    substitute,
)

from helpers import (
    blist_add_examples,
    canonical_rules,
    common_generalizations,
    contained_up_to_renaming,
    is_common_generalization,
    lgg_classic,
    list_env,
    nat_env,
    random_ground_subst,
    random_term,
    renamed_subterm_pool,
    run_file,
    tree_env,
    witness,
)


def _check(criterion: int, description: str, ok: bool):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion}: {description}"


def _pruned(problem, report):
    return prune_irrelevant_args(report.system, keep={problem.target})


def _canon(system, problem):
    fixed = problem.sort_env.symbols() | {problem.target}
    return canonical_rules(system.rules, fixed)


def _expected(problem, pairs):
    fixed = problem.sort_env.symbols() | {problem.target}
    return canonical_rules([Rule(l, r) for l, r in pairs], fixed)


def test_criterion_1_addition_golden_run():
    problem, report = run_file("add.tl")
    system = _pruned(problem, report)
    u, v, w, a, b = Var("u"), Var("v"), Var("w"), Var("a"), Var("b")
    s = lambda t: App("s", (t,))
    expected = _expected(problem, [
        (App("add", (App("0"), v)), v),
        (App("add", (s(u), v)), App("f", (v, App("add", (u, v))))),
        (App("f", (App("0"), w)), s(w)),
        (App("f", (s(a), s(b))), s(s(b))),
    ])
    ok = (report.success
          and len(system.rules) == 4
          and _canon(system, problem) == expected
          and covers_all(system, problem.examples)[0])
    _check(1, "add learns the 4-rule recursive system and covers all 8 examples", ok)


def test_criterion_2_tree_size_golden_run():
    problem, report = run_file("size.tl")
    system = _pruned(problem, report)
    x, y, z, u, v, a, b = (Var(n) for n in "xyzuvab")
    s = lambda t: App("s", (t,))
    zero = App("0")
    expected = _expected(problem, [
        (App("size", (App("nl"),)), zero),
        (App("size", (App("nd", (x, y, z)),)),
         App("f1", (App("size", (x,)), App("size", (z,))))),
        (App("f1", (zero, v)), s(v)),
        (App("f1", (s(u), v)), App("f2", (v, App("f1", (u, v))))),
        (App("f2", (zero, s(zero))), s(s(zero))),
        (App("f2", (s(a), s(s(b)))), s(s(s(b)))),
    ])
    aux_arities = sorted(sig.arity for sig in system.signatures if sig.name != "size")
    ok = (report.success
          and len(system.rules) == 6
          and aux_arities == [2, 2]
          and _canon(system, problem) == expected
          and covers_all(system, problem.examples)[0])
    _check(2, "size learns the 6-rule system with both auxiliaries pruned to arity 2", ok)


def test_criterion_3_reverse_golden_run():
    problem, report = run_file("rev.tl")
    system = _pruned(problem, report)
    x, y, u, v, w, t = (Var(n) for n in "xyuvwt")
    cons = lambda h, tl: App("cons", (h, tl))
    nil = App("nil")
    expected = _expected(problem, [
        (App("rev", (nil,)), nil),
        (App("rev", (cons(x, y),)), App("f1", (x, App("rev", (y,))))),
        (App("f1", (x, nil)), cons(x, nil)),
        (App("f1", (x, cons(u, v))), App("f2", (u, App("f1", (x, v))))),
        (App("f2", (u, cons(w, t))), cons(u, cons(w, t))),
    ])
    arities = {sig.name: sig.arity for sig in system.signatures}
    aux = sorted(n for n in arities if n != "rev")
    ok = (report.success
          and len(system.rules) == 5
          and len(aux) == 2
          and all(arities[n] == 2 for n in aux)
          and _canon(system, problem) == expected
          and covers_all(system, problem.examples)[0])
    _check(3, "rev learns the 5-rule system with both auxiliaries at arity 2", ok)


def test_criterion_4_inlined_presentations():
    # single-rule auxiliaries only arise when the whole example subset
    # anti-unifies at once, so these runs enable that strategy
    ok = True
    problem, report = run_file("dup.tl", try_whole_set_lgg_first=True)
    system = inline_single_rule_aux(_pruned(problem, report), keep={"dup"})
    x = Var("x")
    s = lambda t: App("s", (t,))
    expected = _expected(problem, [
        (App("dup", (App("0"),)), App("0")),
        (App("dup", (s(x),)), s(s(App("dup", (x,))))),
    ])
    ok &= report.success and _canon(system, problem) == expected
    ok &= covers_all(system, problem.examples)[0]

    problem, report = run_file("lgth.tl", try_whole_set_lgg_first=True)
    system = inline_single_rule_aux(_pruned(problem, report), keep={"lgth"})
    y = Var("y")
    expected = _expected(problem, [
        (App("lgth", (App("nil"),)), App("0")),
        (App("lgth", (App("cons", (x, y)),)), s(App("lgth", (y,)))),
    ])
    ok &= report.success and _canon(system, problem) == expected
    ok &= covers_all(system, problem.examples)[0]
    _check(4, "inlining yields the textbook two-rule dup and lgth definitions", ok)


def test_criterion_5_failure_modes():
    problem, report = run_file("sq.tl")
    sq_ok = (not report.success
             and report.failure.reason == "underivable-aux-examples"
             and any(u.layer == 2 for u in report.failure.underivable))

    # binary addition, examples generated from integer arithmetic
    env = SortEnv({"blist": (ConstructorAlt("nl"),
                             ConstructorAlt("o", ("blist",)),
                             ConstructorAlt("i", ("blist",)))})
    examples = blist_add_examples(4)
    sig = Signature("badd", ("blist", "blist"), "blist")
    badd_report = induce("badd", examples, env, [sig])
    badd_ok = not badd_report.success and badd_report.failure is not None

    # the checked-in problem file must agree with the oracle-generated set
    badd_problem, _ = run_file("badd.tl")
    file_ok = badd_problem.examples == examples

    _check(5, "sq fails with layer-2 underivable auxiliaries; binary add fails too",
           sq_ok and badd_ok and file_ok)


def test_criterion_6_depth_bound_behavior():
    _, r1 = run_file("size.tl", depth=1)
    d1_ok = not r1.success

    problem2, r2 = run_file("size.tl", depth=2)
    size_attempts = [a for a in r2.attempts if a.fn == "size"]
    d2_ok = (not r2.success
             and any(
                 any(isinstance(rule.lhs.args[0], Var) and rule.rhs == App("0")
                     for rule in a.candidate.rules if rule.lhs.head == "size")
                 and len(a.uncovered) == 8
                 for a in size_attempts))

    problem3, r3 = run_file("size.tl", depth=3)
    sys3 = _pruned(problem3, r3)
    x, y, z, u, v = (Var(n) for n in "xyzuv")
    s = lambda t: App("s", (t,))
    zero = App("0")
    expected3 = _expected(problem3, [
        (App("size", (App("nl"),)), zero),
        (App("size", (App("nd", (x, y, z)),)),
         App("f1", (App("size", (x,)), App("size", (z,))))),
        (App("f1", (zero, v)), s(v)),
        (App("f1", (s(u), v)), App("f2", (v, App("f1", (u, v))))),
        (App("f2", (zero, s(z))), s(s(z))),
        (App("f2", (s(y), s(z))), s(s(z))),
    ])
    d3_ok = r3.success and _canon(sys3, problem3) == expected3

    problem4, r4 = run_file("size.tl", depth=4)
    problem_inf, r_inf = run_file("size.tl")
    d4_ok = (r4.success and r_inf.success
             and _canon(_pruned(problem4, r4), problem4)
             == _canon(_pruned(problem_inf, r_inf), problem_inf))

    _check(6, "size: d=1 fails, d=2 covers 1 of 9, d=3 widens the base rules, d=4 = d=inf",
           d1_ok and d2_ok and d3_ok and d4_ok)


def test_criterion_7_anti_unification_properties():
    rng = random.Random(20260823)
    envs = [(nat_env(), "nat"), (list_env(), "list"), (tree_env(), "tree")]
    pools = {
        "nat": {"nat": ["p", "q"]},
        "list": {"nat": ["p", "q"], "list": ["r"]},
        "tree": {"nat": ["p", "q"], "tree": ["r"]},
    }

    witness_ok = True
    for _ in range(1000):
        env, sort = rng.choice(envs)
        ts = tuple(random_term(env, sort, 4, rng, pools[sort])
                   for _ in range(rng.randint(2, 4)))
        store = GenStore()
        g = lgg(ts, store)
        for i, t in enumerate(ts):
            witness_ok &= substitute(g, witness(store, i)) == t

    minimal_ok = True
    depth_ok = True
    for _ in range(200):
        env, sort = rng.choice([(nat_env(), "nat"), (list_env(), "list")])
        t1 = random_term(env, sort, 3, rng, pools["list"])
        t2 = random_term(env, sort, 3, rng, pools["list"])
        g = lgg((t1, t2), GenStore())
        minimal_ok &= is_common_generalization(g, t1, t2)
        for cg in common_generalizations(t1, t2):
            minimal_ok &= match_pattern(cg, g) is not None
        depth_ok &= lgg((t1, t2), GenStore(), depth=INF) == lgg_classic((t1, t2), GenStore())

    _check(7, "lgg witnesses instantiate (1000 tuples); lgg is the minimal common "
              "generalization (200 pairs); depth=inf agrees with the classic algorithm",
           witness_ok and minimal_ok and depth_ok)


SUCCESSFUL_RUNS = [
    ("add.tl", {}),
    ("size.tl", {}),
    ("rev.tl", {}),
    ("dup.tl", {"try_whole_set_lgg_first": True}),
    ("lgth.tl", {"try_whole_set_lgg_first": True}),
]


def test_criterion_8_frozen_variable_soundness():
    rng = random.Random(7)
    ok = True
    for name, cfg in SUCCESSFUL_RUNS:
        problem, report = run_file(name, **cfg)
        system = _pruned(problem, report)
        for ex in problem.examples:
            for _ in range(20):
                subst = random_ground_subst(problem.var_sorts, problem.sort_env, rng)
                ground = IOEquation(ex.fn,
                                    tuple(substitute(a, subst) for a in ex.lhs_args),
                                    substitute(ex.rhs, subst))
                ok &= covers(system, ground)
    _check(8, "every non-ground example holds under 20 random ground instantiations", ok)


def test_criterion_9_invariants():
    coverage_ok = True
    simplify_ok = True
    containment_ok = True
    for name, cfg in SUCCESSFUL_RUNS + [("sq.tl", {}), ("badd.tl", {})]:
        problem, report = run_file(name, **cfg)
        pool = renamed_subterm_pool(problem.examples)
        for _, _, aux_eq in report.derived_aux:
            for t in (*aux_eq.lhs_args, aux_eq.rhs):
                containment_ok &= contained_up_to_renaming(t, pool)
        if not report.success:
            continue
        coverage_ok &= covers_all(report.system, problem.examples)[0]
        pruned = prune_irrelevant_args(report.system, keep={problem.target})
        inlined = inline_single_rule_aux(pruned, keep={problem.target})
        simplify_ok &= covers_all(pruned, problem.examples)[0]
        simplify_ok &= covers_all(inlined, problem.examples)[0]
    _check(9, "success implies coverage; simplification preserves coverage; "
              "derived auxiliary equations reuse only renamed example subterms",
           coverage_ok and simplify_ok and containment_ok)
