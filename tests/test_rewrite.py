"""Unit tests for rule admission, innermost evaluation and coverage."""

import ast
import itertools
import math
import re
from sys import getrecursionlimit

import pytest

from rwlearn import codegen, induce, rewrite
from rwlearn.codegen import evaluator_source
from rwlearn.rewrite import (
    NORMAL,
    RewriteSystem,
    Rule,
    RuleError,
    StepLimitExceeded,
    StuckTerm,
    covers,
    covers_all,
    evaluate,
    evaluate_steps,
    redex_skeleton,
    rule_defect,
)
from rwlearn.simplify import prune_irrelevant_args
from rwlearn.terms import App, Signature, Var, match_pattern, same_term, substitute, subterms

from helpers import (compiles, eq, hot_steps, is_hot, lst, nat, nat_env, outcome, rebuilt,
                     restarting_evaluate_steps, run_file, untabled_covers_all,
                     untabled_evaluate_steps)

# HOT_STEPS values: every system hot from the start, and every system cold
TIERS = [0, math.inf]


def add_system() -> RewriteSystem:
    x, y = Var("x"), Var("y")
    return RewriteSystem(
        [
            Rule(App("add", (App("0"), y)), y),
            Rule(App("add", (App("s", (x,)), y)), App("s", (App("add", (x, y)),))),
        ],
        [Signature("add", ("nat", "nat"), "nat")],
    )


def test_evaluate_addition():
    assert evaluate(add_system(), App("add", (nat(2), nat(3)))) == nat(5)


def test_evaluate_steps_counts_rewrites():
    _, steps = evaluate_steps(add_system(), App("add", (nat(2), nat(3))))
    assert steps == 3  # two s-steps plus the base case


def test_evaluation_and_matching_do_not_recurse_on_deep_terms():
    n = getrecursionlimit() + 100
    out, steps = evaluate_steps(add_system(), App("add", (nat(n), nat(n))), step_limit=2 * n)
    assert steps == n + 1
    assert same_term(out, nat(2 * n))
    assert not same_term(out, nat(2 * n - 1))
    x = Var("x")
    deep_pattern = x
    for _ in range(n):
        deep_pattern = App("s", (deep_pattern,))
    assert match_pattern(deep_pattern, nat(n)) == {"x": App("0")}
    # a non-linear pattern compares the two deep images
    assert match_pattern(App("f", (x, x)), App("f", (nat(n), nat(n)))) is not None
    assert match_pattern(App("f", (x, x)), App("f", (nat(n), nat(n + 1)))) is None


def test_substitute_does_not_recurse_on_deep_terms():
    n = 10 * getrecursionlimit()
    deep_pattern = Var("x")
    for _ in range(n):
        deep_pattern = App("s", (deep_pattern,))
    assert same_term(substitute(deep_pattern, {"x": nat(2)}), nat(n + 2))
    assert same_term(substitute(deep_pattern, {}), deep_pattern)


def test_tabled_coverage_hashing_and_equality_do_not_recurse_on_deep_terms():
    n = 10 * getrecursionlimit()
    deep = nat(n)
    assert deep == nat(n) and hash(deep) == hash(nat(n)) and deep != nat(n - 1)
    assert {deep: 1}[nat(n)] == 1
    # the second lhs is a redex met while evaluating the first: a table hit
    first = eq("add", (nat(n), nat(1)), nat(n + 1))
    second = eq("add", (nat(n - 1), nat(1)), nat(n))
    wrong = eq("add", (nat(n - 1), nat(1)), nat(n + 1))
    ok, uncovered = covers_all(add_system(), [first, second, wrong], step_limit=n + 1)
    assert not ok and uncovered == [wrong]
    table = {}
    assert evaluate_steps(add_system(), first.lhs, n + 1, table)[1] == n + 1
    out, steps = evaluate_steps(add_system(), second.lhs, n + 1, table)
    assert steps == n and same_term(out, second.rhs)


@pytest.mark.parametrize("tier", TIERS)
def test_deep_right_hand_sides_are_built_and_evaluated_without_recursion(tier):
    # f's rhs is a tower of s over a call of g, h's a tower of s over its variable
    n = 10 * getrecursionlimit()
    x = Var("x")

    def tower(t):
        for _ in range(n):
            t = App("s", (t,))
        return t

    # plain booleans, asserted outside the handler: pytest's report of a deep
    # RecursionError takes minutes
    try:
        with hot_steps(tier):
            sys = RewriteSystem(
                [
                    Rule(App("f", (x,)), tower(App("g", (x,)))),
                    Rule(App("g", (x,)), App("s", (x,))),
                    Rule(App("h", (x,)), tower(x)),
                ],
                [Signature(name, ("nat",), "nat") for name in ("f", "g", "h")],
            )
        hot = is_hot(sys) == (tier == 0)
        indexed = sys.index["h"] == (None, [(App("h", (x,)), tower(x), None)])
        # h(0) -> s^n(0); f(s^n(0)) -> s^n(g(s^n(0))); g(s^n(0)) -> s^(n+1)(0)
        t = App("f", (App("h", (nat(0),)),))
        table = {}
        normal = []
        with compiles() as compiled:
            # untabled, tabled, and again from the table
            for known in (None, table, table):
                out, steps = evaluate_steps(sys, t, table=known)
                normal.append(steps == 3 and same_term(out, nat(2 * n + 1)))
            out, steps = evaluate_steps(sys, App("h", (nat(1),)))
            normal.append(steps == 1 and same_term(out, nat(n + 1)))
        compiled_once = compiled == ([sys] if tier == 0 else [])
    except RecursionError:
        hot = indexed = compiled_once = False
        normal = []
    assert hot
    assert indexed
    assert normal == [True] * 4
    assert compiled_once


@pytest.mark.parametrize("tier", TIERS)
def test_deep_left_hand_sides_are_matched_without_recursion(tier):
    # d(s^n(x), s(0)) = x, as the only rule of d
    n = 10 * getrecursionlimit()
    x = Var("x")
    pattern = x
    for _ in range(n):
        pattern = App("s", (pattern,))
    # plain booleans, asserted outside the handler: pytest's report of a deep
    # RecursionError takes minutes
    try:
        with hot_steps(tier):
            sys = RewriteSystem([Rule(App("d", (pattern, nat(1))), x)],
                                [Signature("d", ("nat", "nat"), "nat")])
        hot = is_hot(sys) == (tier == 0)
        matched = outcome(evaluate_steps, sys, App("d", (nat(n + 2), nat(1))), 10) == (nat(2), 1)
        stuck = [outcome(evaluate_steps, sys, t, 10) == (StuckTerm, t)
                 for t in (App("d", (nat(n - 1), nat(1))), App("d", (nat(n + 2), nat(2))),
                           App("d", (nat(n + 2),)))]
    except RecursionError:
        hot = matched = False
        stuck = []
    assert hot
    assert matched
    assert stuck == [True] * 3


def test_golden_add_system_index_triples():
    problem, report = run_file("add.tl")
    system = prune_irrelevant_args(report.system, keep={problem.target})
    assert [rule.render() for rule in system.rules] == [
        "add(0,v1)=v1",
        "add(s(v6),v5)=f7(v5,add(v6,v5))",
        "f7(0,v8)=s(v8)",
        "f7(s(v9),s(v10))=s(s(v10))",
    ]
    zero, step, f7_zero, f7_step = ((rule.lhs, rule.rhs) for rule in system.rules)
    # only the recursive call in add's step rule is walked, as a redex over
    # normal arguments; the other right-hand sides are normal as built
    assert system.index == {
        "add": (0, {"0": [(*zero, None)], "s": [(*step, (NORMAL, App("add")))]}),
        "f7": (0, {"0": [(*f7_zero, None)], "s": [(*f7_step, None)]}),
    }
    assert system.index["add"][1]["s"][0][2][0] is NORMAL


def golden_rev_system() -> RewriteSystem:
    problem, report = run_file("rev.tl")
    system = prune_irrelevant_args(report.system, keep={problem.target})
    assert [rule.render() for rule in system.rules][-1] == \
        "f13(va,cons(vb,v15))=cons(va,cons(vb,v15))"
    return system


def test_the_golden_rev_system_builds_one_node_per_f13_step():
    # the inner cons of f13's rhs is the redex's own second argument, a1, so
    # the compiled step builds only the outer cons, and unpacks nothing
    source, constants = evaluator_source(golden_rev_system())
    lines = source.splitlines()
    start = lines.index(f"        if pc == {constants['calls']['f13'][1]}:") + 1
    block = list(itertools.takewhile(lambda line: not line.startswith("        if pc == "),
                                     lines[start:]))
    assert [line.strip() for line in block if "App(" in line and "StuckTerm" not in line] == \
        ["r = App('cons', (a0, a1, ))"]
    assert not any(line.endswith(".args") for line in block)


def test_a_hot_system_returns_the_matched_input_nodes_themselves():
    # in d's rhs, s(s(x)) is d's first argument and s(x) its argument
    x, y = Var("x"), Var("y")
    d = RewriteSystem([Rule(App("d", (App("s", (App("s", (x,)),)), y)),
                            App("p", (App("s", (App("s", (x,)),)), App("s", (x,)), y)))],
                      [Signature("d", ("nat", "nat"), "nat")])
    with hot_steps(0):
        rev, d = rebuilt(golden_rev_system()), rebuilt(d)
    tail = lst(nat(1), nat(2))
    out, steps = evaluate_steps(rev, App("f13", (nat(0), tail)))
    assert steps == 1 and out == App("cons", (nat(0), tail)) and out.args[1] is tail
    t = App("d", (nat(3), nat(1)))
    out, steps = evaluate_steps(d, t)
    assert steps == 1 and out == App("p", (nat(3), nat(2), nat(1)))
    assert out.args[0] is t.args[0] and out.args[1] is t.args[0].args[0]
    assert out.args[2] is t.args[1]


def test_redex_skeleton_marks_the_positions_that_can_hold_a_redex():
    x, defined = Var("x"), {"f", "c"}
    cases = [
        (x, None),
        (App("s", (App("0"), x)), None),
        (App("c"), ()),
        (App("f", (App("s", (x,)), x)), ()),
        (App("s", (App("0"), App("f", (x,)))), (NORMAL, App("f"))),
        (App("f", (x, App("s", (App("c"),)))), (NORMAL, App("s", (App("c"),)))),
    ]
    for rhs, shape in cases:
        assert redex_skeleton(rhs, defined) == shape, rhs


def rev2_system() -> RewriteSystem:
    """List reversal with an accumulator: each step's contractum is the next redex."""
    x, l, acc = Var("x"), Var("l"), Var("acc")
    return RewriteSystem(
        [
            Rule(App("rev2", (App("nil"), acc)), acc),
            Rule(App("rev2", (App("cons", (x, l)), acc)), App("rev2", (l, App("cons", (x, acc))))),
        ],
        [Signature("rev2", ("list", "list"), "list")],
    )


@pytest.mark.parametrize("tier", TIERS)
def test_deep_inputs_are_evaluated_without_recursion(tier):
    # rev2 reverses a long list by tail calls; add_system's s(add(x, y)) waits
    # on each recursive call, so its calls nest as deep as its input; and a
    # call can sit at the bottom of a deep constructor term
    n = 10 * getrecursionlimit()
    elems = [nat(i % 3) for i in range(n)]
    open_list = Var("a")
    for e in reversed(elems):
        open_list = App("cons", (e, open_list))
    tower = App("add", (nat(2), nat(1)))
    for _ in range(n):
        tower = App("s", (tower,))
    nil = App("nil")
    with hot_steps(tier):
        rev2, add = rev2_system(), add_system()
    cases = [
        (rev2, App("rev2", (lst(*elems), nil)), n + 1, (lst(*reversed(elems)), n + 1)),
        (rev2, App("rev2", (lst(*elems), nil)), n, (StepLimitExceeded, n)),
        (rev2, App("rev2", (open_list, nil)), n + 1,
         (StuckTerm, App("rev2", (Var("a"), lst(*reversed(elems)))))),
        (add, App("add", (nat(n), nat(n))), n + 1, (nat(2 * n), n + 1)),
        (add, App("add", (nat(n), nat(n))), n, (StepLimitExceeded, n)),
        (add, tower, 3, (nat(n + 3), 3)),
    ]
    with compiles() as compiled:
        for sys, t, limit, expected in cases:
            assert outcome(evaluate_steps, sys, t, limit) == expected
    assert compiled == ([rev2, add] if tier == 0 else [])


def test_contractum_whose_root_is_a_call_over_normal_arguments():
    # rev2's step rule has the skeleton (): its contractum is the next redex
    sys = rev2_system()
    assert sys.index["rev2"][1]["cons"][0][2] == ()
    nil = App("nil")
    cases = [
        (App("rev2", (lst(nat(1), nat(2), nat(3)), nil)), 10, (lst(nat(3), nat(2), nat(1)), 4)),
        (App("rev2", (App("cons", (nat(1), Var("a"))), nil)), 10,
         (StuckTerm, App("rev2", (Var("a"), lst(nat(1)))))),
        (App("rev2", (lst(nat(1), nat(2), nat(3)), nil)), 2, (StepLimitExceeded, 2)),
    ]
    for t, limit, expected in cases:
        assert outcome(restarting_evaluate_steps, sys, t, limit) == expected
        table = {}
        # untabled, tabled, and again from the table
        for known in (None, table, table):
            assert outcome(lambda *a: evaluate_steps(*a, table=known), sys, t, limit) == expected


def test_normal_arguments_beside_a_call_are_instantiated():
    # app's step rule has a call below a constructor, and rev's a compound
    # normal argument, cons(x, nil), beside a call
    x, l, y = Var("x"), Var("l"), Var("y")
    nil = App("nil")
    sys = RewriteSystem(
        [
            Rule(App("rev", (nil,)), nil),
            Rule(App("rev", (App("cons", (x, l)),)), App("app", (App("rev", (l,)), lst(x)))),
            Rule(App("app", (nil, y)), y),
            Rule(App("app", (App("cons", (x, l)), y)), App("cons", (x, App("app", (l, y))))),
        ],
        [Signature("rev", ("list",), "list"), Signature("app", ("list", "list"), "list")],
    )
    assert sys.index["rev"][1]["cons"][0][2] == (App("rev"), NORMAL)
    assert sys.index["app"][1]["cons"][0][2] == (NORMAL, App("app"))
    t = App("rev", (lst(nat(1), nat(2), nat(3)),))
    expected = (lst(nat(3), nat(2), nat(1)), 10)
    assert outcome(restarting_evaluate_steps, sys, t, 100) == expected
    table = {}
    for known in (None, table, table):
        assert outcome(lambda *a: evaluate_steps(*a, table=known), sys, t, 100) == expected


def test_systems_over_the_same_rule_share_its_skeleton(monkeypatch):
    built = []

    def counting_skeleton(rhs, defined):
        built.append(rhs)
        return redex_skeleton(rhs, defined)

    monkeypatch.setattr(rewrite, "redex_skeleton", counting_skeleton)
    x = Var("x")
    rule = Rule(App("f", (App("s", (x,)),)), App("s", (App("g", (x,)),)))
    f, g, h = (Signature(name, ("nat",), "nat") for name in ("f", "g", "h"))
    first = RewriteSystem([rule], [f, g])
    assert built == [rule.rhs]
    # h is not a head of the rhs, so the shape is the same: no new skeleton
    second = RewriteSystem([rule], [f, g, h])
    assert built == [rule.rhs]
    assert second.index["f"][1]["s"][0] is first.index["f"][1]["s"][0]
    # with g undefined the rhs is normal as built: a skeleton of its own
    third = RewriteSystem([rule], [f])
    assert len(built) == 2 and third.index["f"][1]["s"][0][2] is None
    assert RewriteSystem([rule], [f]).index == third.index and len(built) == 2


def test_a_second_system_over_a_rule_does_not_walk_it_again(monkeypatch):
    walked = []

    def counting_subterms(t):
        walked.append(t)
        return subterms(t)

    monkeypatch.setattr(rewrite, "subterms", counting_subterms)
    x, y = Var("x"), Var("y")
    rule = Rule(App("f", (App("s", (x,)), y)), App("s", (App("g", (x,)),)))
    f, g = Signature("f", ("nat", "nat"), "nat"), Signature("g", ("nat",), "nat")
    RewriteSystem([rule], [f, g])
    assert walked
    count = len(walked)
    RewriteSystem([rule], [f, g])
    # the head, arity and defined-symbol checks are still made per system
    with pytest.raises(RuleError, match="^defined symbol s inside lhs pattern$"):
        RewriteSystem([rule], [f, g, Signature("s", ("nat",), "nat")])
    with pytest.raises(RuleError, match="^lhs of f has 2 arguments, but f has arity 1$"):
        RewriteSystem([rule], [Signature("f", ("nat",), "nat"), g])
    assert len(walked) == count


def test_rule_defect_names_the_first_defect_in_pre_order():
    x, y = Var("x"), Var("y")
    repeat_first = Rule(App("f", (x, x, App("g", (y,)))), y)
    call_first = Rule(App("f", (App("g", (x,)), x)), y)
    for defined in ({"f"}, {"f", "g"}):
        assert rule_defect(repeat_first, defined) == "non-left-linear lhs of f: variable x repeats"
    assert rule_defect(call_first, {"f"}) == "non-left-linear lhs of f: variable x repeats"
    assert rule_defect(call_first, {"f", "g"}) == "defined symbol g inside lhs pattern"
    unbound = Rule(App("f", (App("g", (x,)),)), y)
    assert rule_defect(unbound, {"f"}) == "unbound rhs variable y in a rule of f"
    assert rule_defect(unbound, {"f", "g"}) == "defined symbol g inside lhs pattern"


def test_a_system_turns_hot_between_calls_that_share_a_table():
    # tabled calls neither count toward HOT_STEPS nor run the compiled
    # evaluator; the untabled calls among them turn the system hot
    a = Var("a")
    calls = [(App("add", (nat(3), nat(2))), True, 100),          # 4 steps, not counted
             (App("add", (App("s", (a,)), nat(0))), False, 100),  # 1 step, stuck on add(a, 0)
             (App("add", (nat(7), nat(1))), False, 100),          # 8 steps: 9 in all
             (App("add", (nat(5), nat(2))), True, 100),           # add(3, 2) in the table
             (App("add", (nat(2), App("s", (a,)))), False, 1),    # 1 step to the limit: hot
             (App("add", (nat(2), nat(2))), True, 100),           # all in the table
             (App("add", (App("s", (App("s", (a,)),)), nat(0))), False, 100),  # stuck, compiled
             (App("add", (App("s", (App("s", (a,)),)), nat(0))), True, 100),   # stuck, tabled
             (App("add", (nat(1), nat(1))), False, 100)]
    with hot_steps(10):
        sys = add_system()
    table = {}
    hot = []
    with compiles() as compiled:
        for t, tabled, limit in calls:
            result = outcome(lambda *args: evaluate_steps(*args, table if tabled else None),
                             sys, t, limit)
            assert result == outcome(untabled_evaluate_steps, sys, t, limit)
            hot.append(is_hot(sys))
    assert hot == [False, False, False, False, True, True, True, True, True]
    assert compiled == [sys]
    # a coverage check is tabled throughout: however many steps it takes, the
    # system stays cold
    examples = [eq("add", t.args, nat(6)) for t, _, _ in calls]
    with hot_steps(1):
        sys = add_system()
    assert covers_all(sys, examples, 100) == untabled_covers_all(sys, examples, 100)
    assert not is_hot(sys)


def test_calls_that_end_in_an_error_count_toward_turning_hot():
    a = Var("a")
    with hot_steps(10):
        sys = add_system()
    with compiles() as compiled:
        with pytest.raises(StuckTerm):  # 2 steps, then stuck on add(a, 0)
            evaluate_steps(sys, App("add", (App("s", (App("s", (a,)),)), nat(0))))
        with pytest.raises(StepLimitExceeded):  # 7 steps
            evaluate_steps(sys, App("add", (nat(20), nat(0))), 7)
        assert not is_hot(sys)
        with pytest.raises(StepLimitExceeded):  # 1 step: 10 in all
            evaluate_steps(sys, App("add", (nat(20), nat(0))), 1)
        assert is_hot(sys) and compiled == []
        t = App("add", (App("s", (a,)), nat(0)))
        assert outcome(evaluate_steps, sys, t, 100) == (StuckTerm, App("add", (a, nat(0))))
    assert compiled == [sys]


def test_only_a_root_call_over_normal_arguments_runs_the_compiled_evaluator():
    n = 10 * getrecursionlimit()
    with hot_steps(0):
        sys = add_system()
    run = sys.compiled
    ran = []

    def recording(t, step_limit):
        ran.append(t)
        return run(t, step_limit)

    sys.compiled = recording
    root = App("add", (nat(3), nat(2)))
    assert outcome(evaluate_steps, sys, root, 100) == outcome(restarting_evaluate_steps, sys,
                                                              root, 100) == (nat(5), 4)
    assert ran == [root]
    # a normal term, a call below a constructor root, and a call deep in an
    # argument, which the scan for calls must reach without recursion
    assert outcome(evaluate_steps, sys, nat(2), 100) == (nat(2), 0)
    below = App("s", (App("add", (nat(2), nat(1))),))
    assert outcome(evaluate_steps, sys, below, 100) == outcome(restarting_evaluate_steps, sys,
                                                               below, 100) == (nat(4), 3)
    deep = App("add", (nat(1), nat(1)))
    for _ in range(n):
        deep = App("s", (deep,))
    # add(1, 1) takes 2 steps and add(s^(n+2)(0), 0) n + 3: what the restarting
    # oracle gives, though it recurses too deep to run here
    assert outcome(evaluate_steps, sys, App("add", (deep, nat(0))), 2 * n) == (nat(n + 2), n + 5)
    assert ran == [root]


def test_learning_compiles_nothing_and_a_hot_system_compiles_once():
    pairs = [(a, b) for a in range(16) for b in range(16) if a + b < 18]
    examples = [eq("add", (nat(a), nat(b)), nat(a + b)) for a, b in pairs]
    assert len(examples) == 165
    t = App("add", (nat(40), nat(40)))
    with compiles() as compiled:
        report = induce("add", examples, nat_env(), [Signature("add", ("nat", "nat"), "nat")])
        assert report.success and compiled == []
        system = report.system
        expected = evaluate_steps(system, t)
        taken = expected[1]
        while taken < rewrite.HOT_STEPS:
            assert not is_hot(system)
            assert evaluate_steps(system, t) == expected
            taken += expected[1]
        assert is_hot(system) and compiled == []
        for _ in range(3):
            assert evaluate_steps(system, t) == expected
    assert compiled == [system]


# names that would break out of a string literal, a line or a call if they
# were pasted into source
NASTY = ["x'); raise SystemExit('", 'q"]]\n#', "(", "\\", "0", "a b", "\u2028", "__import__('os')",
         "v0", "App", ")\n    return None\n#"]


def test_the_generated_evaluator_holds_names_only_as_literals(monkeypatch):
    sources = []

    def recording(system):
        source, constants = evaluator_source(system)
        sources.append(source)
        return source, constants

    monkeypatch.setattr(codegen, "evaluator_source", recording)
    f, g, k, s, p = NASTY[:5]
    x, y, u, v, w = map(Var, NASTY[5:10])
    rules = [
        Rule(App(f, (App(k), y)), y),
        Rule(App(f, (App(s, (x,)), y)), App(g, (App(p, (x, App(k))), App(f, (x, y))))),
        Rule(App(g, (App(p, (u, v)), w)), App(s, (App(p, (w, App(NASTY[10]))),))),
    ]
    sigs = [Signature(f, ("t", "t"), "t"), Signature(g, ("t", "t"), "t")]
    cold = RewriteSystem(rules, sigs)
    with hot_steps(0):
        hot = rebuilt(cold)
    two = App(s, (App(s, (App(k),)),))
    for t, steps in ((App(f, (two, App(k))), 5), (App(f, (two, Var("z"))), 5),
                     (App(f, (App(s, (Var("z"),)), two)), None),
                     (App(s, (App(f, (two, App(k))), App(g, (two, two)))), None)):
        expected = outcome(restarting_evaluate_steps, cold, t, 100)
        assert expected[1] == steps or expected[0] is StuckTerm
        assert outcome(evaluate_steps, cold, t, 100) == expected
        assert outcome(evaluate_steps, hot, t, 100) == expected
    assert is_hot(hot) and not is_hot(cold) and len(sources) == 1
    names = set(NASTY)
    tree = ast.parse(sources[0])
    [run] = tree.body
    assert isinstance(run, ast.FunctionDef) and run.name == "run"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            assert re.fullmatch(r"[acnx]\d+|_|[hkmr]|arity|calls|pc|pop|push|stack|steps|"
                                r"step_limit|t|App|StuckTerm|StepLimitExceeded|len",
                                node.id), node.id
        elif isinstance(node, ast.Constant):
            assert node.value in names or isinstance(node.value, int) or node.value is None
        elif isinstance(node, ast.Call):
            func = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            assert func in ("App", "StuckTerm", "StepLimitExceeded", "len", "pop", "push")


def test_evaluate_normal_form_is_fixed_point():
    assert evaluate(add_system(), nat(4)) == nat(4)


def test_stuck_term_reports_the_redex():
    sys = RewriteSystem(
        [Rule(App("f", (App("0"),)), App("0"))],
        [Signature("f", ("nat",), "nat")],
    )
    with pytest.raises(StuckTerm) as info:
        evaluate(sys, App("f", (nat(1),)))
    assert info.value.term == App("f", (nat(1),))
    assert str(info.value) == "no rule applies to f(s(0))"


def test_step_limit_exceeded():
    sys = RewriteSystem(
        [Rule(App("f", (Var("x"),)), App("f", (Var("x"),)))],
        [Signature("f", ("nat",), "nat")],
    )
    with pytest.raises(StepLimitExceeded):
        evaluate(sys, App("f", (nat(0),)), step_limit=50)


def test_rule_order_decides_overlaps():
    zero, other = Rule(App("f", (App("0"),)), nat(1)), Rule(App("f", (Var("x"),)), nat(2))
    sigs = [Signature("f", ("nat",), "nat")]
    sys = RewriteSystem([zero, other], sigs)
    assert sys.index["f"][0] is None  # no position has a constructor in every rule
    assert evaluate(sys, App("f", (nat(0),))) == nat(1)
    assert evaluate(sys, App("f", (nat(3),))) == nat(2)
    assert evaluate(RewriteSystem([other, zero], sigs), App("f", (nat(0),))) == nat(2)


def test_earlier_rule_in_an_index_bucket_wins():
    x = Var("x")
    sys = RewriteSystem(
        [
            Rule(App("f", (App("s", (x,)),)), App("a")),
            Rule(App("f", (nat(1),)), App("b")),
            Rule(App("f", (App("0"),)), App("c")),
        ],
        [Signature("f", ("nat",), "nat")],
    )
    position, buckets = sys.index["f"]
    assert position == 0 and [len(b) for b in buckets.values()] == [2, 1]
    assert evaluate(sys, App("f", (nat(1),))) == App("a")
    assert evaluate(sys, App("f", (nat(0),))) == App("c")


def test_variable_at_the_index_position_is_stuck_as_in_a_scan():
    # f is indexed at its second argument, where every rule has a constructor
    x = Var("x")
    sys = RewriteSystem(
        [
            Rule(App("f", (x, App("0"))), x),
            Rule(App("f", (x, App("s", (App("0"),)))), App("0")),
        ],
        [Signature("f", ("nat", "nat"), "nat")],
    )
    assert sys.index["f"][0] == 1
    for arg in (Var("a"), nat(2)):
        term = App("f", (nat(1), arg))
        with pytest.raises(StuckTerm) as info:
            evaluate(sys, term)
        with pytest.raises(StuckTerm) as scanned:
            restarting_evaluate_steps(sys, term)
        assert info.value.term == scanned.value.term == term
    assert evaluate(sys, App("f", (nat(1), nat(0)))) == nat(1)


@pytest.mark.parametrize("tier", TIERS)
def test_terms_with_another_arity_match_no_rule(tier):
    # well-sorted terms never hold them, but the library API builds them: a
    # constructor with another arity than a pattern's, at the index position
    # and below it, a call of a defined symbol with another arity, in the
    # input and in a rhs
    x, y = Var("x"), Var("y")
    with hot_steps(tier):
        sys = RewriteSystem(
            [
                Rule(App("f", (App("s", (App("s", (x,)),)), y)), x),
                Rule(App("f", (App("0"), y)), App("f", (y,))),
            ],
            [Signature("f", ("nat", "nat"), "nat")],
        )
    zero = nat(0)
    stuck = [App("f", (App("s", (zero, zero)), zero)),
             App("f", (App("s", (App("s", (zero, zero)),)), zero)),
             App("f", (App("0", (zero,)), zero))]
    cases = [(t, (StuckTerm, t)) for t in stuck] + [
        (App("s", (App("f", (nat(2),)),)), (StuckTerm, App("f", (nat(2),)))),
        (App("f", (zero, nat(3))), (StuckTerm, App("f", (nat(3),)))),
        (App("f", (nat(3), zero)), (nat(1), 1)),
    ]
    for t, expected in cases:
        assert outcome(restarting_evaluate_steps, sys, t, 10) == expected
        assert outcome(evaluate_steps, sys, t, 10) == expected


def test_innermost_arguments_evaluated_first():
    # g(f(0)) must rewrite f(0) before trying g's rules
    x = Var("x")
    sys = RewriteSystem(
        [
            Rule(App("f", (App("0"),)), nat(1)),
            Rule(App("g", (App("s", (x,)),)), x),
        ],
        [Signature("f", ("nat",), "nat"), Signature("g", ("nat",), "nat")],
    )
    assert evaluate(sys, App("g", (App("f", (App("0"),)),))) == nat(0)


def test_admission_rejects_unknown_head():
    with pytest.raises(RuleError):
        RewriteSystem([Rule(App("h", (Var("x"),)), Var("x"))],
                      [Signature("f", ("nat",), "nat")])


def test_admission_rejects_defined_symbol_in_pattern():
    with pytest.raises(RuleError):
        RewriteSystem(
            [Rule(App("f", (App("f", (Var("x"),)),)), Var("x"))],
            [Signature("f", ("nat",), "nat")],
        )


def test_admission_rejects_nonlinear_lhs():
    with pytest.raises(RuleError):
        RewriteSystem(
            [Rule(App("f", (Var("x"), Var("x"))), Var("x"))],
            [Signature("f", ("nat", "nat"), "nat")],
        )


def test_admission_rejects_unbound_rhs_variable():
    with pytest.raises(RuleError):
        RewriteSystem(
            [Rule(App("f", (Var("x"),)), Var("y"))],
            [Signature("f", ("nat",), "nat")],
        )


def test_admission_rejects_lhs_of_wrong_arity():
    x, y = Var("x"), Var("y")
    with pytest.raises(RuleError, match="lhs of f has 2 arguments, but f has arity 1"):
        RewriteSystem([Rule(App("f", (x, y)), x)], [Signature("f", ("nat",), "nat")])


def test_rule_defect_accepts_an_admissible_rule():
    x, y = Var("x"), Var("y")
    rule = Rule(App("f", (App("s", (x,)), y)), App("f", (x, y)))
    assert rule_defect(rule, {"f"}) is None


def test_rule_defect_names_each_condition():
    x = Var("x")
    f = ("f",)
    assert "no signature" in rule_defect(Rule(App("h", (x,)), x), f)
    assert "defined symbol f" in rule_defect(Rule(App("f", (App("f", (x,)),)), x), f)
    assert "non-left-linear" in rule_defect(Rule(App("f", (x, x)), x), f)
    assert "non-left-linear" in rule_defect(Rule(App("f", (App("s", (x,)), x)), x), f)
    assert "unbound rhs variable y" in rule_defect(Rule(App("f", (x,)), Var("y")), f)


def test_covers_ground_examples():
    sys = add_system()
    assert covers(sys, eq("add", (nat(1), nat(2)), nat(3)))
    assert not covers(sys, eq("add", (nat(1), nat(2)), nat(4)))


def test_covers_freezes_example_variables():
    # lgth over a list of don't-care variables: the variables stay rigid
    x, y = Var("x"), Var("y")
    sys = RewriteSystem(
        [
            Rule(App("lgth", (App("nil"),)), App("0")),
            Rule(App("lgth", (App("cons", (x, y)),)), App("s", (App("lgth", (y,)),))),
        ],
        [Signature("lgth", ("list",), "nat")],
    )
    assert covers(sys, eq("lgth", (lst(Var("a"), Var("b")),), nat(2)))


def test_covers_maps_evaluation_errors_to_false():
    sys = RewriteSystem(
        [Rule(App("f", (App("0"),)), App("0"))],
        [Signature("f", ("nat",), "nat")],
    )
    assert not covers(sys, eq("f", (nat(2),), nat(0)))  # stuck, not raised


def test_covers_all_collects_uncovered():
    sys = add_system()
    good = eq("add", (nat(0), nat(1)), nat(1))
    bad = eq("add", (nat(0), nat(1)), nat(2))
    ok, uncovered = covers_all(sys, [good, bad])
    assert not ok and uncovered == [bad]


def test_learned_systems_normalize_examples_within_linear_step_bound():
    # evaluating an example lhs needs at most size(term) * #rules * C steps
    from rwlearn.terms import subterms
    from helpers import run_file

    for name in ("add.tl", "size.tl", "rev.tl"):
        problem, report = run_file(name)
        system = report.system
        for ex in problem.examples:
            _, steps = evaluate_steps(system, ex.lhs)
            bound = sum(1 for _ in subterms(ex.lhs)) * len(system.rules) * 10
            assert steps <= bound
