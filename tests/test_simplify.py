"""Unit tests for irrelevant-argument pruning and auxiliary inlining."""

from rwlearn import prune_irrelevant_args
from rwlearn.rewrite import RewriteSystem, Rule, covers_all, evaluate
from rwlearn.simplify import inline_single_rule_aux
from rwlearn.terms import App, Signature, Var

from helpers import eq, nat, run_file


def _sigs(system):
    return {s.name: s.arity for s in system.signatures}


def test_prune_drops_never_used_argument():
    x, y = Var("x"), Var("y")
    sys = RewriteSystem(
        [
            Rule(App("f", (x,)), App("g", (x, nat(0)))),
            Rule(App("g", (x, y)), x),
        ],
        [Signature("f", ("nat",), "nat"), Signature("g", ("nat", "nat"), "nat")],
    )
    pruned = prune_irrelevant_args(sys, keep={"f"})
    assert _sigs(pruned) == {"f": 1, "g": 1}
    assert Rule(App("g", (x,)), x) in pruned.rules
    assert evaluate(pruned, App("f", (nat(3),))) == nat(3)


def test_prune_keeps_argument_with_constructor_pattern():
    x, y = Var("x"), Var("y")
    sys = RewriteSystem(
        [
            Rule(App("g", (App("0"), y)), y),
            Rule(App("g", (App("s", (x,)), y)), y),
        ],
        [Signature("g", ("nat", "nat"), "nat")],
    )
    pruned = prune_irrelevant_args(sys)
    assert _sigs(pruned) == {"g": 2}


def test_prune_fixpoint_ignores_uses_inside_irrelevant_positions():
    # x is only passed into g's own irrelevant slot, so both g argument 0
    # occurrences collapse together and the position disappears
    x, y = Var("x"), Var("y")
    sys = RewriteSystem(
        [
            Rule(App("g", (x, App("0"))), nat(0)),
            Rule(App("g", (x, App("s", (y,)))), App("g", (x, y))),
        ],
        [Signature("g", ("nat", "nat"), "nat")],
    )
    pruned = prune_irrelevant_args(sys)
    assert _sigs(pruned) == {"g": 1}


def test_prune_never_touches_kept_functions():
    x, y = Var("x"), Var("y")
    sys = RewriteSystem(
        [Rule(App("f", (x, y)), y)],
        [Signature("f", ("nat", "nat"), "nat")],
    )
    pruned = prune_irrelevant_args(sys, keep={"f"})
    assert _sigs(pruned) == {"f": 2}


def test_prune_size_auxiliaries_to_arity_two():
    problem, report = run_file("size.tl")
    before = {s.name: s.arity for s in report.system.signatures if s.name != "size"}
    pruned = prune_irrelevant_args(report.system, keep={"size"})
    after = {s.name: s.arity for s in pruned.signatures if s.name != "size"}
    assert sorted(before.values()) == [3, 3]
    assert sorted(after.values()) == [2, 2]
    assert covers_all(pruned, problem.examples)[0]


def test_inline_single_rule_aux():
    x = Var("x")
    sys = RewriteSystem(
        [
            Rule(App("dup", (App("0"),)), App("0")),
            Rule(App("dup", (App("s", (x,)),)), App("g", (App("dup", (x,)),))),
            Rule(App("g", (x,)), App("s", (App("s", (x,)),))),
        ],
        [Signature("dup", ("nat",), "nat"), Signature("g", ("nat",), "nat")],
    )
    inlined = inline_single_rule_aux(sys, keep={"dup"})
    assert _sigs(inlined) == {"dup": 1}
    assert Rule(App("dup", (App("s", (x,)),)),
                App("s", (App("s", (App("dup", (x,)),)),))) in inlined.rules
    assert evaluate(inlined, App("dup", (nat(2),))) == nat(4)


def test_inline_skips_multi_rule_auxiliaries():
    x = Var("x")
    sys = RewriteSystem(
        [
            Rule(App("f", (x,)), App("g", (x,))),
            Rule(App("g", (App("0"),)), nat(1)),
            Rule(App("g", (App("s", (x,)),)), nat(2)),
        ],
        [Signature("f", ("nat",), "nat"), Signature("g", ("nat",), "nat")],
    )
    inlined = inline_single_rule_aux(sys, keep={"f"})
    assert _sigs(inlined) == {"f": 1, "g": 1}
    assert len(inlined.rules) == 3


def test_inline_skips_constructor_patterned_auxiliaries():
    x = Var("x")
    sys = RewriteSystem(
        [
            Rule(App("f", (x,)), App("g", (x,))),
            Rule(App("g", (App("s", (x,)),)), x),
        ],
        [Signature("f", ("nat",), "nat"), Signature("g", ("nat",), "nat")],
    )
    inlined = inline_single_rule_aux(sys, keep={"f"})
    assert _sigs(inlined) == {"f": 1, "g": 1}


def test_inline_skips_self_recursive_auxiliaries():
    x = Var("x")
    sys = RewriteSystem(
        [
            Rule(App("f", (x,)), App("g", (x,))),
            Rule(App("g", (x,)), App("g", (x,))),
        ],
        [Signature("f", ("nat",), "nat"), Signature("g", ("nat",), "nat")],
    )
    inlined = inline_single_rule_aux(sys, keep={"f"})
    assert _sigs(inlined) == {"f": 1, "g": 1}


def test_inline_chains_through_nested_auxiliaries():
    x = Var("x")
    sys = RewriteSystem(
        [
            Rule(App("f", (x,)), App("g", (x,))),
            Rule(App("g", (x,)), App("h", (x,))),
            Rule(App("h", (x,)), App("s", (x,))),
        ],
        [Signature("f", ("nat",), "nat"),
         Signature("g", ("nat",), "nat"),
         Signature("h", ("nat",), "nat")],
    )
    inlined = inline_single_rule_aux(sys, keep={"f"})
    assert _sigs(inlined) == {"f": 1}
    assert inlined.rules == (Rule(App("f", (x,)), App("s", (x,))),)


def test_simplification_preserves_coverage_on_learned_systems():
    for name in ("add.tl", "size.tl", "rev.tl", "dup.tl"):
        problem, report = run_file(name)
        pruned = prune_irrelevant_args(report.system, keep={problem.target})
        inlined = inline_single_rule_aux(pruned, keep={problem.target})
        assert covers_all(pruned, problem.examples)[0]
        assert covers_all(inlined, problem.examples)[0]
