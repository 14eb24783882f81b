"""Unit and property tests for (depth-bounded) anti-unification."""

import random

from hypothesis import given, strategies as st

from rwlearn.antiunify import INF, GenStore, generalize_examples, lgg
from rwlearn.rewrite import RewriteSystem, Rule, RuleError
from rwlearn.terms import App, IOEquation, Signature, Var, match_pattern, substitute

from helpers import (
    common_generalizations,
    is_common_generalization,
    lgg_classic,
    list_env,
    lst,
    nat,
    nat_env,
    random_term,
    witness,
)


def test_lgg_of_identical_terms_is_the_term():
    t = lst(nat(1), nat(2))
    assert lgg((t, t), GenStore()) == t


def test_lgg_generalizes_disagreeing_subterms():
    g = lgg((nat(2), nat(4)), GenStore())
    # common prefix s(s(.)) is kept, the disagreement becomes one variable
    assert g == App("s", (App("s", (Var("g0"),)),))


def test_gen_store_coherence_same_tuple_same_variable():
    store = GenStore()
    t1 = App("f", (nat(0), nat(0)))
    t2 = App("f", (nat(1), nat(1)))
    g = lgg((t1, t2), store)
    assert g == App("f", (Var("g0"), Var("g0")))
    assert len(store.entries) == 1


def test_gen_store_witness_reproduces_inputs():
    store = GenStore()
    ts = (lst(nat(1)), lst(nat(2), nat(3)))
    g = lgg(ts, store)
    for i, t in enumerate(ts):
        assert substitute(g, witness(store, i)) == t


def test_depth_bound_cuts_below_the_limit():
    ts = (nat(2), nat(3))
    assert lgg(ts, GenStore(), depth=1) == Var("g0")
    assert lgg(ts, GenStore(), depth=2) == App("s", (Var("g0"),))
    assert lgg(ts, GenStore(), depth=3) == App("s", (App("s", (Var("g0"),)),))


def test_depth_inf_equals_classic():
    ts = (lst(nat(1), nat(2)), lst(nat(3)))
    assert lgg(ts, GenStore(), depth=INF) == lgg_classic(ts, GenStore())


def test_generalize_examples_shares_one_store_across_sides():
    # f(n) = n for several n: lhs and rhs disagreements are the same tuple,
    # so they must become the same variable and the rule stays executable
    examples = [IOEquation("f", (nat(n),), nat(n)) for n in (0, 1, 2)]
    rule = generalize_examples("f", examples)
    assert rule == Rule(App("f", (Var("g0"),)), Var("g0"))


def test_generalize_examples_fails_variable_condition():
    # doubling: lhs tuple (0,1,2,3) and rhs tuple (0,2,4,6) differ, so the
    # rhs variable has no lhs occurrence and no rule is produced
    examples = [IOEquation("dup", (nat(n),), nat(2 * n)) for n in range(4)]
    assert generalize_examples("dup", examples) is None


def test_generalize_examples_rejects_non_left_linear_lgg():
    # both arguments disagree by the same tuple (0, s(0)), so the shared
    # store gives them one variable: f(g0,g0)=g0 binds its rhs variable but
    # is not left-linear, and no rule is produced
    examples = [IOEquation("f", (nat(0), nat(0)), nat(0)),
                IOEquation("f", (nat(1), nat(1)), nat(1))]
    assert generalize_examples("f", examples) is None


def test_generalize_examples_respects_depth_on_both_sides():
    # lhs arguments sit below the function symbol and are cut at depth 2,
    # while the rhs root survives; both cuts hit the same term tuple
    # (s(0), s(s(0))), so the shared store assigns them one variable
    examples = [IOEquation("f", (nat(1),), nat(2)),
                IOEquation("f", (nat(2),), nat(3))]
    cand = generalize_examples("f", examples, depth=2)
    assert cand is not None
    (arg,) = cand.lhs.args
    assert isinstance(arg, Var)                      # argument cut at depth 2
    assert cand.rhs == App("s", (arg,))              # rhs keeps its root symbol


@given(st.integers(0, 10**9))
def test_lgg_is_a_minimal_common_generalization(seed):
    rng = random.Random(seed)
    env = list_env()
    pool = {"nat": ["p", "q"], "list": ["r"]}
    t1 = random_term(env, "list", 3, rng, pool)
    t2 = random_term(env, "list", 3, rng, pool)
    g = lgg((t1, t2), GenStore())
    assert is_common_generalization(g, t1, t2)
    for cg in common_generalizations(t1, t2):
        # every common generalization is at least as general as the lgg
        assert match_pattern(cg, g) is not None


@given(st.integers(0, 10**9), st.integers(1, 5))
def test_depth_bounded_lgg_instantiates_to_all_inputs(seed, depth):
    rng = random.Random(seed)
    env = nat_env()
    ts = tuple(random_term(env, "nat", 4, rng) for _ in range(rng.randint(2, 4)))
    store = GenStore()
    g = lgg(ts, store, depth=depth)
    for i, t in enumerate(ts):
        assert substitute(g, witness(store, i)) == t


@given(st.integers(0, 10**9), st.integers(1, 4), st.integers(0, 3))
def test_deeper_lgg_is_an_instance_of_shallower_lgg(seed, depth, extra):
    rng = random.Random(seed)
    env = nat_env()
    ts = tuple(random_term(env, "nat", 4, rng) for _ in range(rng.randint(2, 4)))
    shallow = lgg(ts, GenStore(), depth=depth)
    deep = lgg(ts, GenStore(), depth=depth + extra)
    # lowering the depth bound only generalizes further
    assert match_pattern(shallow, deep) is not None


@given(st.integers(0, 10**9), st.sampled_from([1, 2, 3, INF]))
def test_generalize_examples_returns_exactly_the_admissible_anti_unifiers(seed, depth):
    rng = random.Random(seed)
    env = nat_env()
    pool = {"nat": ["p", "q"]}

    def term():
        return random_term(env, "nat", 3, rng, pool)

    examples = [IOEquation("f", (term(), term()), term()) for _ in range(rng.randint(1, 4))]
    store = GenStore()
    lhs_args = tuple(lgg(col, store, depth, _level=2)
                     for col in zip(*(ex.lhs_args for ex in examples)))
    anti_unifier = Rule(App("f", lhs_args), lgg(tuple(ex.rhs for ex in examples), store, depth))
    try:
        RewriteSystem([anti_unifier], [Signature("f", ("nat", "nat"), "nat")])
        admitted = anti_unifier
    except RuleError:
        admitted = None
    assert generalize_examples("f", examples, depth) == admitted
