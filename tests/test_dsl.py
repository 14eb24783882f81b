"""Unit tests for the problem-description language parser and printer."""

import io
from sys import getrecursionlimit

import pytest

from rwlearn import ParseError, dsl, parse_problem
from rwlearn.cli import run_problem
from rwlearn.dsl import parse_term, render_problem
from rwlearn.terms import App, Var, infer_variable_sorts

from helpers import list_env, nat, nat_env


GOOD = """
# a minimal problem
sort nat = 0 | s(nat) ;
fun dup : nat -> nat ;
ex dup(0) = 0 ;
ex dup(s(0)) = s(s(0)) ;
learn dup ;
"""


def test_parse_problem_basics():
    problem = parse_problem(GOOD)
    assert problem.target == "dup"
    assert problem.target_signature.domain == ("nat",)
    assert [ex.render() for ex in problem.examples] == [
        "dup(0)=0",
        "dup(s(0))=s(s(0))",
    ]


def test_undeclared_identifiers_become_variables():
    problem = parse_problem("""
        sort list = nil | cons(nat, list) ;
        sort nat = 0 | s(nat) ;
        fun lgth : list -> nat ;
        ex lgth(cons(va, nil)) = s(0) ;
        learn lgth ;
    """)
    assert problem.examples[0].lhs_args[0] == App("cons", (Var("va"), App("nil")))
    assert problem.var_sorts == {"va": "nat"}


def test_render_problem_roundtrip():
    problem = parse_problem(GOOD)
    again = parse_problem(render_problem(problem))
    assert again.examples == problem.examples
    assert again.signatures == problem.signatures
    assert again.sort_env.sorts == problem.sort_env.sorts


def test_comments_and_whitespace_are_ignored():
    problem = parse_problem(
        "sort nat=0|s(nat);fun f:nat->nat;\n"
        "# comment line\n"
        "ex f(0)=0; # trailing comment\nlearn f;")
    assert problem.target == "f"


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_problem("sort nat = 0 | s(nat) \n fun f : nat -> nat ;")
    assert info.value.line == 2


@pytest.mark.parametrize("text, fragment", [
    ("fun f : nat -> nat ; ex f(0) = 0 ; learn f ;", "undeclared sort"),
    (GOOD.replace("learn dup ;", ""), "missing learn"),
    (GOOD.replace("learn dup ;", "learn other ;"), "no signature"),
    (GOOD + "sort nat = 0 ;", "declared twice"),
    (GOOD.replace("ex dup(0) = 0 ;", "ex dup(q(0)) = 0 ;"), "undeclared symbol"),
    (GOOD.replace("ex dup(0) = 0 ;", "ex dup(dup(0)) = 0 ;"), "defined function"),
    (GOOD.replace("ex dup(0) = 0 ;", "ex s(0) = 0 ;"), "learn target"),
    ("sort nat = 0 | 0 ; fun f : nat -> nat ; ex f(0) = 0 ; learn f ;",
     "declared twice"),
    # positioned at the example's `ex` keyword
    (GOOD.replace("ex dup(s(0)) = s(s(0)) ;", "ex dup(s(x)) = s(q) ;"),
     "6:1: example 2: rhs variable q does not occur on the lhs"),
])
def test_parse_problem_rejects_malformed_input(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert fragment in str(info.value)


LIST_PROBLEM = """sort list = nil | cons(nat, list) ;
sort nat = 0 | s(nat) ;
fun f : list, nat -> nat ;
ex f(nil, 0) = 0 ;
  ex f(va, 0) = 0 ;
ex f(nil, va) = 0 ;
learn f ;
"""


@pytest.mark.parametrize("text, error", [
    # each example's errors are positioned at its `ex` keyword
    ("sort nat = 0 | s(nat) ;\nfun f : nat -> nat ;\nex f(0) = 0 ;\n  ex f(q(0)) = 0 ;\n"
     "learn f ;\n", "4:3: undeclared symbol q used with arguments"),
    (GOOD.replace("ex dup(s(0)) = s(s(0)) ;", "ex dup(s(0)) = dup(0) ;"),
     "6:1: defined function dup inside an i/o equation term"),
    (GOOD.replace("ex dup(0) = 0 ;", "ex s(0) = 0 ;"),
     "5:1: example for s, but learn target is dup"),
    (GOOD.replace("ex dup(s(0)) = s(s(0)) ;", "ex dup(s(0, 0)) = 0 ;"),
     "6:1: examples input check failed: s expects 1 arguments, got 2"),
    (GOOD.replace("ex dup(0) = 0 ;", "ex dup(0, 0) = 0 ;"),
     "5:1: examples input check failed: dup expects 1 arguments, got 2"),
])
def test_example_errors_give_the_example_position(text, error):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == error


def test_variable_sorts_are_inferred_per_example():
    # each example quantifies its own variables: va is a list in one and a
    # natural in the other, and the name keeps both sorts
    problem = parse_problem(LIST_PROBLEM)
    assert problem.var_sorts == {"va": "list|nat"}
    assert problem.examples[1].lhs_args == (Var("va"), App("0"))
    out = io.StringIO()
    run_problem(problem, trace=False, out=out, err=io.StringIO())
    assert "Variable sorts:\n[va:list|nat]\n" in out.getvalue()


NAT = "sort nat = 0 | s(nat) ;\n"
F = "fun f : nat -> nat ;\n"
REST = "ex f(0) = 0 ;\nlearn f ;\n"


@pytest.mark.parametrize("text, error", [
    # each declaration check is positioned at the statement it concerns
    (NAT + F + "ex f(0) = 0 ;\n  learn g ;\n", "4:3: learn target g has no signature"),
    (NAT + "fun f : nat -> lst ;\n" + REST, "2:1: signature f uses undeclared sort lst"),
    (NAT + F + " fun s : nat -> nat ;\n" + REST, "3:2: s is both a constructor and a function"),
    # an invalid sort environment, at the sort whose declaration shows it
    (NAT + "sort b = t | 0 ;\n" + F + REST, "2:1: constructor 0 declared twice"),
    (NAT + "  sort b = t(c) ;\n" + F + REST, "2:3: sort c used by t is not declared"),
    ("sort b = t(b) ;\n" + NAT + "sort c = u(c) ;\n" + F + REST,
     "1:1: uninhabited sorts: ['b', 'c']"),
    # what the input lacks is reported at its end
    (NAT + F + "ex f(0) = 0 ;\n", "0:0: missing learn statement (at end of input)"),
    (NAT + F + "learn f ;\n", "0:0: no examples given (at end of input)"),
])
def test_declaration_errors_give_the_statement_position(text, error):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == error


def test_input_check_rejects_sort_conflicts():
    with pytest.raises(ParseError) as info:
        parse_problem("""
            sort list = nil | cons(nat, list) ;
            sort nat = 0 | s(nat) ;
            fun f : list, nat -> nat ;
            ex f(va, va) = 0 ;
            learn f ;
        """)
    assert "examples input check" in str(info.value)


def test_sort_inference_runs_once_to_position_its_error(monkeypatch):
    # the error carries the failing example's index, so finding it takes no
    # re-inference over growing prefixes of the example list
    calls = []

    def counted(*args):
        calls.append(args)
        return infer_variable_sorts(*args)

    monkeypatch.setattr(dsl, "infer_variable_sorts", counted)
    text = ("sort nat = 0 | s(nat) ;\nsort list = nil | cons(nat, list) ;\n"
            "fun f : nat, list -> nat ;\n"
            + "".join(f"ex f(x{i}, cons(x{i}, nil)) = x{i} ;\n" for i in range(49))
            + "ex f(y, y) = 0 ;\nlearn f ;\n")
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == ("53:1: examples input check failed: "
                               "variable y used both as nat and as list")
    assert len(calls) == 1


def test_input_check_rejects_arity_mismatch():
    with pytest.raises(ParseError):
        parse_problem(GOOD.replace("ex dup(0) = 0 ;", "ex dup(s(0, 0)) = 0 ;"))


def test_parse_term():
    env = list_env()
    t = parse_term("cons(x, cons(s(0), nil))", env)
    assert t == App("cons", (Var("x"), App("cons", (nat(1), App("nil")))))
    call = parse_term("lgth(cons(x, nil))", env, fn_names=["lgth"])
    assert call.head == "lgth"
    with pytest.raises(ParseError):
        parse_term("q(0)", env)


def test_parse_term_does_not_recurse_on_deep_terms():
    depth = 10 * getrecursionlimit()
    t = parse_term("s(" * depth + "x" + ")" * depth, nat_env())
    for _ in range(depth):
        assert t.head == "s" and len(t.args) == 1
        t = t.args[0]
    assert t == Var("x")
