"""The contract of rwlearn's 13 record classes: construction, `==`, `hash`,
`repr`, immutability and cached properties.

The records are plain classes; these tests pin what callers see of them, so
that a change to how the classes are built cannot change it.
"""

import copy
import math

import pytest

from rwlearn.dsl import Problem
from rwlearn.learner import (
    FailureInfo,
    InduceConfig,
    InduceReport,
    PositionAttempt,
    SchemeEquation,
    TraceEvent,
    UnderivableExample,
)
from rwlearn.rewrite import Rule
from rwlearn.terms import App, ConstructorAlt, IOEquation, Signature, Var

X = Var("x")
ZERO = App("0")
SX = App("s", (X,))
EQ = IOEquation("f", (ZERO,), SX)
SIG = Signature("g", ("nat",), "nat")

# (class, positional arguments, the same as keywords, repr of the instance)
FROZEN = [
    (Var, ("x",), {"name": "x"}, "Var('x')"),
    (ConstructorAlt, ("s", ("nat",)), {"name": "s", "arg_sorts": ("nat",)},
     "ConstructorAlt(name='s', arg_sorts=('nat',))"),
    (Signature, ("add", ("nat", "nat"), "nat"),
     {"name": "add", "domain": ("nat", "nat"), "range": "nat"},
     "Signature(name='add', domain=('nat', 'nat'), range='nat')"),
    (IOEquation, ("f", (ZERO,), SX), {"fn": "f", "lhs_args": (ZERO,), "rhs": SX},
     "IOEquation(fn='f', lhs_args=(App('0'),), rhs=App('s', (Var('x'),)))"),
    (Rule, (App("f", (X,)), SX), {"lhs": App("f", (X,)), "rhs": SX},
     "Rule(lhs=App('f', (Var('x'),)), rhs=App('s', (Var('x'),)))"),
    (SchemeEquation, (App("f", (X,)), App("g", (X,)), SIG),
     {"lhs": App("f", (X,)), "rhs": App("g", (X,)), "aux_sig": SIG},
     "SchemeEquation(lhs=App('f', (Var('x'),)), rhs=App('g', (Var('x'),)),"
     " aux_sig=Signature(name='g', domain=('nat',), range='nat'))"),
    (TraceEvent, (1, "derive", ("a ", ZERO)), {"level": 1, "kind": "derive", "parts": ("a ", ZERO)},
     "TraceEvent(level=1, kind='derive', parts=('a ', App('0')))"),
    (UnderivableExample, ("g", 1, EQ, SX), {"aux_name": "g", "layer": 1, "member": EQ, "call": SX},
     "UnderivableExample(aux_name='g', layer=1, member=IOEquation(fn='f', lhs_args=(App('0'),),"
     " rhs=App('s', (Var('x'),))), call=App('s', (Var('x'),)))"),
]

MUTABLE = [
    (InduceConfig, (3, 4, 5, 6, True),
     {"depth": 3, "max_aux_functions": 4, "max_recursion_depth": 5, "step_limit": 6,
      "try_whole_set_lgg_first": True},
     "InduceConfig(depth=3, max_aux_functions=4, max_recursion_depth=5, step_limit=6,"
     " try_whole_set_lgg_first=True)"),
    (PositionAttempt, ("f", 0, None, [EQ]),
     {"fn": "f", "position": 0, "candidate": None, "uncovered": [EQ]},
     "PositionAttempt(fn='f', position=0, candidate=None, uncovered=[IOEquation(fn='f',"
     " lhs_args=(App('0'),), rhs=App('s', (Var('x'),)))])"),
    (FailureInfo, ("stuck", [], [EQ]), {"reason": "stuck", "underivable": [], "uncovered": [EQ]},
     "FailureInfo(reason='stuck', underivable=[], uncovered=[IOEquation(fn='f',"
     " lhs_args=(App('0'),), rhs=App('s', (Var('x'),)))])"),
    (InduceReport, ("f", None, None, ["t"], ["d"], ["a"], ["w"]),
     {"target": "f", "system": None, "failure": None, "trace": ["t"], "derived_aux": ["d"],
      "attempts": ["a"], "warnings": ["w"]},
     "InduceReport(target='f', system=None, failure=None, trace=['t'], derived_aux=['d'],"
     " attempts=['a'], warnings=['w'])"),
    (Problem, ("env", [SIG], [EQ], "g", {"x": "nat"}, InduceConfig(depth=2)),
     {"sort_env": "env", "signatures": [SIG], "examples": [EQ], "target": "g",
      "var_sorts": {"x": "nat"}, "config": InduceConfig(depth=2)},
     "Problem(sort_env='env', signatures=[Signature(name='g', domain=('nat',), range='nat')],"
     " examples=[IOEquation(fn='f', lhs_args=(App('0'),), rhs=App('s', (Var('x'),)))],"
     " target='g', var_sorts={'x': 'nat'}, config=InduceConfig(depth=2, max_aux_functions=50,"
     " max_recursion_depth=10, step_limit=10000, try_whole_set_lgg_first=False))"),
]

RECORDS = FROZEN + MUTABLE


def _names(cases):
    return [case[0].__name__ for case in cases]


def test_all_thirteen_records_are_pinned():
    assert len({case[0] for case in RECORDS}) == 13


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=_names(RECORDS))
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert [getattr(a, name) for name in kwargs] == list(args)
    assert repr(a) == repr(b) == text


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=_names(RECORDS))
def test_equality_is_per_class_and_per_field(cls, args, kwargs, text):
    a = cls(*args)
    assert a == a and a != object() and not a == "x"
    for name in kwargs:
        other = cls(**{**kwargs, name: _different(kwargs[name])})
        assert a != other and not a == other, name
    # an instance of another record class with the same field values is not equal
    assert all(a != rec(*case_args) for rec, case_args, _, _ in RECORDS
               if rec is not cls and len(case_args) == len(args))


def _different(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, (tuple, list)):
        return type(value)([*value, "extra"])
    if isinstance(value, dict):
        return {**value, "extra": "nat"}
    if value is None:
        return "not none"
    if value is SIG:
        return Signature("h", ("nat",), "nat")
    if value is EQ:
        return IOEquation("h", (ZERO,), SX)
    if isinstance(value, InduceConfig):
        return InduceConfig(depth=7)
    return App("other", (value,))


@pytest.mark.parametrize("cls, args, kwargs, text", FROZEN, ids=_names(FROZEN))
def test_frozen_records_hash_as_their_field_tuple_and_refuse_assignment(cls, args, kwargs, text):
    a = cls(*args)
    assert hash(a) == hash(cls(**kwargs)) == hash(args)
    assert {a: 1}[cls(*args)] == 1
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert getattr(a, name) is kwargs[name] or getattr(a, name) == kwargs[name]
    with pytest.raises(AttributeError):
        a.new_attribute = 1
    assert repr(a) == text


@pytest.mark.parametrize("cls, args, kwargs, text", MUTABLE, ids=_names(MUTABLE))
def test_mutable_records_are_unhashable_and_take_assignment(cls, args, kwargs, text):
    a = cls(*args)
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {a}
    name = next(iter(kwargs))
    setattr(a, name, _different(kwargs[name]))
    assert a != cls(*args)
    setattr(a, name, kwargs[name])
    assert a == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=_names(RECORDS))
def test_records_copy_to_equal_records(cls, args, kwargs, text):
    a = cls(*args)
    for duplicate in (copy.copy(a), copy.deepcopy(a)):
        assert duplicate == a and duplicate.__class__ is cls and repr(duplicate) == text


def test_defaults():
    assert ConstructorAlt("0") == ConstructorAlt("0", ()) and ConstructorAlt("0").arg_sorts == ()
    assert repr(ConstructorAlt("0")) == "ConstructorAlt(name='0', arg_sorts=())"
    cfg = InduceConfig()
    assert (cfg.depth, cfg.max_aux_functions, cfg.max_recursion_depth, cfg.step_limit,
            cfg.try_whole_set_lgg_first) == (math.inf, 50, 10, 10000, False)
    assert repr(cfg) == ("InduceConfig(depth=inf, max_aux_functions=50, max_recursion_depth=10,"
                         " step_limit=10000, try_whole_set_lgg_first=False)")
    report = InduceReport("f")
    assert report == InduceReport("f", None, None, [], [], [], [])
    assert repr(report) == ("InduceReport(target='f', system=None, failure=None, trace=[],"
                            " derived_aux=[], attempts=[], warnings=[])")
    # each instance gets lists of its own
    other = InduceReport("f")
    for name in ("trace", "derived_aux", "attempts", "warnings"):
        assert getattr(report, name) is not getattr(other, name)
    problem = Problem("env", [], [], "f")
    assert problem.var_sorts == {} and problem.config == InduceConfig()
    assert problem.var_sorts is not Problem("env", [], [], "f").var_sorts
    assert problem.config is not Problem("env", [], [], "f").config
    assert problem == Problem("env", [], [], "f", {}, InduceConfig())


def test_induce_config_validates_and_normalises_depth():
    assert InduceConfig(depth=2.0).depth == 2 and type(InduceConfig(depth=2.0).depth) is int
    assert InduceConfig(depth=math.inf).depth == math.inf
    for bad in ({"depth": 0}, {"depth": 0.5}, {"depth": -3}):
        with pytest.raises(ValueError, match=r"^depth must be >= 1 or INF$"):
            InduceConfig(**bad)
    for cap in ("max_aux_functions", "max_recursion_depth", "step_limit"):
        for value in (0, -1):
            with pytest.raises(ValueError, match=r"^caps must be positive$"):
                InduceConfig(**{cap: value})
    with pytest.raises(TypeError):
        InduceConfig(1, 2, 3, 4, False, 6)
    with pytest.raises(TypeError):
        InduceConfig(depth_limit=3)


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS, ids=_names(RECORDS))
def test_missing_and_unknown_arguments_are_type_errors(cls, args, kwargs, text):
    with pytest.raises(TypeError):
        cls(*args, "surplus", "arguments", "beyond", "every", "field", "here", "too")
    with pytest.raises(TypeError):
        cls(**kwargs, no_such_field=1)
    if cls is not InduceConfig:  # the one record whose every field has a default
        with pytest.raises(TypeError):
            cls()


def _caches(instance, name):
    first = getattr(instance, name)
    assert getattr(instance, name) is first
    assert instance.__dict__[name] is first
    return first


def test_cached_properties_cache_on_equation_trace_event_and_rule():
    eq = IOEquation("f", (ZERO, X), SX)
    assert "lhs" not in eq.__dict__
    assert _caches(eq, "lhs") == App("f", (ZERO, X))
    event = TraceEvent(0, "derive", ("derived ", EQ, " from ", (EQ, EQ), " at ", SX))
    assert "text" not in event.__dict__
    assert _caches(event, "text") == "derived f(0)=s(x) from [f(0)=s(x),f(0)=s(x)] at s(x)"
    rule = Rule(App("f", (App("s", (X,)),)), App("g", (X, App("f", (X,)))))
    heads, entries = _caches(rule, "_index_entries")
    assert heads == {"g", "f"} and entries == {}
    assert _caches(rule, "_admission") == ({"s": None}, None)
    # a cached value does not take part in ==, hash or repr
    assert eq == IOEquation("f", (ZERO, X), SX) and hash(eq) == hash(("f", (ZERO, X), SX))
    assert repr(rule) == ("Rule(lhs=App('f', (App('s', (Var('x'),)),)),"
                          " rhs=App('g', (Var('x'), App('f', (Var('x'),)))))")
