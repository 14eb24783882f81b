"""Parser and printer for the problem-description language.

    sort nat = 0 | s(nat) ;
    fun add : nat, nat -> nat ;
    ex add(0, s(0)) = s(0) ;
    learn add ;

Whitespace-insensitive, `#` starts a line comment.  Identifiers are
alphanumeric (plus underscore); an identifier that is neither a declared
constructor nor a declared function is a variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .learner import InduceConfig
from .terms import (
    App,
    ConstructorAlt,
    IOEquation,
    Signature,
    SortEnv,
    Term,
    TermError,
    Var,
    check_wellsorted,
    infer_variable_sorts,
    render_term,
    term_vars,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


@dataclass
class Problem:
    sort_env: SortEnv
    signatures: list
    examples: list
    target: str
    var_sorts: dict = field(default_factory=dict)
    config: InduceConfig = field(default_factory=InduceConfig)

    @property
    def target_signature(self) -> Signature:
        return next(s for s in self.signatures if s.name == self.target)


_TOKEN = re.compile(r"[A-Za-z0-9_]+|->|[(),;:|=]|#[^\n]*|\s+|.")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        s = m.group()
        if not s.isspace() and not s.startswith("#"):
            if not (s == "->" or s in "(),;:|=" or re.fullmatch(r"[A-Za-z0-9_]+", s)):
                raise ParseError(f"unexpected character {s!r}", line, col)
            toks.append(_Tok(s, line, col))
        newlines = s.count("\n")
        if newlines:
            line += newlines
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def error(self, message: str):
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            raise ParseError(message, t.line, t.column)
        raise ParseError(message + " (at end of input)", 0, 0)

    def peek(self) -> str | None:
        return self.toks[self.pos].text if self.pos < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        if self.pos >= len(self.toks):
            self.error(f"expected {expected or 'more input'}")
        tok = self.toks[self.pos]
        if expected is not None and tok.text != expected:
            self.error(f"expected {expected!r}, found {tok.text!r}")
        self.pos += 1
        return tok.text

    def ident(self) -> str:
        tok = self.peek()
        if tok is None or not re.fullmatch(r"[A-Za-z0-9_]+", tok):
            self.error("expected an identifier")
        return self.take()

    # raw terms: heads not yet classified as constructor/function/variable
    def term(self):
        head = self.ident()
        if self.peek() != "(":
            return (head, ())
        self.take("(")
        args = [self.term()]
        while self.peek() == ",":
            self.take(",")
            args.append(self.term())
        self.take(")")
        return (head, tuple(args))


def parse_problem(text: str) -> Problem:
    """Parse, resolve variables, and run the examples input check."""
    p = _Parser(text)
    sorts: dict[str, list] = {}
    sigs: dict[str, Signature] = {}
    raw_examples: list = []
    target = None
    while p.peek() is not None:
        at = p.toks[p.pos]
        kw = p.ident()
        if kw == "sort":
            name = p.ident()
            p.take("=")
            alts = [_parse_alt(p)]
            while p.peek() == "|":
                p.take("|")
                alts.append(_parse_alt(p))
            p.take(";")
            if name in sorts:
                p.error(f"sort {name} declared twice")
            sorts[name] = alts
        elif kw == "fun":
            name = p.ident()
            p.take(":")
            domain = [p.ident()]
            while p.peek() == ",":
                p.take(",")
                domain.append(p.ident())
            p.take("->")
            range_ = p.ident()
            p.take(";")
            if name in sigs:
                p.error(f"function {name} declared twice")
            sigs[name] = Signature(name, tuple(domain), range_)
        elif kw == "ex":
            lhs = p.term()
            p.take("=")
            rhs = p.term()
            p.take(";")
            raw_examples.append((at, lhs, rhs))
        elif kw == "learn":
            target = p.ident()
            p.take(";")
        else:
            p.pos -= 1
            p.error(f"expected sort/fun/ex/learn, found {kw!r}")

    try:
        env = SortEnv({name: alts for name, alts in sorts.items()})
    except TermError as e:
        raise ParseError(str(e), 0, 0) from e
    if target is None:
        raise ParseError("missing learn statement", 0, 0)
    if target not in sigs:
        raise ParseError(f"learn target {target} has no signature", 0, 0)
    for sig in sigs.values():
        for s in (*sig.domain, sig.range):
            if s not in env.sorts:
                raise ParseError(f"signature {sig.name} uses undeclared sort {s}", 0, 0)
        if env.is_constructor(sig.name):
            raise ParseError(f"{sig.name} is both a constructor and a function", 0, 0)

    examples = []
    for _, lhs_raw, rhs_raw in raw_examples:
        head, args = lhs_raw
        if head != target:
            raise ParseError(f"example for {head}, but learn target is {target}", 0, 0)
        examples.append(IOEquation(target,
                                   tuple(_resolve(a, env, sigs, allow_fns=False) for a in args),
                                   _resolve(rhs_raw, env, sigs, allow_fns=False)))
    if not examples:
        raise ParseError("no examples given", 0, 0)

    # examples input check: sort inference, full well-sortedness, and no
    # rhs variable that the lhs does not bind
    problem = Problem(env, list(sigs.values()), examples, target)
    sig = sigs[target]
    try:
        problem.var_sorts = infer_variable_sorts(examples, env, sig)
    except TermError as e:
        raise ParseError(f"examples input check failed: {e}", 0, 0) from e
    for i, (ex, (at, _, _)) in enumerate(zip(examples, raw_examples), 1):
        try:
            for a, s in zip(ex.lhs_args, sig.domain):
                check_wellsorted(a, s, env, sigs, problem.var_sorts)
            check_wellsorted(ex.rhs, sig.range, env, sigs, problem.var_sorts)
        except TermError as e:
            raise ParseError(f"example {i}: {e}", 0, 0) from e
        lhs_vars = term_vars(ex.lhs)
        unbound = [v for v in term_vars(ex.rhs) if v not in lhs_vars]
        if unbound:
            raise ParseError(f"example {i}: rhs variable {unbound[0]} does not occur on the lhs",
                             at.line, at.column)
    return problem


def _parse_alt(p: _Parser) -> ConstructorAlt:
    name = p.ident()
    if p.peek() != "(":
        return ConstructorAlt(name)
    p.take("(")
    args = [p.ident()]
    while p.peek() == ",":
        p.take(",")
        args.append(p.ident())
    p.take(")")
    return ConstructorAlt(name, tuple(args))


def parse_term(text: str, env: SortEnv, fn_names=()) -> Term:
    """Parse one term; identifiers outside env/fn_names become variables."""
    p = _Parser(text)
    raw = p.term()
    if p.peek() is not None:
        p.error("trailing input after term")
    return _resolve(raw, env, set(fn_names), allow_fns=True)


def _resolve(raw, env: SortEnv, fn_names, allow_fns: bool) -> Term:
    """Classify the heads of a raw term: constructors and (when allowed) the
    functions in fn_names head applications; other identifiers are variables."""
    head, args = raw
    if head in fn_names and not allow_fns:
        raise ParseError(f"defined function {head} inside an i/o equation term", 0, 0)
    if env.is_constructor(head) or head in fn_names:
        return App(head, tuple(_resolve(a, env, fn_names, allow_fns) for a in args))
    if args:
        raise ParseError(f"undeclared symbol {head} used with arguments", 0, 0)
    return Var(head)


def render_problem(problem: Problem) -> str:
    lines = []
    for name, alts in problem.sort_env.sorts.items():
        lines.append(f"sort {name} = {' | '.join(alt.render() for alt in alts)} ;")
    for sig in problem.signatures:
        lines.append(f"fun {sig.name} : {', '.join(sig.domain)} -> {sig.range} ;")
    for ex in problem.examples:
        lines.append(f"ex {render_term(ex.lhs)} = {render_term(ex.rhs)} ;")
    lines.append(f"learn {problem.target} ;")
    return "\n".join(lines) + "\n"
