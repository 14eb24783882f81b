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
from itertools import accumulate, chain

from .learner import InduceConfig
from .terms import (
    App,
    ConstructorAlt,
    InvalidSortEnv,
    IOEquation,
    Signature,
    SortEnv,
    Term,
    TermError,
    Var,
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

    @classmethod
    def at(cls, message: str, text: str, offset: int) -> ParseError:
        """The error for the character at offset in text; lines and columns count from 1."""
        return cls(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))

    @classmethod
    def at_end(cls, message: str) -> ParseError:
        """The error for something the input lacks when it ends."""
        return cls(message + " (at end of input)", 0, 0)


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


# One match per token: the whitespace and comments before it, then the token,
# the end of the text, or a stray character.  Some alternative matches after
# any skipped text, so the skip never gives characters back.
_TOKEN = re.compile(r"((?:\s|#[^\n]*)*)(?:([A-Za-z0-9_]+|->|[(),;:|=]|\Z)|(.))")
_PUNCTUATION = frozenset(("(", ")", ",", ";", ":", "|", "=", "->"))


def _tokenize(text: str) -> tuple:
    """The tokens of text followed by None, and the offset of each token, from one scan.

    A match with an empty token is the end or a stray character, and the
    first one ends the tokens; each offset is the length of the text
    skipped and matched before it.
    """
    skipped, toks, strays = zip(*_TOKEN.findall(text))
    offsets = list(accumulate(map(len, chain.from_iterable(zip(skipped, toks)))))[::2]
    end = toks.index("")
    if strays[end]:
        raise ParseError.at(f"unexpected character {strays[end]!r}", text, offsets[end])
    return [*toks[:end], None], offsets


class _Parser:
    """Reads the tokens in order; `toks[pos]` is the next one, None at the end."""

    def __init__(self, text: str):
        self.text = text
        self.toks, self.offsets = _tokenize(text)
        self.pos = 0

    def error(self, message: str):
        if self.toks[self.pos] is not None:
            raise ParseError.at(message, self.text, self.offsets[self.pos])
        raise ParseError.at_end(message)

    def peek(self) -> str | None:
        return self.toks[self.pos]

    def take(self, expected: str):
        tok = self.toks[self.pos]
        if tok != expected:
            if tok is None:
                self.error(f"expected {expected}")
            self.error(f"expected {expected!r}, found {tok!r}")
        self.pos += 1

    def ident(self) -> str:
        """The next token, which must not be punctuation."""
        tok = self.toks[self.pos]
        if tok is None or tok in _PUNCTUATION:
            self.error("expected an identifier")
        self.pos += 1
        return tok

    def separated(self, item, sep: str) -> list:
        """One or more items read by item(), with sep between them."""
        items = [item()]
        while self.toks[self.pos] == sep:
            self.pos += 1
            items.append(item())
        return items

    def alt(self) -> ConstructorAlt:
        """A constructor alternative: its name, then any argument sorts in parentheses."""
        name = self.ident()
        if self.peek() != "(":
            return ConstructorAlt(name)
        self.take("(")
        args = self.separated(self.ident, ",")
        self.take(")")
        return ConstructorAlt(name, tuple(args))

    def term(self) -> list:
        """A raw term: its [head, arity] nodes in pre-order, heads not yet
        classified as constructor, function or variable."""
        toks = self.toks
        nodes = []
        open_nodes = []  # the applications whose argument lists are not closed
        while True:
            node = [self.ident(), 0]
            nodes.append(node)
            if toks[self.pos] == "(":
                self.pos += 1
                node[1] = 1
                open_nodes.append(node)
                continue
            while open_nodes:
                if toks[self.pos] == ",":
                    self.pos += 1
                    open_nodes[-1][1] += 1
                    break
                self.take(")")
                open_nodes.pop()
            else:
                return nodes


def parse_problem(text: str) -> Problem:
    """Parse, resolve variables, and run the examples input check."""
    p = _Parser(text)
    sorts: dict[str, list] = {}
    sigs: dict[str, Signature] = {}
    raw_examples: list = []
    target = None
    # the offset of each sort, fun and learn statement, for the checks below
    sort_at: dict[str, int] = {}
    fun_at: dict[str, int] = {}
    while p.peek() is not None:
        at = p.offsets[p.pos]
        kw = p.ident()
        if kw == "sort":
            name = p.ident()
            p.take("=")
            alts = p.separated(p.alt, "|")
            p.take(";")
            if name in sorts:
                p.error(f"sort {name} declared twice")
            sorts[name] = alts
            sort_at[name] = at
        elif kw == "fun":
            name = p.ident()
            p.take(":")
            domain = p.separated(p.ident, ",")
            p.take("->")
            range_ = p.ident()
            p.take(";")
            if name in sigs:
                p.error(f"function {name} declared twice")
            sigs[name] = Signature(name, tuple(domain), range_)
            fun_at[name] = at
        elif kw == "ex":
            lhs = p.term()
            p.take("=")
            rhs = p.term()
            p.take(";")
            raw_examples.append((at, lhs, rhs))
        elif kw == "learn":
            target = p.ident()
            p.take(";")
            learn_at = at
        else:
            p.pos -= 1
            p.error(f"expected sort/fun/ex/learn, found {kw!r}")

    try:
        env = SortEnv(sorts)
    except InvalidSortEnv as e:
        raise ParseError.at(str(e), text, sort_at[e.sort]) from e
    if target is None:
        raise ParseError.at_end("missing learn statement")
    if target not in sigs:
        raise ParseError.at(f"learn target {target} has no signature", text, learn_at)
    for sig in sigs.values():
        for s in (*sig.domain, sig.range):
            if s not in env.sorts:
                raise ParseError.at(f"signature {sig.name} uses undeclared sort {s}",
                                    text, fun_at[sig.name])
        if env.is_constructor(sig.name):
            raise ParseError.at(f"{sig.name} is both a constructor and a function",
                                text, fun_at[sig.name])

    examples = []
    for at, lhs_raw, rhs_raw in raw_examples:
        head = lhs_raw[0][0]
        if head != target:
            raise ParseError.at(f"example for {head}, but learn target is {target}", text, at)
        try:
            examples.append(IOEquation(target,
                                       _resolve(lhs_raw[1:], env, sigs, allow_fns=False),
                                       _resolve(rhs_raw, env, sigs, allow_fns=False)[0]))
        except ParseError as e:
            raise ParseError.at(e.message, text, at) from None
    if not examples:
        raise ParseError.at_end("no examples given")

    # examples input check: sort inference, and no rhs variable that the lhs
    # does not bind
    problem = Problem(env, list(sigs.values()), examples, target)
    try:
        problem.var_sorts = infer_variable_sorts(examples, env, sigs[target])
    except TermError as e:
        raise ParseError.at(f"examples input check failed: {e}", text,
                            raw_examples[e.example][0]) from e
    for i, (ex, (at, _, _)) in enumerate(zip(examples, raw_examples), 1):
        lhs_vars = term_vars(ex.lhs)
        unbound = [v for v in term_vars(ex.rhs) if v not in lhs_vars]
        if unbound:
            raise ParseError.at(f"example {i}: rhs variable {unbound[0]} does not occur on the lhs",
                                text, at)
    return problem


def parse_term(text: str, env: SortEnv, fn_names=()) -> Term:
    """Parse one term; identifiers outside env/fn_names become variables."""
    p = _Parser(text)
    raw = p.term()
    if p.peek() is not None:
        p.error("trailing input after term")
    return _resolve(raw, env, set(fn_names), allow_fns=True)[0]


def _resolve(nodes, env: SortEnv, fn_names, allow_fns: bool) -> tuple:
    """The terms whose raw nodes are listed in pre-order, heads classified:
    constructors and (when allowed) the functions in fn_names head
    applications; other identifiers are variables.

    The nodes are checked in pre-order, so the first error is the leftmost,
    then built from the last: each application takes its arguments, first
    argument on top, from the stack of terms built so far.
    """
    is_constructor = env.is_constructor
    for head, arity in nodes:
        if head in fn_names and not allow_fns:
            raise ParseError(f"defined function {head} inside an i/o equation term", 0, 0)
        if arity and not (is_constructor(head) or head in fn_names):
            raise ParseError(f"undeclared symbol {head} used with arguments", 0, 0)
    built = []
    for head, arity in reversed(nodes):
        if arity:
            args = tuple(built[:-arity - 1:-1])
            del built[-arity:]
            built.append(App(head, args))
        elif is_constructor(head) or head in fn_names:
            built.append(App(head))
        else:
            built.append(Var(head))
    return tuple(reversed(built))


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
