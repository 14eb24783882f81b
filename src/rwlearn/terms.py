"""Sorted first-order terms, sort/signature environments, substitution and matching.

Terms are either variables or applications of a symbol to argument terms.
The same representation is used for i/o equation sides, rule patterns and
rule right-hand sides.  All values here are immutable; every operation is a
pure function.
"""

from __future__ import annotations

from operator import is_

init_field = object.__setattr__  # how a `Frozen` record's `__init__` sets its fields


class cached_property:
    """A method run on an instance's first read, its value stored in the
    instance's `__dict__`, which later reads find before the class, even on
    a `Frozen` record.  3.12's `functools.cached_property`: 3.10 and 3.11
    take a lock on each first read, and rwlearn is single-threaded."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Record:
    """A class of plain records, its fields named by `_fields` in `__init__`'s
    order.  `==` holds between instances of one class with equal fields, and
    the repr is `Name(field=value, ...)`.  A record is mutable, so it has no
    hash; `Frozen` records have.  Classes are written out by hand, not
    generated, so that importing rwlearn runs no generated code."""

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        """Copies and pickles are built by `__init__`: a `Frozen` record
        refuses the attribute stores that would restore its fields."""
        return self.__class__, self._values()


class Frozen(Record):
    """A record whose fields are set once, by `__init__` through `init_field`:
    it refuses assignment, and hashes as the tuple of its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class TermError(Exception):
    """Base class for all sort/arity/symbol errors raised by this module."""

    example = None  # index of the first failing example, set by `infer_variable_sorts`


class UnknownSymbol(TermError):
    pass


class ArityMismatch(TermError):
    pass


class SortMismatch(TermError):
    pass


class SortConflict(TermError):
    def __init__(self, var: str, sort1: str, sort2: str):
        super().__init__(f"variable {var} used both as {sort1} and as {sort2}")
        self.var = var
        self.sort1 = sort1
        self.sort2 = sort2


class InvalidSortEnv(TermError):
    def __init__(self, message: str, sort: str):
        super().__init__(message)
        self.sort = sort  # the sort in whose declaration the defect is found


class Var(Frozen):
    """A variable, its name its only field.  `==` and `hash` are written out,
    as terms hash their variables often."""

    __slots__ = _fields = ("name",)
    # not fields: a variable has no head and no arguments, so code reading
    # a term's, like the compiled tier's index read or `rewrite._normal_args`,
    # needs no class test first
    head = None
    args = ()

    def __init__(self, name: str):
        init_field(self, "name", name)

    def __repr__(self):
        return f"Var({self.name!r})"

    def __eq__(self, other):
        return self.name == other.name if other.__class__ is Var else NotImplemented

    def __hash__(self):
        return hash((self.name,))


class App:
    """A symbol applied to a tuple of argument terms.

    Treated as immutable: the hash is computed once, on first use, and
    cached on the node.  Neither hashing nor `==` recurses, so terms of any
    depth can be dict keys.  The hash is `hash((head, args))`; `intern` sets
    it so on the nodes it adds, and the two must agree.  Only `intern` sets
    `_blind`, the `blind_form`, as a store in `__init__` would slow every
    contraction; a node outside a pool has none.  The compiled tier
    (`codegen`) builds nodes without calling `__init__`, by `object.__new__`
    and the same three slot stores, so `__init__` must stay those stores.
    """

    __slots__ = ("head", "args", "_hash", "_blind")

    def __init__(self, head: str, args: tuple = ()):
        self.head = head
        self.args = args
        self._hash = None

    def __repr__(self):
        """`App('h', (arg, ...))`, or `App('h')` for a constant, built with an
        explicit stack of terms and separators, like `render_term`."""
        out = []
        stack = [self]
        while stack:
            u = stack.pop()
            if u.__class__ is not App:
                out.append(u if u.__class__ is str else repr(u))
            elif u.args:
                out.append(f"App({u.head!r}, (")
                stack.append(",))" if len(u.args) == 1 else "))")
                for a in u.args[:0:-1]:
                    stack += (a, ", ")
                stack.append(u.args[0])
            else:
                out.append(f"App({u.head!r})")
        return "".join(out)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        return same_term(self, other)

    def __hash__(self):
        h = self._hash
        return h if h is not None else _hash_app(self)


def _hash_app(t: App) -> int:
    """Hash t and every App below it that has no cached hash yet, children first."""
    stack = [t]
    while stack:
        u = stack[-1]
        missing = [a for a in u.args if a.__class__ is App and a._hash is None]
        if missing:
            stack += missing
            continue
        stack.pop()
        if u._hash is None:  # a shared node may have been pushed twice
            u._hash = hash((u.head, u.args))
    return t._hash


Term = Var | App

# The one variable of every blind form; no parsed variable has its name.
BLIND = Var("*")


# A substitution is a finite map from variable name to Term.  Variables
# outside the map are fixed points.
Substitution = dict


def term_vars(t: Term) -> list[str]:
    """Variable names occurring in t, in first-occurrence order."""
    return list(dict.fromkeys(u.name for u in subterms(t) if isinstance(u, Var)))


def subterms(t: Term):
    """All subterms of t (including t itself), pre-order."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if isinstance(u, App):
            stack.extend(reversed(u.args))


def fold(t: Term, leaf, node):
    """t folded bottom-up on an explicit stack: `leaf(v)` for a variable v, and
    `node(u, values)` for an App u, values being the list of its folded arguments.

    Arguments are folded left to right, each before the App above it.  Only
    an argument with arguments of its own opens a frame.
    """
    if t.__class__ is Var:
        return leaf(t)
    stack = []
    u, args, values = t, iter(t.args), []
    while True:
        for a in args:
            if a.__class__ is Var:
                values.append(leaf(a))
            elif a.args:
                stack.append((u, args, values))
                u, args, values = a, iter(a.args), []
                break
            else:
                values.append(node(a, []))
        else:
            value = node(u, values)
            if not stack:
                return value
            u, args, values = stack.pop()
            values.append(value)


def substitute(t: Term, subst: Substitution) -> Term:
    """t with each variable in subst replaced by its image, built with an explicit stack.

    A variable at the root gives its image, or itself when unmapped, and a
    constant gives itself; every App with arguments is built anew.  Variable
    and constant arguments are handled in place: only an argument with
    arguments of its own opens a frame (its head, the iterator over its
    arguments, the images so far).
    """
    if t.__class__ is Var:
        return subst.get(t.name, t)
    if not t.args:
        return t
    get = subst.get
    stack = []
    head, args, out = t.head, iter(t.args), []
    while True:
        for a in args:
            if a.__class__ is Var:
                out.append(get(a.name, a))
            elif a.args:
                stack.append((head, args, out))
                head, args, out = a.head, iter(a.args), []
                break
            else:
                out.append(a)
        else:
            built = App(head, tuple(out))
            if not stack:
                return built
            head, args, out = stack.pop()
            out.append(built)


def same_term(a: Term, b: Term) -> bool:
    """Structural equality of two terms, with an explicit stack; this is `App.__eq__`."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if isinstance(a, Var) or isinstance(b, Var):
            if a != b:
                return False
        elif a.head != b.head or len(a.args) != len(b.args):
            return False
        else:
            stack.extend(zip(a.args, b.args))
    return True


def intern(t: Term, pool: dict) -> Term:
    """The term of pool equal to t, after adding the nodes of t that pool lacks.

    pool maps a variable's name to its Var, and `(head, interned args)` to
    an App, so equal terms interned into one pool are one object.  A node
    of t is added itself when its arguments are the pool's, else rebuilt,
    and gets `hash` of its key and the blind form that `blind_form` reads:
    itself exactly when it is ground, else the pool's App of its head over
    its arguments' blind forms, looked up and added in the same way.  So
    the blind forms of a pool's nodes are the pool's too, and equal ones
    are one object.  Blind forms are keyed by tuples only: the pool's string
    keys stay the names of t's variables.  One bottom-up loop on an
    explicit stack, in the manner of `substitute`.
    """
    if t.__class__ is Var:
        return pool.setdefault(t.name, t)
    get = pool.get
    stack = []
    u, args, out = t, iter(t.args), []
    while True:
        for a in args:
            if a.__class__ is Var:
                out.append(pool.setdefault(a.name, a))
            elif a.args:
                stack.append((u, args, out))
                u, args, out = a, iter(a.args), []
                break
            else:
                key = (a.head, ())
                node = get(key)
                if node is None:
                    node = pool[key] = a
                    a._hash = hash(key)
                    a._blind = a
                out.append(node)
        else:
            key = (u.head, tuple(out))
            node = get(key)
            if node is None:
                node = pool[key] = u if all(map(is_, out, u.args)) else App(u.head, key[1])
                node._hash = hash(key)
                blinds = [BLIND if a.__class__ is Var else a._blind for a in out]
                if all(map(is_, blinds, out)):
                    node._blind = node
                else:
                    blind_key = (u.head, tuple(blinds))
                    blind = get(blind_key)
                    if blind is None:
                        blind = pool[blind_key] = App(u.head, blind_key[1])
                        blind._hash = hash(blind_key)
                        blind._blind = blind
                    node._blind = blind
            if not stack:
                return node
            u, args, out = stack.pop()
            out.append(node)


def blind_form(t: Term) -> Term:
    """t with each variable replaced by `BLIND`: equal for any two terms that
    rename onto each other, so it buckets terms for `renaming_match`.  t is
    a variable or a node of an `intern` pool, which caches it on the node."""
    return BLIND if t.__class__ is Var else t._blind


def match_pattern(pattern: Term, subject: Term) -> Substitution | None:
    """The unique minimal substitution sigma with substitute(pattern, sigma) == subject.

    Subject variables are rigid atoms: they are matched only by an identical
    variable or by a pattern variable.  Returns None if no match exists.
    Variables are bound in pre-order of their first occurrence in pattern.

    One loop over pairs of argument tuples: a variable argument is bound, or
    compared with its earlier image, in place, and so is a constant; only a
    pattern argument with arguments of its own opens a frame (the two
    argument tuples and the next index).  The rest of the parent's tuple
    waits on the stack, so bindings stay in pre-order.
    """
    if pattern.__class__ is Var:
        return {pattern.name: subject}
    if subject.__class__ is Var or pattern.head != subject.head \
            or len(pattern.args) != len(subject.args):
        return None
    binding: Substitution = {}
    stack = []
    ps, ss, i = pattern.args, subject.args, 0
    while True:
        while i < len(ps):
            p = ps[i]
            s = ss[i]
            i += 1
            if p.__class__ is Var:
                bound = binding.get(p.name)
                if bound is None:
                    binding[p.name] = s
                elif bound is not s and not same_term(bound, s):
                    return None
            elif s.__class__ is Var or p.head != s.head or len(p.args) != len(s.args):
                return None
            elif p.args:
                stack.append((ps, ss, i))
                ps, ss, i = p.args, s.args, 0
        if not stack:
            return binding
        ps, ss, i = stack.pop()


def renaming_match(t1: Term, t2: Term) -> Substitution | None:
    """An injective variable-to-variable map sigma with substitute(t1, sigma) == t2."""
    sigma = match_pattern(t1, t2)
    if sigma is None or not all(isinstance(v, Var) for v in sigma.values()) \
            or len(set(sigma.values())) != len(sigma):
        return None
    return sigma


def renaming_key(t: Term) -> tuple:
    """A hashable key with renaming_key(t1) == renaming_key(t2) iff renaming_match(t1, t2).

    The pre-order sequence of heads with their arities, and of variables
    numbered by first occurrence.
    """
    numbers: dict[str, int] = {}
    key = []
    stack = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Var:
            key.append(numbers.setdefault(u.name, len(numbers)))
        else:
            key += (u.head, len(u.args))
            stack += u.args[::-1]
    return tuple(key)


def render_term(t: Term) -> str:
    """t as text, `head(arg,...)`; built with an explicit stack of terms and separators."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.head
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is str:
            out.append(u)
        elif u.__class__ is Var:
            out.append(u.name)
        elif u.args:
            out.append(u.head + "(")
            stack.append(")")
            args = u.args
            for a in args[:0:-1]:
                stack.append(a)
                stack.append(",")
            stack.append(args[0])
        else:
            out.append(u.head)
    return "".join(out)


class ConstructorAlt(Frozen):
    __slots__ = _fields = ("name", "arg_sorts")

    def __init__(self, name: str, arg_sorts: tuple = ()):
        init_field(self, "name", name)
        init_field(self, "arg_sorts", arg_sorts)

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)

    def render(self) -> str:
        if not self.arg_sorts:
            return self.name
        return f"{self.name}({','.join(self.arg_sorts)})"


class Signature(Frozen):
    __slots__ = _fields = ("name", "domain", "range")

    def __init__(self, name: str, domain: tuple, range: str):
        init_field(self, "name", name)
        init_field(self, "domain", domain)
        init_field(self, "range", range)

    @property
    def arity(self) -> int:
        return len(self.domain)


class SortEnv:
    """Named sorts, each given by an ordered list of constructor alternatives.

    Validated on construction: referenced sorts must be declared, constructor
    names must be globally unique, and every sort must be inhabited by at
    least one ground constructor term.
    """

    def __init__(self, sorts: dict):
        self.sorts = {name: tuple(alts) for name, alts in sorts.items()}
        self._ctor_home: dict[str, tuple] = {}
        for sort, alts in self.sorts.items():
            for alt in alts:
                if alt.name in self._ctor_home:
                    raise InvalidSortEnv(f"constructor {alt.name} declared twice", sort)
                self._ctor_home[alt.name] = (sort, alt)
                for arg in alt.arg_sorts:
                    if arg not in self.sorts:
                        raise InvalidSortEnv(f"sort {arg} used by {alt.name} is not declared",
                                             sort)
        self._check_inhabited()

    def _check_inhabited(self):
        inhabited: set[str] = set()
        changed = True
        while changed:
            changed = False
            for sort, alts in self.sorts.items():
                if sort in inhabited:
                    continue
                if any(all(a in inhabited for a in alt.arg_sorts) for alt in alts):
                    inhabited.add(sort)
                    changed = True
        empty = [sort for sort in self.sorts if sort not in inhabited]
        if empty:
            raise InvalidSortEnv(f"uninhabited sorts: {sorted(empty)}", empty[0])

    def alternatives(self, sort: str) -> tuple:
        if sort not in self.sorts:
            raise UnknownSymbol(f"sort {sort} is not declared")
        return self.sorts[sort]

    def is_constructor(self, name: str) -> bool:
        return name in self._ctor_home

    def symbols(self) -> set[str]:
        return set(self.sorts) | set(self._ctor_home)


def classify_args(sort: str, alt: ConstructorAlt) -> tuple:
    """Split alt's argument positions (0-based) into (recursive, non-recursive).

    A position is recursive when its argument sort is the owning sort itself;
    both result tuples preserve argument order.
    """
    rec = tuple(j for j, s in enumerate(alt.arg_sorts) if s == sort)
    nonrec = tuple(j for j, s in enumerate(alt.arg_sorts) if s != sort)
    return rec, nonrec


class IOEquation(Frozen):
    __slots__ = ("fn", "lhs_args", "rhs", "__dict__")  # `__dict__` holds `lhs`
    _fields = __slots__[:3]

    def __init__(self, fn: str, lhs_args: tuple, rhs: Term):
        init_field(self, "fn", fn)
        init_field(self, "lhs_args", lhs_args)
        init_field(self, "rhs", rhs)

    @cached_property
    def lhs(self) -> App:
        """Built once, so that its cached hash serves every coverage check."""
        return App(self.fn, self.lhs_args)

    def render(self) -> str:
        return f"{render_term(self.lhs)}={render_term(self.rhs)}"


def infer_variable_sorts(examples, env: SortEnv, sig: Signature) -> dict:
    """Map each example variable to the sort demanded by every position it occupies.

    Variables are quantified per equation, so each equation's variables are
    inferred on their own.  A name with different sorts in different
    equations maps to all of them, sorted and joined by `|` (`list|nat`); a
    sort name cannot hold `|`.  Names keep the order of their first
    occurrence.  Raises SortConflict when two occurrences in one equation
    demand different sorts, UnknownSymbol / ArityMismatch for malformed
    terms.  The result is independent of the order of the example list.
    """
    merged: dict[str, str] = {}
    homes = env._ctor_home

    def demand(t: Term, sort: str, var_sorts: dict):
        """Record the sorts demanded in t, visiting its subterms in pre-order."""
        stack = [(t, sort)]
        while stack:
            t, sort = stack.pop()
            if t.__class__ is Var:
                prev = var_sorts.get(t.name)
                if prev is None:
                    var_sorts[t.name] = sort
                elif prev != sort:
                    raise SortConflict(t.name, prev, sort)
                continue
            home = homes.get(t.head)
            if home is None:
                raise UnknownSymbol(f"{t.head} is not a constructor")
            home_sort, alt = home
            if home_sort != sort:
                raise SortMismatch(f"{t.head} builds {home_sort}, expected {sort}")
            if len(t.args) != alt.arity:
                raise ArityMismatch(f"{t.head} expects {alt.arity} arguments, got {len(t.args)}")
            stack += zip(reversed(t.args), reversed(alt.arg_sorts))

    for i, ex in enumerate(examples):
        var_sorts: dict[str, str] = {}
        try:
            if ex.fn != sig.name:
                raise UnknownSymbol(f"example for {ex.fn}, expected {sig.name}")
            if len(ex.lhs_args) != sig.arity:
                raise ArityMismatch(
                    f"{sig.name} expects {sig.arity} arguments, got {len(ex.lhs_args)}")
            for a, s in zip(ex.lhs_args, sig.domain):
                demand(a, s, var_sorts)
            demand(ex.rhs, sig.range, var_sorts)
        except TermError as e:
            e.example = i
            raise
        for v, sort in var_sorts.items():
            sorts = merged.setdefault(v, sort).split("|")
            if sort not in sorts:
                merged[v] = "|".join(sorted([*sorts, sort]))
    return merged
