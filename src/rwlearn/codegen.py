"""Generated matchers: the hot tier of `rewrite.evaluate_steps`.

`rewrite` loads this module when the first system turns hot, so runs whose
systems all stay cold do not.
"""

from __future__ import annotations

import itertools

from .terms import App, Term, Var, fold


def hot_entry(lhs: App, rhs: Term, shape) -> tuple:
    """The hot index entry `(match, keyed rhs, shape)` of the rule lhs = rhs.

    The parts of rhs that `rewrite.evaluate_steps` instantiates while it
    walks shape are given keys: each compound `rewrite.NORMAL` argument and
    each defined call over normal arguments of a skeleton node, or all of
    rhs when shape is None or ().  The keyed rhs has `Var(key)` in their
    place.  A part's key is an int, which no rule variable is named; a
    variable keeps its name.  match is generated Python code for this one
    rule: given a term with lhs's head, it returns None when lhs does not
    match it, and otherwise a binding of every key to its part's instance.
    So the walk reads the parts from the binding, where a cold entry has
    `match_pattern` bind the variables and the walk calls `substitute`.
    """
    keys = itertools.count()
    if not shape:
        keyed = rhs if rhs.__class__ is Var else Var(next(keys))
        parts = {keyed.name: rhs}
    else:
        parts = {}
        # one frame per skeleton node, with its keyed arguments so far
        frames = [(rhs, shape, [])]
        while frames:
            node, shapes, done = frames[-1]
            if len(done) < len(shapes):
                arg, sub = node.args[len(done)], shapes[len(done)]
                if sub.__class__ is App and sub.args:
                    frames.append((arg, sub.args, []))
                    continue
                if arg.__class__ is Var:
                    parts[arg.name] = arg
                elif arg.args or sub.__class__ is App:
                    key = next(keys)
                    parts[key] = arg
                    arg = Var(key)
                done.append(arg)
                continue
            frames.pop()
            keyed = App(node.head, tuple(done))
            if frames:
                frames[-1][2].append(keyed)
    source, constants = matcher_source(lhs, parts)
    namespace = {"__builtins__": {}, "App": App, "len": len, **constants}
    exec(source, namespace)
    return namespace["match"], keyed, shape


def matcher_source(lhs: App, parts: dict) -> tuple:
    """The source of `match(t)` for `hot_entry`, and the constants it reads.

    The code is flat, one statement per node and no nested expression, so
    patterns and parts of any depth compile.  It matches lhs's arguments in
    pre-order, each subject node in a local of its own, and returns None at
    the first mismatch; lhs is left-linear, so no two images are compared.
    Then it builds each part in post-order, each node in a local of its
    own.  A subterm without variables is not built: it is taken from the
    constants, as it stands.  Heads and keys appear in the source only as
    `repr()` literals.
    """
    lines = ["def match(t):"]
    constants: dict[str, Term] = {}
    image = {}  # lhs variable name -> the local holding its image
    locals_ = (f"v{i}" for i in itertools.count())
    stack = [("t", lhs)]
    while stack:
        local, pattern = stack.pop()
        if pattern.__class__ is Var:
            image[pattern.name] = local
            continue
        if pattern is not lhs:  # the index gives a term with lhs's head
            lines.append(f"    if {local}.__class__ is not App or {local}.head != "
                         f"{pattern.head!r}: return None")
        if not pattern.args:
            lines.append(f"    if {local}.args: return None")
            continue
        names = [next(locals_) for _ in pattern.args]
        lines.append(f"    if len({local}.args) != {len(names)}: return None")
        lines.append(f"    {', '.join(names)}, = {local}.args")
        stack += reversed(list(zip(names, pattern.args)))

    def constant(term) -> str:
        name = f"c{len(constants)}"
        constants[name] = term
        return name

    def build(node: App, done: list):
        """The constant node itself when its arguments are, else the local that holds it."""
        if all(d.__class__ is App for d in done):
            return node
        built = next(locals_)
        args = "".join(f"{d if d.__class__ is str else constant(d)}, " for d in done)
        lines.append(f"    {built} = App({node.head!r}, ({args}))")
        return built

    items = []
    for key, part in parts.items():
        built = fold(part, lambda v: image[v.name], build)
        items.append(f"{key!r}: {built if built.__class__ is str else constant(built)}")
    lines.append(f"    return {{{', '.join(items)}}}")
    return "\n".join(lines) + "\n", constants
