"""The compiled tier of `rewrite.evaluate_steps`: a hot system as one generated function.

The function evaluates a root call over normal arguments; the generic loop
of `evaluate_steps` walks any other input.  It builds only the rhs nodes
that the match does not hold: where an rhs node equals a pattern node, the
redex node matched there is the instance, so a result may share nodes with
its input.
`rewrite` loads this module when the first system turns hot, so runs whose
systems all stay cold do not.
"""

from __future__ import annotations

import itertools

from .rewrite import StepLimitExceeded, StuckTerm
from .terms import App, Var, fold

# The label of the block that returns the result.
DONE = 0

# Before the loop: the root call passes its arguments in a0, a1, ... and
# jumps to its symbol's block; with another number of arguments it is stuck.
_START = f"""\
steps = 0
stack = [({DONE},)]
push = stack.append
pop = stack.pop
arity, pc = calls[t.head]
if len(t.args) != arity:
    raise StuckTerm(t)
"""


def compile_system(sys):
    """`run(t, step_limit)`: for a call t of a symbol of sys over normal arguments, what
    `rewrite.evaluate_steps(sys, t, step_limit)` gives without a table, the normal form
    and the step count or the same exception."""
    source, constants = evaluator_source(sys)
    namespace = {"__builtins__": {}, "App": App, "StuckTerm": StuckTerm,
                 "StepLimitExceeded": StepLimitExceeded, "len": len, **constants}
    exec(source, namespace)
    return namespace["run"]


def evaluator_source(sys) -> tuple:
    """The source of `run` for `compile_system`, and the constants it reads.

    `run` is one loop over blocks, each `if pc == label:`, on an explicit
    continuation stack of tuples `(label, values saved for later)`.  A
    call puts its normal arguments in the locals a0, a1, ... and jumps to
    its symbol's block; a block that has a result puts it in r, pops the
    stack and jumps to the popped label.  A symbol's block reads the
    constructor at its `RewriteSystem.index` position, and tries the rules
    of that bucket inline, in rule order.  A rule's lhs is matched one
    pattern node per guard, which unpacks only the arguments that later
    code reads, and its rhs is straight-line code in post-order, one
    statement per node: a normal node is built from the match locals,
    unless it equals a pattern node, whose local it reads instead (a ground
    node is a constant), and a defined call pushes the values that later
    code reads, with a label whose block resumes there, unless it is the
    rhs root.  A redex is built only for the StuckTerm of a call that no
    rule matches.  `run` starts at the block of its input's root call, whose
    arguments are normal: `evaluate_steps` walks every other input in its
    generic loop.  No block nests deeper with more rules, symbols or larger
    terms, and no name of sys is in the source other than as a `repr()`
    literal.
    """
    labels = itertools.count(DONE + 1)
    entry = {name: next(labels) for name in sys.sig_by_name}
    calls = {name: (s.arity, entry[name]) for name, s in sys.sig_by_name.items()}
    constants = {"calls": calls}

    def constant(term) -> str:
        name = f"c{len(constants)}"
        constants[name] = term
        return name

    blocks = []
    for name, (position, rules) in sys.index.items():
        lines = []
        buckets = [(None, rules)] if position is None else rules.items()
        if position is not None:
            lines.append(f"h = a{position}.head if a{position}.__class__ is App else None")
        resumes = []
        for key, bucket in buckets:
            tries = []
            for lhs, rhs, _ in bucket:
                guards, image = _guards(lhs, position)
                code, more, reads = _body(rhs, image, calls, labels, constant)
                tries += _guarded(guards, code, reads)
                resumes += more
            lines += tries if key is None else [f"if h == {key!r}:", *_indent(tries)]
        lines.append(f"raise StuckTerm(App({name!r}, ({_items(_args(calls[name][0]))})))")
        blocks += [(entry[name], lines), *resumes]
    source = ["def run(t, step_limit):", *_indent(_START.splitlines())]
    for arity in sorted({arity for arity, _ in calls.values()} - {0}):
        source += [f"    if arity == {arity}:", f"        {_items(_args(arity))}= t.args"]
    source.append("    while True:")
    for label, lines in blocks:
        source += [f"        if pc == {label}:", *_indent(lines, "            ")]
    source += [f"        if pc == {DONE}:", "            return r, steps"]
    return "\n".join(source) + "\n", constants


def _args(n: int) -> list:
    return [f"a{i}" for i in range(n)]


def _items(names) -> str:
    """names as the items of a tuple display or a target list: `x, y, `."""
    return "".join(f"{name}, " for name in names)


def _indent(lines, prefix: str = "    ") -> list:
    return [prefix + line for line in lines]


def _guards(lhs: App, position) -> tuple:
    """The guards that match lhs in the symbol's block, and the image of its pattern nodes.

    A guard is a condition on one pattern node's local, that local, and
    the locals that its arguments are unpacked into; the guards run in
    pre-order, so each node's local is set before its guard.  The head of
    the argument at the index position is tested by its bucket.  The image
    maps each lhs variable's name to its local, and each compound pattern
    node that holds a variable to its local too, keyed by its head and its
    arguments' images: a ground argument is its own image.  A name and a
    key cannot be confused, as one is a string and the other a tuple.
    """
    guards = []
    image = {}
    locals_ = (f"x{i}" for i in itertools.count())
    stack = [(f"a{i}", arg, i == position) for i, arg in reversed(list(enumerate(lhs.args)))]
    while stack:
        local, pattern, indexed = stack.pop()
        if pattern.__class__ is Var:
            image[pattern.name] = local
            continue
        n = len(pattern.args)
        condition = f"len({local}.args) == {n}" if n else f"not {local}.args"
        if not indexed:
            condition = f"{local}.__class__ is App and {local}.head == {pattern.head!r} and " \
                        + condition
        names = [next(locals_) for _ in pattern.args]
        guards.append((pattern, condition, local, names))
        stack += [(name, arg, False) for name, arg in reversed(list(zip(names, pattern.args)))]
    images = {}  # of the compound pattern nodes by id, children before parents
    for pattern, _, local, names in reversed(guards):
        key = (pattern.head, *(name if a.__class__ is Var else images[id(a)]
                               for a, name in zip(pattern.args, names)))
        if all(v.__class__ is App for v in key[1:]):
            images[id(pattern)] = pattern
        else:
            images[id(pattern)] = image[key] = local
    return guards, image


def _guarded(guards, code, reads) -> list:
    """code run when every guard holds, each guard tested once its node's local is set.

    reads are the match locals that code reads.  A guard unpacks only the
    locals that code or a later guard reads: `_` stands for each other one,
    and a guard with none unpacks nothing.
    """
    if not guards:
        return code
    reads = reads | {local for _, _, local, _ in guards}
    unpacks = [f"{_items(name if name in reads else '_' for name in names)}= {local}.args"
               if reads.intersection(names) else None for _, _, local, names in guards]
    (_, condition, _, _), *rest = guards
    if not rest:
        return [f"if {condition}:", *_indent([unpacks[0]] if unpacks[0] else []), *_indent(code)]
    lines = [f"m = {condition}"]
    for i, unpack in enumerate(unpacks):
        then = [unpack] if unpack else []
        then += [f"m = {guards[i + 1][1]}"] if i + 1 < len(guards) else code
        lines += ["if m:", *_indent(then)]
    return lines


def _body(rhs, image, calls, labels, constant) -> tuple:
    """The code that contracts a matched redex to rhs: the lines run at the match,
    `(label, lines)` of each block that resumes it after a call returns, and the
    locals of the match that they read.

    An rhs node equal to a compound pattern node is not built: its instance
    is the redex node matched there, in that node's local.  The fold meets
    a node after its arguments, so such a node's key in image is its head
    and its arguments' locals, and the largest such node is the one read.
    """
    items = []  # (local, head, operands, is a call), in post-order
    locals_ = (f"n{i}" for i in itertools.count())

    def node(u: App, values: list):
        if u.head not in calls:
            if all(v.__class__ is App for v in values):
                return u  # no variable and no call: the rhs node itself is its every instance
            local = image.get((u.head, *values))
            if local is not None:
                return local  # a pattern node's instance: the redex node matched there
        local = next(locals_)
        items.append((local, u.head, values, u.head in calls))
        return local

    root = fold(rhs, lambda v: image[v.name], node)
    # the locals that the code after each call reads, found backwards; at
    # the start, the match locals that the code reads
    live = {root} if root.__class__ is str else set()
    saved = {}
    for local, _, values, call in reversed(items):
        live.discard(local)
        if call:
            saved[local] = sorted(live)
        live.update(v for v in values if v.__class__ is str)

    first = lines = ["if steps >= step_limit:", "    raise StepLimitExceeded(step_limit)",
                     "steps += 1"]
    resumes = []
    for local, head, values, call in items:
        operands = [v if v.__class__ is str else constant(v) for v in values]
        if not call:
            lines.append(f"{'r' if local is root else local} = App({head!r}, ({_items(operands)}))")
            continue
        if len(operands) != calls[head][0]:  # a call that no rule of head can match
            lines.append(f"raise StuckTerm(App({head!r}, ({_items(operands)})))")
            return first, resumes, live
        if local is not root:
            label = next(labels)
            lines.append(f"push(({label}, {_items(saved[local])}))")
        moves = [(a, v) for a, v in zip(_args(len(operands)), operands) if a != v]
        if moves:
            targets, sources = zip(*moves)
            lines.append(f"{', '.join(targets)} = {', '.join(sources)}")
        lines += [f"pc = {calls[head][1]}", "continue"]
        if local is root:  # a tail call: its result is the contractum's
            return first, resumes, live
        lines = [f"_, {_items(saved[local])}= k"] if saved[local] else []
        lines.append(f"{local} = r")
        resumes.append((label, lines))
    if not (items and items[-1][0] is root):  # else the root's own statement set r
        lines.append(f"r = {root if root.__class__ is str else constant(root)}")
    lines += ["k = pop()", "pc = k[0]", "continue"]
    return first, resumes, live
