"""No function in src/rwlearn calls itself, except the ones allowed below.

A walker that recurses on terms fails with RecursionError on a term deeper
than the interpreter's recursion limit, so term walks use explicit stacks.
The scan finds a function that calls itself by name, a method that calls
itself through `self.`, and a function that a nested def, lambda or
comprehension inside it calls.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rwlearn"

ALLOWED = {
    "learner._induce": "one call per auxiliary layer: its depth is bounded by "
                       "max_recursion_depth and by strictly shrinking example sets",
}


def calls_itself(fn, is_method: bool) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if is_method:
            if isinstance(f, ast.Attribute) and f.attr == fn.name \
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
                return True
        elif isinstance(f, ast.Name) and f.id == fn.name:
            return True
    return False


def self_calling_functions(tree, prefix: str):
    """Qualified names of the functions in tree that call themselves."""
    found = []
    stack = [(tree, prefix, False)]
    while stack:
        node, name, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = f"{name}.{child.name}"
                if calls_itself(child, in_class):
                    found.append(qualified)
                stack.append((child, qualified, False))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, f"{name}.{child.name}", True))
            else:
                stack.append((child, name, in_class))
    return found


def test_scan_finds_each_kind_of_self_call():
    tree = ast.parse("""
def direct(t):
    return [direct(a) for a in t]

def outer(t):
    def inner(u):
        return inner(u)
    return inner(t)

def through_nested(t):
    def helper(u):
        return through_nested(u)
    return helper(t)

class C(Base):
    def __init__(self):
        super().__init__()

    def walk(self, t):
        return self.walk(t)

    def render(self):
        return render(self)
""")
    assert sorted(self_calling_functions(tree, "m")) == [
        "m.C.walk", "m.direct", "m.outer.inner", "m.through_nested"]


def test_only_allowed_functions_call_themselves():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(self_calling_functions(ast.parse(path.read_text()), path.stem))
    unlisted = sorted(found - set(ALLOWED))
    assert not unlisted, f"functions that call themselves; use an explicit stack: {unlisted}"
    stale = sorted(set(ALLOWED) - found)
    assert not stale, f"allowed functions that no longer call themselves: {stale}"
