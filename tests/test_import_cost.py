"""Importing rwlearn generates and runs no code.

A CLI run of a seed problem takes a few milliseconds, so the import is a
large part of it.  Record classes are written out by hand rather than built
by `dataclasses`, whose generated methods cost about half a millisecond a
class and whose import pulls in `inspect`.  These tests keep it so: no
module of `src/rwlearn` imports `dataclasses` or calls `exec`/`eval` while
it is imported, and a fresh interpreter that imports the package loads
neither `dataclasses` nor `inspect`.  `codegen.compile_system` runs `exec`
inside a function, only when a rewrite system turns hot, and `codegen` is
imported by then only.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rwlearn"
MODULES = ("terms", "antiunify", "rewrite", "learner", "simplify", "dsl", "cli")
BANNED_IMPORTS = {"dataclasses"}
BANNED_CALLS = {"exec", "eval"}
NEVER_LOADED = {"dataclasses", "inspect"}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _import_time_nodes(tree):
    """The nodes of tree that run when the module is imported: everything but
    the bodies of functions and lambdas (their decorators and defaults run)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack += [*node.decorator_list, node.args]
        elif isinstance(node, ast.Lambda):
            stack.append(node.args)
        else:
            stack += ast.iter_child_nodes(node)


def _imported(node):
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level:
        return {node.module.split(".")[0]}
    return set()


def _called_name(node):
    return node.func.id if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) else None


def test_no_module_imports_dataclasses():
    for name, tree in _trees().items():
        for node in ast.walk(tree):  # function bodies too: a lazy import is still a cost
            assert not _imported(node) & BANNED_IMPORTS, f"{name}.py:{node.lineno}"
        assert "dataclass" not in (PACKAGE / f"{name}.py").read_text(), name


def test_no_module_runs_exec_or_eval_while_it_is_imported():
    for name, tree in _trees().items():
        for node in _import_time_nodes(tree):
            assert _called_name(node) not in BANNED_CALLS, f"{name}.py:{node.lineno}"


def test_the_only_exec_is_the_compiled_tier_inside_compile_system():
    # the scan above sees every call; here it must find codegen's, in a function
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(name, fn.name, _called_name(node)) for node in ast.walk(fn)
                          if _called_name(node) in BANNED_CALLS]
    assert found == [("codegen", "compile_system", "exec")]


def test_a_fresh_import_loads_neither_dataclasses_nor_inspect():
    # preloaded, so that only what rwlearn adds is counted; never the two it must not load
    stdlib = sorted({module for tree in _trees().values() for node in ast.walk(tree)
                     for module in _imported(node)} - {"__future__"} - NEVER_LOADED)
    script = (
        "import importlib, json, sys\n"
        f"for name in {stdlib!r}:\n"
        "    importlib.import_module(name)\n"
        "before = set(sys.modules)\n"
        "import rwlearn\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module('rwlearn.' + name)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "rwlearn.cli" in added and "rwlearn.codegen" not in added
    assert not NEVER_LOADED & set(added), added
