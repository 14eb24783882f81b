"""Reference results in plain Python, independent of the learner.

Terms are read only through their `head` and `args` attributes, with loops
rather than recursion, so a deep or malformed output cannot crash the check.
Inputs are decoded to Python values, the reference function computes the
expected value, and the learned system's output is decoded and compared.
"""

from __future__ import annotations


class Mismatch(Exception):
    """An output differs from the reference, or a run did not end as expected."""


def decode_nat(t) -> int:
    n = 0
    while t.head == "s" and len(t.args) == 1:
        n += 1
        t = t.args[0]
    if t.head != "0" or t.args:
        raise Mismatch(f"not a natural number: {t!r}")
    return n


def decode_list(t) -> list:
    out = []
    while t.head == "cons" and len(t.args) == 2:
        out.append(decode_nat(t.args[0]))
        t = t.args[1]
    if t.head != "nil" or t.args:
        raise Mismatch(f"not a list: {t!r}")
    return out


def decode_tree(t) -> list:
    """The tree's elements in order; the reference `size` counts them."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        if isinstance(u, int):
            out.append(u)
        elif u.head == "nd" and len(u.args) == 3:
            todo.extend((u.args[2], decode_nat(u.args[1]), u.args[0]))
        elif u.head != "nl" or u.args:
            raise Mismatch(f"not a tree: {u!r}")
    return out


DECODE = {"nat": decode_nat, "list": decode_list, "tree": decode_tree}

REFERENCE = {
    "add": lambda a, b: a + b,
    "dup": lambda n: 2 * n,
    "lgth": len,
    "rev": lambda xs: xs[::-1],
    "size": len,
}


def check(fn: str, args, domain, range_: str, output):
    """Raise Mismatch unless output equals the reference value of fn on args."""
    want = REFERENCE[fn](*(DECODE[sort](a) for a, sort in zip(args, domain)))
    got = DECODE[range_](output)
    if got != want:
        raise Mismatch(f"{fn}: got {got}, expected {want}")
