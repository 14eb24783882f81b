"""Batch CLI: parse a problem, learn a definition, print the report.

Report blocks go to stdout, the induction trace to stderr, optional
machine-readable output to a JSON file.  Exit status: 0 success, 1 synthesis
failure, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii

from .antiunify import INF
from .dsl import ParseError, Problem, parse_problem
from .learner import InduceConfig, InduceReport, induce
from .rewrite import RewriteSystem, covers_all
from .simplify import inline_single_rule_aux, prune_irrelevant_args
from .terms import App, Term, Var, fold, render_term


def emit_trace(events) -> str:
    """One line per event, nested with '. ' per induction depth."""
    return "".join(f"{'. ' * e.level}{e.text}\n" for e in events)


def term_to_json(t: Term):
    """t as nested `{"var": name}` and `{"app": head, "args": [...]}` dicts, by `terms.fold`."""
    return fold(t, lambda v: {"var": v.name}, lambda u, docs: {"app": u.head, "args": docs})


def term_from_json(doc) -> Term:
    """The term of a `term_to_json` document, built with an explicit stack.

    A frame is an application being built: its head, the iterator over its
    argument documents and the terms built for them so far.
    """
    if "var" in doc:
        return Var(doc["var"])
    stack = []
    head, docs, out = doc["app"], iter(doc["args"]), []
    while True:
        for d in docs:
            if "var" in d:
                out.append(Var(d["var"]))
            elif d["args"]:
                stack.append((head, docs, out))
                head, docs, out = d["app"], iter(d["args"]), []
                break
            else:
                out.append(App(d["app"]))
        else:
            built = App(head, tuple(out))
            if not stack:
                return built
            head, docs, out = stack.pop()
            out.append(built)


def export_json(report: InduceReport, problem: Problem,
                system: RewriteSystem | None = None) -> dict:
    """Stable machine-readable form of a run; rules round-trip via term_from_json."""
    system = system if system is not None else report.system
    failure = report.failure
    uncovered = [ex.render() for ex in failure.uncovered] if failure else []
    return {
        "target": report.target,
        "success": report.success,
        "sorts": {
            name: [{"name": alt.name, "args": list(alt.arg_sorts)} for alt in alts]
            for name, alts in problem.sort_env.sorts.items()
        },
        "signatures": [
            {"name": s.name, "domain": list(s.domain), "range": s.range}
            for s in problem.signatures
        ],
        "aux_signatures": [
            {"name": s.name, "domain": list(s.domain), "range": s.range}
            for s in (system.signatures if system else ()) if s.name != report.target
        ],
        "rules": [
            {"lhs": term_to_json(r.lhs), "rhs": term_to_json(r.rhs)}
            for r in (system.rules if system else ())
        ],
        "coverage": {"covered": report.success, "uncovered": uncovered},
        "trace": [{"level": e.level, "kind": e.kind, "text": e.text} for e in report.trace],
        "failure": None if failure is None else {
            "reason": failure.reason,
            "underivable": [
                {
                    "aux": u.aux_name,
                    "layer": u.layer,
                    "example": u.member.render(),
                    "unresolved_call": render_term(u.call),
                }
                for u in failure.underivable
            ],
            "uncovered": uncovered,
        },
    }


def _print_signature(sig) -> str:
    return f"{sig.name} signature [{','.join(sig.domain)}]-->{sig.range}"


def run_problem(problem: Problem, *, inline: bool = False, trace: bool = True,
                json_path: str | None = None, out=None, err=None) -> int:
    """Learn the target, simplify, re-verify coverage, and print the report."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr

    print("+++++ Examples input check:", file=out)
    for i in range(len(problem.examples)):
        print(f"+++++ Example {i + 1}:", file=out)
    if problem.var_sorts:
        print("Variable sorts:", file=out)
        items = ",".join(f"{v}:{s}" for v, s in reversed(list(problem.var_sorts.items())))
        print(f"[{items}]", file=out)
    print("+++++ Examples input check done", file=out)

    report = induce(problem.target, problem.examples, problem.sort_env,
                    problem.signatures, problem.config)
    for warning in report.warnings:
        print(f"warning: {warning}", file=err)
    if trace:
        err.write(emit_trace(report.trace))

    if not report.success:
        print("SYNTHESIS FAILED:", report.failure.reason, file=out)
        for u in report.failure.underivable:
            print(f"underivable example for {u.aux_name} (auxiliary layer {u.layer}): "
                  f"{u.member.render()} needs {render_term(u.call)}", file=out)
        for ex in report.failure.uncovered:
            print(f"uncovered example: {ex.render()}", file=out)
        return _write_json(json_path, export_json(report, problem), 1, err) if json_path else 1

    system = prune_irrelevant_args(report.system, keep={problem.target})
    if inline:
        system = inline_single_rule_aux(system, keep={problem.target})
    print("+++++ Examples output check:", file=out)
    covered, uncovered = covers_all(system, problem.examples, problem.config.step_limit)
    if not covered:
        # simplification must preserve coverage; treat a violation as a failure
        print("+++++ Examples output check FAILED", file=out)
        for ex in uncovered:
            print(f"uncovered example: {ex.render()}", file=out)
        return 1
    print("+++++ Examples output check done", file=out)

    print("FUNCTION SIGNATURES:", file=out)
    aux = [s for s in system.signatures if s.name != problem.target]
    for sig in reversed(aux):
        print(_print_signature(sig), file=out)
    print(_print_signature(problem.target_signature), file=out)
    print("", file=out)
    print("FUNCTION EXAMPLES:", file=out)
    for ex in problem.examples:
        print(ex.render(), file=out)
    print("", file=out)
    print("FUNCTION DEFINITIONS:", file=out)
    for rule in system.rules:
        print(rule.render(), file=out)
    return _write_json(json_path, export_json(report, problem, system), 0, err) if json_path else 0


def _write_json(path: str, doc: dict, code: int, err) -> int:
    """Write doc's report to path, and give code, or 2 when path cannot be written."""
    text = _dumps(doc) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"error: {e}", file=err)
        return 2
    return code


_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _dumps(doc) -> str:
    """The text of `json.dumps(doc, indent=2)`, written with an explicit stack.

    doc is made of dicts with string keys, lists, strings, ints, bools and
    None.  The container being written is held in locals: the iterator over
    its entries, whether it is a dict, the line break and indent of its
    entries, the separator before the next entry and its closing text.  A
    scalar entry is written in place; a non-empty container entry saves them
    on the stack and takes their place.
    """
    scalar = _SCALAR_JSON.get
    out = []
    stack = []
    entries, is_dict, inner, sep, close = iter((doc,)), False, "\n", "", ""
    while True:
        for entry in entries:
            if is_dict:
                key, value = entry
                label = sep + encode_basestring_ascii(key) + ": "
            else:
                value = entry
                label = sep
            sep = "," + inner
            encode = scalar(value.__class__)
            if encode is not None:
                out.append(label + encode(value))
                continue
            if value.__class__ is dict:
                opening, closing, values = "{", "}", value.items()
            elif value.__class__ is list:
                opening, closing, values = "[", "]", value
            else:
                raise TypeError(f"Object of type {value.__class__.__name__} "
                                f"is not JSON serializable")
            if not values:
                out.append(label + opening + closing)
                continue
            out.append(label + opening)
            stack.append((entries, is_dict, inner, sep, close))
            close = inner + closing
            entries, is_dict = iter(values), opening == "{"
            inner += "  "
            sep = inner
            break
        else:
            out.append(close)
            if not stack:
                return "".join(out)
            entries, is_dict, inner, sep, close = stack.pop()


def _parse_depth(text: str):
    if text in ("inf", "infinity"):
        return INF
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("depth must be >= 1 or 'inf'")
    return value


def _parse_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `main` call of a process."""
    parser = argparse.ArgumentParser(
        prog="rwlearn",
        description="Learn a terminating rewrite definition from i/o equations.")
    parser.add_argument("file", nargs="?", default="-",
                        help="problem file, or - for standard input (default)")
    parser.add_argument("--depth", type=_parse_depth, default=INF, metavar="N|inf",
                        help="anti-unification depth bound (default inf)")
    parser.add_argument("--inline", action="store_true",
                        help="inline single-rule auxiliary functions")
    parser.add_argument("--trace", action=argparse.BooleanOptionalAction, default=True,
                        help="print the induction trace to stderr (default on)")
    parser.add_argument("--json", metavar="PATH", help="write a JSON report to PATH")
    parser.add_argument("--step-limit", type=_parse_cap, default=10000, metavar="N")
    parser.add_argument("--max-aux", type=_parse_cap, default=50, metavar="N",
                        help="cap on auxiliary functions per run")
    parser.add_argument("--max-depth", type=_parse_cap, default=10, metavar="N",
                        help="cap on auxiliary recursion layers")
    parser.add_argument("--whole-set-lgg", action="store_true",
                        help="try anti-unifying the whole example set before splitting")
    return parser


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as e:  # a defect of rwlearn, not of the input
        print(f"internal error: {e!r}", file=sys.stderr)
        return 3


def _run(args) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        source = "standard input" if args.file == "-" else args.file
        print(f"error: {source} is not {e.encoding} text: {e.reason} at byte {e.start}",
              file=sys.stderr)
        return 2
    try:
        problem = parse_problem(text)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    problem.config = InduceConfig(
        depth=args.depth,
        max_aux_functions=args.max_aux,
        max_recursion_depth=args.max_depth,
        step_limit=args.step_limit,
        try_whole_set_lgg_first=args.whole_set_lgg,
    )
    return run_problem(problem, inline=args.inline, trace=args.trace, json_path=args.json)


if __name__ == "__main__":
    sys.exit(main())
