#!/usr/bin/env python3
"""Print the compiled evaluator of the system that rwlearn learns from a problem file.

    PYTHONPATH=src python3 scripts/show_evaluator.py problems/rev.tl [--inline]

It learns the file's target as the CLI does (`induce`, then
`prune_irrelevant_args`, then with --inline `inline_single_rule_aux`) and
prints `codegen.evaluator_source` of the result: the source of `run`, then
the constants it reads, one `# name = value` comment each.  So a change to
`rwlearn.codegen` can be read on the seed systems.  Exits 1 when learning
fails, and 2 when the file cannot be read or parsed.
"""

import argparse
import sys

from rwlearn.antiunify import INF
from rwlearn.cli import _parse_depth
from rwlearn.codegen import evaluator_source
from rwlearn.dsl import ParseError, parse_problem
from rwlearn.learner import InduceConfig, induce
from rwlearn.simplify import inline_single_rule_aux, prune_irrelevant_args


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", help="a problem file, as the CLI reads it")
    parser.add_argument("--inline", action="store_true",
                        help="inline single-rule auxiliary functions")
    parser.add_argument("--depth", type=_parse_depth, default=INF, metavar="N|inf",
                        help="anti-unification depth bound")
    parser.add_argument("--whole-set-lgg", action="store_true",
                        help="try anti-unifying the whole example set before splitting")
    args = parser.parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            problem = parse_problem(fh.read())
    except (OSError, UnicodeDecodeError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    config = InduceConfig(depth=args.depth, try_whole_set_lgg_first=args.whole_set_lgg)
    report = induce(problem.target, problem.examples, problem.sort_env, problem.signatures,
                    config)
    if not report.success:
        print(f"SYNTHESIS FAILED: {report.failure.reason}", file=sys.stderr)
        return 1
    system = prune_irrelevant_args(report.system, keep={problem.target})
    if args.inline:
        system = inline_single_rule_aux(system, keep={problem.target})
    source, constants = evaluator_source(system)
    print(source, end="")
    for name, value in constants.items():
        print(f"# {name} = {value!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
