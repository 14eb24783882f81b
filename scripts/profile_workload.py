#!/usr/bin/env python3
"""Profile sweeps of one benchmark workload with cProfile and print the top self times.

    python3 scripts/profile_workload.py learn_scale --seed 1 --sweeps 3

It builds the workload of `bench/workloads.py` from the seed, as
`bench/run.py` does, warms it up, and runs the given number of sweeps of its
operations under cProfile.  Only the timed part of each operation is
profiled; its check against the benchmark's reference runs outside the
profile, and a failed check makes the script exit 1 after printing.  It
prints the 25 `pstats` rows with the largest self time (`tottime`).
rwlearn is imported from this checkout's `src/`; nothing under `bench/` is
changed.
"""

import argparse
import cProfile
import importlib
import io
import pathlib
import pstats
import sys
import time
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402  (needs bench/ on the path)

MODULES = ("terms", "antiunify", "rewrite", "learner", "simplify", "dsl", "cli")
TOP = 25  # rows printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--sweeps", type=int, default=3, help="sweeps to profile (default 3)")
    args = parser.parse_args(argv)
    if args.sweeps < 1:
        parser.error("--sweeps must be positive")

    rw = SimpleNamespace(**{m: importlib.import_module(f"rwlearn.{m}") for m in MODULES})
    workload = WORKLOADS[args.workload](rw, args.seed, ROOT)
    workload.warm_up()
    ops = workload.ops()
    profile = cProfile.Profile()
    failed = 0
    start = time.perf_counter()
    for _ in range(args.sweeps):
        for op in ops:
            profile.enable()
            result = op.run()
            profile.disable()
            try:
                op.check(result, 0.0)
            except Exception as e:  # reported, and the sweep goes on, as in bench/run.py
                failed += 1
                print(f"operation {op.label} failed: {e}", file=sys.stderr)
    took = time.perf_counter() - start

    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    print(f"{args.workload}, seed {args.seed}: {args.sweeps} sweep(s) of {len(ops)} ops, "
          f"{took:.3f} s with checks, {stats.total_tt:.3f} s profiled; "
          f"{failed} failed check(s)")
    stats.sort_stats("tottime").print_stats(TOP)
    print(out.getvalue().rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
