#!/usr/bin/env python3
"""Profile sweeps of one benchmark workload with cProfile and print the top self times.

    python3 scripts/profile_workload.py learn_scale --seed 1 --sweeps 3
    python3 scripts/profile_workload.py seed_cli --setup --sweeps 5

It builds the workload of `bench/workloads.py` from the seed, as
`bench/run.py` does, warms it up, and runs the given number of sweeps of its
operations under cProfile.  Only the timed part of each operation is
profiled; its check against the benchmark's reference runs outside the
profile, and a failed check makes the script exit 1 after printing.  It
prints the 25 `pstats` rows with the largest self time (`tottime`).

With --setup it profiles what `bench/run.py` times as setup_s instead, that
many times: a fresh import of the seven rwlearn modules, building the
workload, and its warm-up.  One set-up runs unprofiled first, as the
benchmark's median set-up finds the standard library already imported.  The
first line then gives the median wall time of each of the three parts.

rwlearn is imported from this checkout's `src/`; nothing under `bench/` is
changed.
"""

import argparse
import cProfile
import io
import pathlib
import pstats
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import import_rwlearn  # noqa: E402  (both need bench/ on the path)
from workloads import WORKLOADS  # noqa: E402

TOP = 25  # rows printed


def profile_setups(profile, cls, seed: int, count: int) -> str:
    """Profile count set-ups of cls; what was done, with the median wall time of each part."""
    parts = {"import": [], "build": [], "warm-up": []}
    cls(import_rwlearn(), seed, ROOT).warm_up()
    for _ in range(count):
        start = time.perf_counter()
        profile.enable()
        rw = import_rwlearn()
        built = time.perf_counter()
        workload = cls(rw, seed, ROOT)
        warm = time.perf_counter()
        workload.warm_up()
        profile.disable()
        end = time.perf_counter()
        for name, took in zip(parts, (built - start, warm - built, end - warm)):
            parts[name].append(took)
    return f"{count} set-up(s), median " + ", ".join(
        f"{name} {statistics.median(times) * 1e3:.2f} ms" for name, times in parts.items())


def profile_sweeps(profile, cls, seed: int, count: int) -> tuple:
    """Profile count sweeps of cls's operations; what was done, and the number of failed checks."""
    workload = cls(import_rwlearn(), seed, ROOT)
    workload.warm_up()
    ops = workload.ops()
    failed = 0
    start = time.perf_counter()
    for _ in range(count):
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
    return f"{count} sweep(s) of {len(ops)} ops, {took:.3f} s with checks", failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--sweeps", type=int, default=3,
                        help="sweeps, or set-ups with --setup, to profile (default 3)")
    parser.add_argument("--setup", action="store_true",
                        help="profile the set-up (fresh import, build, warm-up), not sweeps")
    args = parser.parse_args(argv)
    if args.sweeps < 1:
        parser.error("--sweeps must be positive")

    profile = cProfile.Profile()
    cls = WORKLOADS[args.workload]
    if args.setup:  # a set-up has no checks
        done, failed = profile_setups(profile, cls, args.seed, args.sweeps), None
    else:
        done, failed = profile_sweeps(profile, cls, args.seed, args.sweeps)
    checks = "" if failed is None else f"; {failed} failed check(s)"
    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    print(f"{args.workload}, seed {args.seed}: {done}, {stats.total_tt:.3f} s profiled{checks}")
    stats.sort_stats("tottime").print_stats(TOP)
    print(out.getvalue().rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
