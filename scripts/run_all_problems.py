#!/usr/bin/env python3
"""Run every problem in problems/ and summarize the outcomes.

Problems that need extra options (depth bounds, inlining) are run with them;
sq, badd and size at depth 2 are expected to fail, everything else to
succeed.  An expected failure must also print its reason, as exit 1 alone is
what a run that cannot import rwlearn gives too.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

# (file, extra CLI options, expected exit code, expected failure reason)
RUNS = [
    ("add.tl", [], 0, None),
    ("size.tl", [], 0, None),
    ("size.tl", ["--depth", "3"], 0, None),
    ("size.tl", ["--depth", "2"], 1, "underivable-aux-examples"),
    ("rev.tl", [], 0, None),
    ("dup.tl", [], 0, None),
    ("dup.tl", ["--inline", "--whole-set-lgg"], 0, None),
    ("lgth.tl", ["--inline", "--whole-set-lgg"], 0, None),
    ("sq.tl", [], 1, "underivable-aux-examples"),
    ("badd.tl", [], 1, "underivable-aux-examples"),
]


def main() -> int:
    failures = 0
    for name, opts, expected, reason in RUNS:
        cmd = [sys.executable, "-m", "rwlearn.cli", str(PROBLEMS / name), "--no-trace", *opts]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        ok = proc.returncode == expected and (
            reason is None or f"SYNTHESIS FAILED: {reason}" in proc.stdout.splitlines())
        failures += not ok
        label = " ".join([name, *opts])
        wanted = f"{expected}: {reason}" if reason else expected
        print(f"{'ok  ' if ok else 'FAIL'} {label} (exit {proc.returncode}, expected {wanted})")
        if not ok:
            print(proc.stdout)
            print(proc.stderr, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
