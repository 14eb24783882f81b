"""The benchmark's contract with the package, checked without changing `bench/`.

`bench/tracer.py` wraps rwlearn module attributes by name, and a benchmark
run must end in one JSON result line.  A refactor that renames a wrapped
function, or prints after the result, breaks the benchmark silently; these
tests make it fail here instead.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(argv, **env):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True,
                          timeout=120, env={**os.environ, **env})


def test_every_traced_call_site_resolves_on_a_fresh_import():
    script = ("import importlib, json\n"
              "from tracer import SITES\n"
              "print(json.dumps([f'{m}.{a}' for _, m, a, _, _ in SITES\n"
              "                  if not hasattr(importlib.import_module('rwlearn.' + m), a)]))\n")
    proc = _run(["-c", script],
                PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_seed_cli_run_ends_in_a_correct_result_line():
    proc = _run(["bench/run.py", "--workload", "seed_cli", "--seed", "1", "--seconds", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
