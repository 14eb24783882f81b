"""The benchmark's contract with the package, checked without changing `bench/`.

`bench/tracer.py` wraps rwlearn module attributes by name, and a benchmark
run must end in one JSON result line.  A refactor that renames a wrapped
function, or prints after the result, breaks the benchmark silently; these
tests make it fail here instead.  `bench/run.py` builds a workload and warms
it up outside its per-operation error handling, so an exception there ends
the run before its result line; every workload is therefore also built and
swept here, traced.  A `--trace 1` run is correct only when every call
site it must reach is hit, and reports only the per-layer metrics of the
sites that exist; the swept workloads check both, seed_cli checks both in a
traced run of its own, and the evaluator's sites are checked on one CLI run
too.
"""

import contextlib
import importlib
import io
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

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


def test_traced_seed_cli_run_hits_its_sites_and_reports_every_layer_metric():
    # run.py marks the result incorrect when a site seed_cli must reach goes unhit
    proc = _run(["bench/run.py", "--workload", "seed_cli", "--seed", "1", "--seconds", "0",
                 "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)


@pytest.mark.parametrize("name", ["learn_scale", "eval_long"])
def test_workload_builds_warms_up_and_passes_every_check(name, monkeypatch):
    # seed_cli runs whole, through bench/run.py, in the test above
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    run = importlib.import_module("run")
    # the modules already imported, not run.import_rwlearn's fresh copies,
    # whose classes other tests' terms would not be instances of
    rw = SimpleNamespace(**{m: importlib.import_module(f"rwlearn.{m}") for m in run.MODULES})
    # traced, as a --trace 1 run is: its result line carries only the metrics
    # of call sites that still exist, and fails on a site the workload must reach
    tracer = run.Tracer(rw)
    with tracer.installed():
        workload = run.WORKLOADS[name](rw, 1, ROOT)
        workload.warm_up()
        for op in workload.ops():
            result = op.run()
            with tracer.paused():
                op.check(result, 0.0)
    assert tracer.unhit(name) == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py adds the overhead ratio itself, from its untraced passes
    expected = {m["name"] for m in declared} - {"trace.overhead_ratio"}
    assert expected <= set(run.layer_metrics(**tracer.snapshot()))


def test_cli_run_reaches_the_traced_rewrite_sites(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    run = importlib.import_module("run")
    rw = SimpleNamespace(**{m: importlib.import_module(f"rwlearn.{m}") for m in run.MODULES})
    tracer = run.Tracer(rw)
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert rw.cli.main([str(ROOT / "problems" / "add.tl"), "--no-trace"]) == 0
    for attr in ("match_pattern", "substitute", "evaluate_steps"):
        assert tracer.spans["rewrite", attr].calls > 0, attr
