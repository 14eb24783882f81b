#!/usr/bin/env python3
"""Golden CLI corpus: the runs of scripts/run_all_problems.py, captured whole.

For each run, `<name>.txt` holds the exit code, stdout, stderr with the
trace on, and the `--json` report of `rwlearn.cli.main`, called in-process.
`tests/test_golden.py` compares them byte for byte.  After a change that is
meant to alter this output, rewrite the files and review the diff:

    PYTHONPATH=src python3 tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _runs():
    spec = importlib.util.spec_from_file_location(
        "run_all_problems", ROOT / "scripts" / "run_all_problems.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(name, opts) for name, opts, _code, _reason in module.RUNS]


RUNS = _runs()


def golden_name(name: str, opts) -> str:
    return "_".join([name.removesuffix(".tl"), *(o.lstrip("-") for o in opts)]) + ".txt"


def capture(name: str, opts) -> str:
    """Exit code, stdout, stderr and JSON report of one in-process CLI run."""
    from rwlearn.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(ROOT / "problems" / name), *opts, "--json", str(report)])
        doc = report.read_text() if report.exists() else ""
    return (f"== exit\n{code}\n== stdout\n{out.getvalue()}== stderr\n{err.getvalue()}"
            f"== json\n{doc}")


def main() -> int:
    for name, opts in RUNS:
        path = HERE / golden_name(name, opts)
        path.write_bytes(capture(name, opts).encode())
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
