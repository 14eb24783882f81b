"""Byte-for-byte comparison against the golden CLI corpus in tests/golden/,
and the script whose runs it captures."""

import os
import subprocess
import sys

import pytest

from golden.regen import HERE, ROOT, RUNS, capture, golden_name


@pytest.mark.parametrize("name, opts", RUNS, ids=[golden_name(n, o) for n, o in RUNS])
def test_cli_output_matches_golden(name, opts):
    expected = (HERE / golden_name(name, opts)).read_bytes()
    assert capture(name, opts).encode() == expected


def test_run_all_problems_fails_every_run_that_cannot_import_rwlearn(tmp_path):
    # exit 1 is also the code of an expected failure, which must name its reason
    (tmp_path / "rwlearn").mkdir()
    (tmp_path / "rwlearn" / "__init__.py").write_text('raise ImportError("blocked")\n')
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_all_problems.py")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(tmp_path)})
    verdicts = [line[:4] for line in proc.stdout.splitlines() if line[:4] in ("ok  ", "FAIL")]
    assert verdicts == ["FAIL"] * len(RUNS)
    assert proc.returncode == 1
