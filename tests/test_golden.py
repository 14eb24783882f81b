"""Byte-for-byte comparison against the golden CLI corpus in tests/golden/."""

import pytest

from golden.regen import HERE, RUNS, capture, golden_name


@pytest.mark.parametrize("name, opts", RUNS, ids=[golden_name(n, o) for n, o in RUNS])
def test_cli_output_matches_golden(name, opts):
    expected = (HERE / golden_name(name, opts)).read_bytes()
    assert capture(name, opts).encode() == expected
