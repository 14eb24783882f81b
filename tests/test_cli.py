"""End-to-end tests for the command-line interface."""

import contextlib
import io
import json
from sys import getrecursionlimit

import pytest

from rwlearn import parse_problem
from rwlearn.cli import main, run_problem, term_from_json, term_to_json
from rwlearn.rewrite import Rule
from rwlearn.terms import App, Var

from helpers import PROBLEMS


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_successful_run_prints_report_blocks():
    code, out, err = run_main(str(PROBLEMS / "add.tl"))
    assert code == 0
    for block in ("+++++ Examples input check:",
                  "+++++ Examples input check done",
                  "+++++ Examples output check done",
                  "FUNCTION SIGNATURES:",
                  "FUNCTION EXAMPLES:",
                  "FUNCTION DEFINITIONS:"):
        assert block in out
    assert "induce(add)" in err  # trace goes to stderr


def test_variable_sorts_block_lists_latest_first():
    code, out, _ = run_main(str(PROBLEMS / "size.tl"), "--no-trace")
    assert code == 0
    assert "Variable sorts:" in out
    assert "[vd:nat,vc:nat,vb:nat,va:nat]" in out


def test_no_trace_silences_stderr():
    _, _, err = run_main(str(PROBLEMS / "add.tl"), "--no-trace")
    assert "induce(" not in err


def test_aux_signatures_printed_innermost_first():
    _, out, _ = run_main(str(PROBLEMS / "size.tl"), "--no-trace")
    lines = out[out.index("FUNCTION SIGNATURES:"):].splitlines()[1:4]
    assert lines[2].startswith("size signature [tree]-->nat")
    # the two auxiliaries come first, most recently introduced on top
    assert all(" signature [nat,nat]-->nat" in line for line in lines[:2])


def test_failure_run_exits_1_with_diagnostics():
    code, out, _ = run_main(str(PROBLEMS / "sq.tl"), "--no-trace")
    assert code == 1
    assert "SYNTHESIS FAILED: underivable-aux-examples" in out
    assert "auxiliary layer 2" in out


@pytest.mark.parametrize("cap", ["--max-depth", "--max-aux"])
def test_cap_failure_exits_1_naming_the_cap(cap):
    code, out, _ = run_main(str(PROBLEMS / "size.tl"), "--no-trace", cap, "1")
    assert code == 1
    assert "SYNTHESIS FAILED: cap-exceeded\n" in out


def test_missing_file_exits_2():
    code, _, err = run_main(str(PROBLEMS / "missing.tl"))
    assert code == 2
    assert "error:" in err


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.tl"
    bad.write_text("sort nat = 0 | s(nat) ;\n")
    code, _, err = run_main(str(bad))
    assert code == 2
    assert "missing learn" in err


def test_non_utf8_input_exits_2(tmp_path, monkeypatch):
    data = b"sort nat = 0 | s(nat) ;\xff\n"
    bad = tmp_path / "bad.tl"
    bad.write_bytes(data)
    code, out, err = run_main(str(bad))
    assert (code, out) == (2, "")
    assert err == f"error: {bad} is not utf-8 text: invalid start byte at byte 23\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run_main("-")
    assert (code, out) == (2, "")
    assert err == "error: standard input is not utf-8 text: invalid start byte at byte 23\n"
    good = (PROBLEMS / "add.tl").read_bytes()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(good)))
    assert run_main("-", "--no-trace")[0] == 0


def test_rhs_only_variable_exits_2(tmp_path):
    bad = tmp_path / "bad.tl"
    bad.write_text("sort nat = 0 | s(nat) ;\nfun f : nat -> nat ;\n"
                   "ex f(0) = 0 ;\n  ex f(0) = s(q) ;\nlearn f ;\n")
    code, out, err = run_main(str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: 4:3: example 2: rhs variable q does not occur on the lhs\n"


def test_json_export_schema(tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run_main(str(PROBLEMS / "add.tl"), "--no-trace",
                          "--json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["target"] == "add" and doc["success"]
    assert doc["sorts"]["nat"][0] == {"name": "0", "args": []}
    assert len(doc["rules"]) == 4
    assert doc["coverage"] == {"covered": True, "uncovered": []}
    assert doc["failure"] is None
    assert any(e["text"] == "induce(add)" for e in doc["trace"])
    head = term_from_json(doc["rules"][0]["lhs"])
    assert head.head == "add"


def test_json_export_on_failure(tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run_main(str(PROBLEMS / "sq.tl"), "--no-trace",
                          "--json", str(path))
    assert code == 1
    doc = json.loads(path.read_text())
    assert not doc["success"]
    assert doc["failure"]["reason"] == "underivable-aux-examples"
    assert doc["failure"]["underivable"]
    assert doc["coverage"]["uncovered"]


def test_term_json_roundtrip():
    t = App("cons", (Var("x"), App("nil")))
    assert term_from_json(term_to_json(t)) == t


def test_depth_flag_validation():
    with pytest.raises(SystemExit):
        run_main(str(PROBLEMS / "add.tl"), "--depth", "0")
    with pytest.raises(SystemExit):
        run_main(str(PROBLEMS / "add.tl"), "--depth", "two")


@pytest.mark.parametrize("flag, value", [("--max-aux", "0"), ("--max-depth", "0"),
                                         ("--step-limit", "-1")])
def test_out_of_range_cap_exits_2_naming_the_flag(flag, value):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
        main([str(PROBLEMS / "add.tl"), flag, value])
    assert info.value.code == 2
    assert f"argument {flag}: must be >= 1" in err.getvalue()


@pytest.mark.parametrize("flag, expected", [
    ("--max-aux", "expected an integer, got 'two'"),
    ("--step-limit", "expected an integer, got 'two'"),
    ("--depth", "expected an integer or 'inf', got 'two'"),
])
def test_non_integer_flag_exits_2_naming_the_flag(flag, expected):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
        main([str(PROBLEMS / "add.tl"), flag, "two"])
    assert info.value.code == 2
    assert f"argument {flag}: {expected}\n" in err.getvalue()


@pytest.mark.parametrize("depth, flags", [(300, ["--no-trace"]), (400, ["--no-trace"]),
                                          (400, []),
                                          (10 * getrecursionlimit(),
                                           ["--step-limit", "100000", "--json"])])
def test_deep_example_is_learned(tmp_path, depth, flags):
    # parsing, sort checks, evaluation, coverage, trace text and the JSON
    # report must not depend on the recursion limit
    text = (PROBLEMS / "add.tl").read_text()
    deep = tmp_path / "add.tl"
    example = f"add({'s(' * depth}0{')' * depth},s(0))={'s(' * (depth + 1)}0{')' * (depth + 1)}"
    deep.write_text(text.replace("learn add", f"ex {example} ;\nlearn add"))
    report = tmp_path / "report.json"
    code, out, err = run_main(str(deep), *flags, *([str(report)] if "--json" in flags else []))
    assert code == 0
    assert (example in err) == ("--no-trace" not in flags)
    _, plain, _ = run_main(str(PROBLEMS / "add.tl"), "--no-trace")
    definitions = out[out.index("FUNCTION DEFINITIONS:"):]
    assert definitions == plain[plain.index("FUNCTION DEFINITIONS:"):]
    if "--json" in flags:
        doc = json.loads(report.read_text())
        assert doc["success"]
        rules = [Rule(term_from_json(r["lhs"]), term_from_json(r["rhs"])).render()
                 for r in doc["rules"]]
        assert rules == definitions.splitlines()[1:]


def test_long_lists_of_one_shape_fail_with_a_reason(tmp_path):
    # anti-unifying two lists of 600 and 601 elements keeps a 600-deep cons
    # spine, deeper than a recursive lgg can go; the run must end in a named
    # failure, not a traceback
    def lst(n, name):
        return "".join(f"cons({name}{i}," for i in range(n)) + "nil" + ")" * n

    text = (PROBLEMS / "lgth.tl").read_text()
    sorts = text[:text.index("ex ")]
    examples = "ex lgth(nil) = 0 ;\n" + "".join(
        f"ex lgth({lst(n, name)}) = {'s(' * n}0{')' * n} ;\n"
        for n, name in ((600, "a"), (601, "b")))
    problem = tmp_path / "lgth.tl"
    problem.write_text(sorts + examples + "learn lgth ;\n")
    report = tmp_path / "report.json"
    code, out, err = run_main(str(problem), "--json", str(report))
    assert code == 1
    assert "Traceback" not in err and err.startswith("induce(lgth)\n")
    assert "SYNTHESIS FAILED: underivable-aux-examples" in out
    doc = json.loads(report.read_text())
    assert not doc["success"] and doc["failure"]["reason"] == "underivable-aux-examples"


def test_depth_flag_changes_result():
    code, *_ = run_main(str(PROBLEMS / "size.tl"), "--no-trace", "--depth", "2")
    assert code == 1
    code, *_ = run_main(str(PROBLEMS / "size.tl"), "--no-trace", "--depth", "3")
    assert code == 0


def test_inline_flag_collapses_single_rule_auxiliaries():
    _, out, _ = run_main(str(PROBLEMS / "dup.tl"), "--no-trace",
                         "--inline", "--whole-set-lgg")
    defs = out[out.index("FUNCTION DEFINITIONS:"):].splitlines()[1:]
    assert len([line for line in defs if line]) == 2
    assert any("s(s(dup(" in line for line in defs)


def test_run_problem_with_explicit_streams():
    problem = parse_problem((PROBLEMS / "add.tl").read_text())
    out, err = io.StringIO(), io.StringIO()
    code = run_problem(problem, trace=True, out=out, err=err)
    assert code == 0
    assert "FUNCTION DEFINITIONS:" in out.getvalue()
    assert err.getvalue().startswith("induce(add)\n")
