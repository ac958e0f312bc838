"""Command-line front end: exit codes, output shape, determinism."""

import json
import os
import subprocess
import sys


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "dottedtl.cli", *args],
        capture_output=True, text=True,
        env=None if env is None else {**os.environ, **env},
    )


def test_verify_passes():
    res = run_cli("dtl-verify", "--params", "0,0", "--n-max", "3")
    assert res.returncode == 0
    assert res.stdout.strip().endswith("PASS")


def test_verify_json():
    res = run_cli("dtl-verify", "--params", "1,1/2", "--n-max", "2", "--json")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["ok"]
    assert rep["params"] == ["1", "1/2"]


def test_eval_expr_normalization():
    res = run_cli("eval-expr", "dot ; dot")
    assert res.returncode == 0
    assert res.stdout.strip() == "(E1)*(dot) + (-E2)*(id)"


def test_eval_expr_usage_error():
    res = run_cli("eval-expr", "dot ;; id")
    assert res.returncode == 2
    assert "position" in res.stderr


def test_unknown_command_is_usage_error():
    res = run_cli("frobnicate")
    assert res.returncode == 2


def test_bad_params_is_usage_error():
    res = run_cli("dtl-verify", "--params", "one,two")
    assert res.returncode == 2


def test_jw_command():
    res = run_cli("jw", "2", "--json")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["ok"]
    assert rep["diagram_form"] == "(id|id) + (-1/2)*(cap ; cup)"


def test_jw_checks_symmetrizer_at_every_accepted_size():
    res = run_cli("jw", "7", "--json")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["ok"]
    assert {"check": "matches symmetrizer", "status": "pass"} in rep["checks"]
    res = run_cli("jw", "9")
    assert res.returncode == 2
    assert "bound" in res.stderr


def test_kirby_command():
    res = run_cli("kirby-certify", "--k", "0", "--levels", "3",
                  "--a2", "1/2", "--json")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["ok"]
    assert [c["status"] for c in rep["composites"]] == ["pass"]
    assert "leibniz_closure" not in rep


def test_b4_command():
    res = run_cli("decompose-b4", "--depth", "12", "--json")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["ok"]


def test_b2s2_summary_file(tmp_path):
    out = tmp_path / "summary.json"
    res = run_cli("decompose-b2s2", "--depth", "8", "--summary", str(out))
    assert res.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "pass"
    assert rep["depth"] == 8
    assert isinstance(rep["claims"], list)


def test_reports_are_deterministic():
    a = run_cli("dtl-verify", "--params", "0,1/2", "--n-max", "3", "--json")
    b = run_cli("dtl-verify", "--params", "0,1/2", "--n-max", "3", "--json")
    assert a.stdout == b.stdout
    c = run_cli("decompose-b4", "--depth", "12", "--json")
    d = run_cli("decompose-b4", "--depth", "12", "--json")
    assert c.stdout == d.stdout


def test_verify_report_does_not_depend_on_the_hash_seed():
    args = ("dtl-verify", "--params", "0,1/2", "--n-max", "3", "--json")
    a = run_cli(*args, env={"PYTHONHASHSEED": "0"})
    b = run_cli(*args, env={"PYTHONHASHSEED": "1"})
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_quiver_bounds_are_usage_errors():
    for n_max in ("-1", "9"):
        res = run_cli("quiver", "--n-max", n_max)
        assert res.returncode == 2
        assert res.stderr.startswith("error: n_max must be between 0 and 8")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


def test_kirby_size_is_usage_error():
    for k, levels in (("9", "2"), ("-1", "2"), ("1", "5")):
        res = run_cli("kirby-certify", "--k", k, "--levels", levels)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""


def test_kirby_certification_failure_exits_one(monkeypatch, capsys):
    from fractions import Fraction

    from dottedtl import cli, kirby
    from dottedtl.sl2 import TwistData

    # a twist that no dotted cup map is equivariant for
    monkeypatch.setattr(kirby, "level_twist",
                        lambda n, a2: TwistData(Fraction(n), q_shift=-n))
    assert cli.main(["kirby-certify", "--k", "0", "--levels", "2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL level map U_0 not annihilated")


def test_decompose_depth_bounds_are_usage_errors():
    for cmd, depth in (("decompose-b4", "3"), ("decompose-b2s2", "5")):
        res = run_cli(cmd, "--depth", depth)
        assert res.returncode == 2
        assert res.stderr.startswith("error: depth must be at least")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


def test_bad_depth_environment_is_usage_error(monkeypatch):
    monkeypatch.setenv("DOTTEDTL_DEPTH", "abc")
    res = run_cli("decompose-b4")
    assert res.returncode == 2
    assert "DOTTEDTL_DEPTH" in res.stderr
    assert res.stdout == ""
    # an explicit --depth wins, and other commands never read the variable
    assert run_cli("decompose-b4", "--depth", "8").returncode == 0
    assert run_cli("dtl-verify", "--n-max", "1").returncode == 0


def test_depth_environment_sets_the_default(monkeypatch):
    monkeypatch.setenv("DOTTEDTL_DEPTH", "8")
    res = run_cli("decompose-b4", "--json")
    assert res.returncode == 0
    assert res.stdout == run_cli("decompose-b4", "--depth", "8",
                                 "--json").stdout


def test_negative_verify_width_is_usage_error():
    res = run_cli("dtl-verify", "--n-max", "-2")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ambient width must be non-negative")
    assert res.stdout == ""
