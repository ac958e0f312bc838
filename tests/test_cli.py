"""Command-line front end: exit codes, output shape, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest


# wall-time budget of one bounded CLI run: past it subprocess.run raises
# TimeoutExpired, so an unbounded computation fails its test, not the suite
BUDGET_S = 20


def run_cli(*args, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "dottedtl.cli", *args],
        capture_output=True, text=True, timeout=timeout,
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


def test_eval_expr_large_power_is_one_monomial():
    res = run_cli("eval-expr", "E1^2000000", timeout=BUDGET_S)
    assert res.returncode == 0
    assert res.stdout == "(E1^2000000)\n"


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


def test_package_runs_as_a_module():
    """python -m dottedtl is the CLI: the same stdout and exit code as
    python -m dottedtl.cli."""
    res = subprocess.run([sys.executable, "-m", "dottedtl", "jw", "2", "--json"],
                         capture_output=True, text=True)
    want = run_cli("jw", "2", "--json")
    assert res.returncode == want.returncode == 0, res.stderr
    assert res.stdout == want.stdout


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


def test_unwritable_summary_file_is_usage_error(monkeypatch, capsys,
                                               tmp_path):
    """The --summary file is opened before the summary runs: a path in a
    missing directory exits 2 with an error line and no traceback."""
    from dottedtl import cli, lasagna

    def never(depth):
        raise AssertionError("summary_report ran before the file was opened")

    monkeypatch.setattr(lasagna, "summary_report", never)
    path = tmp_path / "missing" / "x.json"
    assert cli.main(["decompose-b2s2", "--depth", "8",
                     "--summary", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x.json" in err
    assert not path.exists()


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


# sha256 of the CLI's --json stdout for the projector, Kirby,
# word-relation and lasagna reports
PINNED_REPORT_SHA256 = {
    ("quiver",):
        "9333f05123fc23b7c2adc59bcf2796dfa5570c4f2f1641c309f119e2b1039e56",
    ("quiver", "--n-max", "8"):
        "75ff5536dfd64b643c058e8dcad7c8c330a536c97eb5b229e55ed000778a4b47",
    ("jw", "5"):
        "fc1526ee6fb9216d9d316660fa10663b9a0727d0eb728f82d2d8e4d5f2df1b8d",
    ("kirby-certify", "--k", "0", "--levels", "3", "--a2", "1/2"):
        "c70e6feda25bf1304daa4001d2caccb5cdb6b2f962f6191244fe090adc3ba1e1",
    ("dtl-verify", "--params", "1/2,-1/3"):
        "45c6f899197b8775fc6fde861063bcbbbaccbb97a8b1f45cfbf703208bfb8d12",
    ("decompose-b2s2", "--depth", "20"):
        "8758304dbff413fcc45f96c150164d88bd2abb822a12109e5a205174dc77a927",
    ("decompose-b4", "--depth", "40"):
        "8abd197b2e5a8827b430e243ff329aa5ec6861079311e34d3cd08d6e04b43dae",
}


@pytest.mark.parametrize("args", sorted(PINNED_REPORT_SHA256))
def test_reports_are_pinned(args):
    for hashseed in ("0", "4242"):
        res = run_cli(*args, "--json", env={"PYTHONHASHSEED": hashseed})
        assert res.returncode == 0, res.stderr
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == PINNED_REPORT_SHA256[args], hashseed


# one bad input per command, with the message main prints for it
USAGE_ERRORS = [
    (("jw", "9"), "error: projector bound exceeded: n=9"),
    (("quiver", "--n-max", "9"),
     "error: n_max must be between 0 and 8, got 9"),
    (("decompose-b4", "--depth", "3"), "error: depth must be at least 4"),
    (("decompose-b2s2", "--depth", "5"), "error: depth must be at least 6"),
    (("eval-expr", "u(5)"),
     "error: macro argument out of range: u(5) (at position 0)"),
    (("dtl-verify", "--n-max", "-2"),
     "error: ambient width must be non-negative, got -2"),
    (("kirby-certify", "--levels", "9"),
     "error: strand bound exceeded: 16 > 8"),
    (("dtl-verify", "--n-max", "20"),
     "error: ambient width must be at most 10, got 20"),
    (("eval-expr", "E2^4294967296"),
     "error: exponent too large to pack: E2^4294967296"),
]


@pytest.mark.parametrize("args,message", USAGE_ERRORS)
def test_usage_errors_are_reported_by_main(args, message):
    res = run_cli(*args, timeout=BUDGET_S)
    assert res.returncode == 2
    assert res.stderr == message + "\n"
    assert "Traceback" not in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("text", [
    "E2^2147483647*dot;E2^2147483647*dot;E2^2147483647*dot",
    "(E2^2147483647*dot;E2^2147483647*dot)"])
def test_stacked_large_powers_are_usage_errors(text):
    """Each power packs, but stacking two adds the exponents past the
    packed format: the first stack is refused, so no exponent carries."""
    res = run_cli("eval-expr", text, timeout=BUDGET_S)
    assert res.returncode == 2
    assert res.stderr == "error: exponent too large to pack: E2^4294967294\n"
    assert res.stdout == ""


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
