"""Negative controls: the output gate fails on perturbed outputs."""

from fractions import Fraction

import pytest

import run
import workloads
from dottedtl import expr, lasagna
from dottedtl.statespace import PolyMatrix
from dottedtl.words import Combo


def small_diagrams_inputs():
    inp = workloads.diagrams_inputs(0)
    return {"samples": inp["samples"][:6], "roundtrip": inp["roundtrip"][:4],
            "normalize": inp["normalize"][:4] + ["dot ; dot"]}


@pytest.fixture(scope="module")
def diagrams_case():
    inp = small_diagrams_inputs()
    return inp, workloads.diagrams_run(inp)


def failures(checks):
    return [name for name, ok in checks if not ok]


def test_diagrams_gate_passes_unperturbed(diagrams_case):
    inp, out = diagrams_case
    checks = workloads.diagrams_gate(inp, out, False)
    assert checks and failures(checks) == []


def test_sign_flipped_normal_form_coefficient_fails(diagrams_case):
    inp, out = diagrams_case
    combo, form = out["normal"][-1]
    w, c = next(iter(form.terms.items()))
    flipped = Combo(dict(form.terms), form.n_in, form.n_out)
    flipped.terms[w] = -c
    bad = dict(out, normal=out["normal"][:-1] + [(combo, flipped)])
    assert failures(workloads.diagrams_gate(inp, bad, False)) == [
        "normal form of dot ; dot (oracle)"]


def test_wrong_bracket_verdict_fails(diagrams_case):
    inp, out = diagrams_case
    bad = dict(out, brackets=[False] + out["brackets"][1:])
    assert failures(workloads.diagrams_gate(inp, bad, False)) == ["bracket 0"]


def test_wrong_highest_weights_fail():
    b4 = lasagna.b4_report(12)
    assert workloads.b4_weights_check(b4)[1]
    wrong = dict(b4, hwv_weights=b4["hwv_weights"][:-1] + [-16])
    assert not workloads.b4_weights_check(wrong)[1]


def test_failed_summary_claim_fails():
    summary = {"ok": True, "depth": 40, "claims": [
        {"claim": f"c{i}", "status": "pass"} for i in range(8)]}
    summary["claims"][3]["status"] = "fail"
    checks = workloads.lasagna_gate({"depth": 40}, {"summary": summary}, False)
    assert "c3" in failures(checks)


def test_zero_composite_fails():
    one = PolyMatrix.identity(2)
    zero = PolyMatrix(2, 2)
    assert workloads._composite_nonzero(one, one)
    assert not workloads._composite_nonzero(one, zero)
    assert not workloads._composite_nonzero(zero, one)


def test_run_reports_a_failed_check():
    ok = {"checks_total": 10, "checks_failed": 0}
    bad = {"checks_total": 10, "checks_failed": 1}
    assert run.result([ok, ok], {})["correct"] is True
    line = run.result([ok, bad], {})
    assert (line["correct"], line["attempted"], line["failed"]) == (
        False, 20, 1)


def test_unreduced_normal_form_fails():
    # the input itself evaluates correctly but is not over matching words
    combo = expr.parse_expr("dot ; dot")
    assert not workloads.normal_form_check("x", combo, combo)[1]


def test_scaled_normal_form_fails():
    combo = expr.parse_expr("dot ; dot")
    form = expr.normalize_combo(combo)
    assert workloads.normal_form_check("x", combo, form)[1]
    shifted = form.scale(Fraction(2))
    assert not workloads.normal_form_check("x", combo, shifted)[1]
