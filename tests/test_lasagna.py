"""Invariant-module decompositions for the two four-manifolds."""

from fractions import Fraction

import pytest

from dottedtl import lasagna
from dottedtl.ring import LASAGNA_RING, delta
from dottedtl.sl2 import LASAGNA_SPEC


def test_ball_small_depth():
    rep = lasagna.b4_report(16)
    assert rep["ok"], rep
    assert rep["hwv_weights"] == [0, -4, -8, -12, -16]
    assert rep["zuckerman"] == [{"kind": "L", "lambda": 0}]


def test_ball_hwvs_are_discriminant_powers():
    m = lasagna.b4_module(12)
    d = delta()
    vs = m.highest_weight_vectors(-8)
    assert len(vs) == 1
    v = vs[0]
    sq = (d * d).terms
    ratio = None
    for k, c in v.items():
        r = Fraction(c) / sq[k]
        assert ratio is None or r == ratio
        ratio = r
    assert set(v) == set(sq)


def test_gamma_and_generators():
    assert lasagna.gamma(0, 0, 0) == 0
    v = lasagna.v_poly()
    # v = A0 - E1*A1/2 is killed by e
    assert LASAGNA_SPEC.apply("e", v).is_zero()


def test_closed_form_small():
    assert lasagna.closed_form_check(2, 2, 2, r_max=4)


def test_closed_form_detects_perturbation():
    """The closed form is exact: r = 1 already distinguishes gamma shifts."""
    x = lasagna.vbasis_element(1, 2, 1)
    got = lasagna.genfrcomp_closed_form(1, 2, 1, 1)
    assert got == LASAGNA_SPEC.apply("f", x)
    wrong = lasagna.genfrcomp_closed_form(1, 2, 1, 1) + x
    assert wrong != LASAGNA_SPEC.apply("f", x)


def test_vanishing_pattern():
    assert lasagna.vanishing_check(2, 3, 1)


def test_plus_part_decomposition():
    rep = lasagna.mplus_decomposition(12)
    assert rep["ok"], rep


def test_minus_block_split():
    assert lasagna.minus_block_split_check(10)


def test_strictness_table():
    for ell in range(-2, 3):
        for r in range(5):
            assert lasagna.strictness(ell, r, 20) == (r >= max(0, ell + 1))


def test_degenerate_layer_is_still_analyzed():
    """(ell, r) = (1, 0) is a degenerate (equal) layer; its abstract twisted
    model still verifies."""
    rep = lasagna.filtration_quotient(1, 0, 12)
    assert not rep["strict"]
    assert rep["ok"], rep


def test_strict_layer_matches_block_action():
    rep = lasagna.filtration_quotient(-1, 1, 12)
    assert rep["strict"]
    assert rep["ok"], rep
    assert any(c["check"] == "layer action matches twisted model"
               and c["status"] == "pass" for c in rep["checks"])


def test_minus_no_finite_part():
    assert lasagna.minus_zuckerman_check(12)


def test_summary_report():
    rep = lasagna.summary_report(12)
    assert rep["ok"], rep
    assert rep["depth"] == 12
    assert all(c["status"] == "pass" for c in rep["claims"])


def test_laurent_ring_consistency():
    a0 = LASAGNA_RING.gen("A0")
    a0inv = LASAGNA_RING.monomial(1, A0=-1)
    assert a0 * a0inv == LASAGNA_RING.one


def test_depth_guard():
    with pytest.raises(lasagna.LasagnaError):
        lasagna.b4_module(2)
    with pytest.raises(lasagna.LasagnaError):
        lasagna.b2s2_module(4)


def test_summary_finite_part_is_compared(monkeypatch):
    """Dropping one Zuckerman summand of a plus block fails exactly the
    "comes from the plus side" claim."""
    orig = lasagna.mplus_decomposition

    def dropped(depth):
        rep = orig(depth)
        block = next(b for b in rep["blocks"] if b["zuckerman"])
        block["zuckerman"] = block["zuckerman"][1:]
        return rep

    monkeypatch.setattr(lasagna, "mplus_decomposition", dropped)
    rep = lasagna.summary_report(12)
    failed = [c["claim"] for c in rep["claims"] if c["status"] == "fail"]
    assert failed == ["locally finite part comes from the plus side"]
    assert len(rep["claims"]) == 8


def test_summary_depth_checked_first(monkeypatch):
    """A depth below 6 is rejected before any module is built."""
    def never(depth):
        raise AssertionError("b4_report ran before the depth check")

    monkeypatch.setattr(lasagna, "b4_report", never)
    with pytest.raises(lasagna.LasagnaError, match="at least 6"):
        lasagna.summary_report(5)
