"""Invariant-module decompositions for the two four-manifolds."""

from fractions import Fraction

import pytest

from dottedtl import lasagna, rep
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


def _finite_part_claim(report):
    claim = report["claims"][-1]
    assert claim["claim"] == "locally finite part comes from the plus side"
    return claim


def test_summary_report():
    rep = lasagna.summary_report(12)
    assert rep["ok"], rep
    assert rep["depth"] == 12
    assert all(c["status"] == "pass" for c in rep["claims"])
    # only generators inside a computed plus block (m, n <= 12 // 4) are
    # compared; the last claim says how many
    listed = [
        (m, n, j) for m in range(7) for n in range(7) for j in range(4)
        if m - n - 4 * j >= 0 and (m - n) % 2 == 0 and m + n + 4 * j <= 6
    ]
    detail = _finite_part_claim(rep)["detail"]
    assert detail["generators"] == len(listed)
    assert detail["checked"] == sum(m <= 3 and n <= 3 for m, n, _ in listed)


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


def test_finite_part_counts_checked_generators():
    """At depth 40, 14 of the 34 listed generators lie in a computed plus
    block (m, n <= 5)."""
    rep40 = lasagna.summary_report(40)
    assert len(rep40["claims"]) == 8
    assert _finite_part_claim(rep40)["detail"] == {"generators": 34,
                                                   "checked": 14}


def test_summary_builds_one_minus_block_per_ell(monkeypatch):
    """Operation-count gate: outside the block split check, summary_report
    builds each minus block once for its filtration layers and its Zuckerman
    check."""
    built = []
    in_split = []
    split = lasagna.minus_block_split_check

    class Counted(rep.TruncatedModule):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if not in_split:
                built.append((self.name, self.depth))

    def counted_split(depth):
        in_split.append(depth)
        try:
            return split(depth)
        finally:
            in_split.pop()

    monkeypatch.setattr(lasagna, "TruncatedModule", Counted)
    monkeypatch.setattr(lasagna, "minus_block_split_check", counted_split)
    lasagna.summary_report(12)
    minus = [b for b in built if b[0].startswith("minus[")]
    assert sorted(minus) == sorted((f"minus[{ell}]", 12)
                                   for ell in range(-2, 3))
