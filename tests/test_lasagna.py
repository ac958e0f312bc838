"""Invariant-module decompositions for the two four-manifolds."""

import hashlib
import os
import subprocess
import sys
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
    assert lasagna.minus_side_checks(12)[1]


def _finite_part_claim(report):
    claim = report["claims"][-1]
    assert claim["claim"] == "locally finite part comes from the plus side"
    return claim


def test_summary_report():
    rep = lasagna.summary_report(12)
    assert rep["ok"], rep
    assert rep["depth"] == 12
    assert all(c["status"] == "pass" for c in rep["claims"])
    # the plus blocks cover m, n <= 12 // 2, so every listed generator is
    # compared with one; the last claim says how many
    listed = [
        (m, n, j) for m in range(7) for n in range(7) for j in range(4)
        if m - n - 4 * j >= 0 and (m - n) % 2 == 0 and m + n + 4 * j <= 6
    ]
    detail = _finite_part_claim(rep)["detail"]
    assert detail == {"generators": len(listed), "checked": len(listed)}
    assert len(listed) == 10


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
    """At depth 40, all 34 listed generators lie in a computed plus block
    (m, n <= 12)."""
    rep40 = lasagna.summary_report(40)
    assert rep40["ok"], rep40
    assert len(rep40["claims"]) == 8
    assert _finite_part_claim(rep40)["detail"] == {"generators": 34,
                                                   "checked": 34}


def test_finite_part_checks_every_generator_at_depth_20():
    rep20 = lasagna.summary_report(20)
    assert rep20["ok"], rep20
    assert _finite_part_claim(rep20)["detail"] == {"generators": 24,
                                                   "checked": 24}


def test_high_weight_block_is_verified_past_the_summary_depth():
    """Block (10, 0) has weight 10: its dual-Verma witness of weight -12
    sits at degree 22, so it is verified at depth 2 * 10 + 4 = 24."""
    rep = lasagna.mplus_decomposition(20)
    assert rep["ok"], rep
    block = next(b for b in rep["blocks"] if (b["m"], b["n"]) == (10, 0))
    assert block["status"] == "pass"
    assert block["depth"] == 24
    assert [s["lambda"] for s in block["zuckerman"]] == [10, 6, 2]


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


def test_summary_verifies_one_twisted_model_per_weight_and_depth(monkeypatch):
    """Operation-count gate: inside mplus_decomposition, and again inside
    minus_side_checks, summary_report verifies one twisted model per
    distinct (weight, depth)."""
    verified = {}
    phase = []
    verify = lasagna.verify_claim

    def counted(m, claim, depth=None):
        if m.twist is not None:
            verified.setdefault(phase[-1] if phase else None, []).append(
                (m.twist.shift, m.depth))
        return verify(m, claim, depth)

    def inside(name):
        fn = getattr(lasagna, name)

        def wrapped(*args):
            phase.append(name)
            try:
                return fn(*args)
            finally:
                phase.pop()
        return wrapped

    monkeypatch.setattr(lasagna, "verify_claim", counted)
    for name in ("mplus_decomposition", "minus_side_checks"):
        monkeypatch.setattr(lasagna, name, inside(name))
    assert lasagna.summary_report(12)["ok"]
    plus = {(m - n, max(12, 2 * (m - n) + 4))
            for m in range(7) for n in range(7)}
    layers = {(2 * r - ell, max(12, 2 * (2 * r - ell) + 4))
              for ell in range(-2, 3) for r in range(5)}
    assert sorted(verified) == ["minus_side_checks", "mplus_decomposition"]
    assert sorted(verified["mplus_decomposition"]) == sorted(plus)
    assert sorted(verified["minus_side_checks"]) == sorted(layers)


def _wrong_claim_at_weight_2(real):
    """block_claim with the dual Verma Mdual(2) of weight 2 claimed as a
    Verma module; every other weight is claimed correctly."""
    def claim(w, depth):
        out = real(w, depth)
        if w == 2:
            assert out.parts[0].kind == "Mdual"
            out.parts[0].kind = "M"
        return out
    return claim


def test_shared_verdict_fails_every_block_of_its_weight(monkeypatch):
    """A verdict shared by the blocks of one weight hides no failure: a wrong
    weight-2 claim fails exactly the blocks with m - n = 2."""
    monkeypatch.setattr(lasagna, "block_claim",
                        _wrong_claim_at_weight_2(lasagna.block_claim))
    rep = lasagna.mplus_decomposition(20)
    failed = {(b["m"], b["n"]) for b in rep["blocks"]
              if b["status"] == "fail"}
    assert failed == {(m, m - 2) for m in range(2, 11)}
    assert not rep["ok"]


def test_shared_verdict_fails_every_layer_of_its_weight(monkeypatch):
    monkeypatch.setattr(lasagna, "block_claim",
                        _wrong_claim_at_weight_2(lasagna.block_claim))
    verdicts = {}
    failed = []
    for ell in range(-2, 3):
        blk = lasagna.minus_block(ell, 20)
        for r in range(5):
            if not lasagna._layer_report(blk, ell, r, 20, verdicts)["ok"]:
                failed.append((ell, r))
    assert failed == [(-2, 0), (0, 1), (2, 2)]


def test_wrong_weight_2_claim_fails_plus_and_layer_claims(monkeypatch):
    monkeypatch.setattr(lasagna, "block_claim",
                        _wrong_claim_at_weight_2(lasagna.block_claim))
    rep = lasagna.summary_report(20)
    failed = [c["claim"] for c in rep["claims"] if c["status"] == "fail"]
    assert failed == [
        "plus part splits blockwise into Verma/dual-Verma stacks",
        "minus filtration layers are twisted polynomial modules",
    ]


# -- negative controls for criteria 8 and 11 ------------------------------------

def test_wrong_summand_kind_fails_the_ball_criterion(monkeypatch):
    """With M(-4) claimed as a dual Verma module, criterion 8 fails."""
    from dottedtl import selftest

    real = lasagna.block_claim

    def wrong(w, depth):
        claim = real(w, depth)
        assert w == 0  # the ball is the untwisted weight-0 block
        assert (claim.parts[1].kind, claim.parts[1].lam) == ("M", -4)
        claim.parts[1].kind = "Mdual"
        return claim

    assert selftest.criterion_ball()["ok"] is True
    monkeypatch.setattr(lasagna, "block_claim", wrong)
    assert selftest.criterion_ball()["ok"] is False


def test_perturbed_minus_block_fails_the_minus_criterion(monkeypatch):
    """One doubled entry of the stored f-table of minus_block(0, 20), in
    the strict layer (ell, r) = (0, 1), fails criterion 11 through its layer
    check."""
    from dottedtl import selftest

    real = lasagna.minus_block
    k = lasagna._lkey(m=1, i=-1)           # A1 A0^-1
    k2 = lasagna._lkey(a=1, m=1, i=-1)     # E1 A1 A0^-1

    def perturbed(ell, depth=20):
        blk = real(ell, depth)
        if (ell, depth) == (0, 20):
            den, table = blk.tables["f"]
            col = table[k]
            assert Fraction(col[k2], den) == -1
            col[k2] *= 2
        return blk

    monkeypatch.setattr(lasagna, "minus_block", perturbed)
    rep = selftest.criterion_minus_part()
    assert rep["split"] is True
    assert rep["layers"] is False
    assert rep["ok"] is False


# sha256 of the CLI's --json stdout for the lasagna reports
PINNED_REPORT_SHA256 = {
    ("decompose-b4",):
        "8abd197b2e5a8827b430e243ff329aa5ec6861079311e34d3cd08d6e04b43dae",
    ("decompose-b2s2", "--depth", "20"):
        "b0d64c00dce89cb92df13331df6ffa6a0509744481466f1cb35cffcd823c4535",
}


@pytest.mark.parametrize("args", sorted(PINNED_REPORT_SHA256))
def test_lasagna_reports_are_pinned(args):
    for hashseed in ("0", "4242"):
        res = subprocess.run(
            [sys.executable, "-m", "dottedtl.cli", *args, "--json"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": hashseed},
        )
        assert res.returncode == 0, res.stderr
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == PINNED_REPORT_SHA256[args], hashseed


def test_f_string_walks_build_no_fraction(monkeypatch):
    """Operation-count gate: classify_cyclic walks its f-strings on int
    numerators, so summary_report(12) builds no Fraction inside it."""
    inside, built, lams = [], [], []
    real_new = Fraction.__new__
    real_classify = rep.TruncatedModule.classify_cyclic

    def counting_new(cls, *args, **kwargs):
        if inside:
            built.append(args)
        return real_new(cls, *args, **kwargs)

    def classify(self, vec, lam):
        lams.append(lam)
        inside.append(lam)
        try:
            return real_classify(self, vec, lam)
        finally:
            inside.pop()

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(rep.TruncatedModule, "classify_cyclic", classify)
    assert lasagna.summary_report(12)["ok"]
    # walks of both kinds ran: to f^(lam+1) and down to the boundary
    assert min(lams) < 0 <= max(lams) and len(lams) > 100
    assert built == []
