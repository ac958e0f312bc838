"""Truncated module machinery: weights, HWVs, classification, claims."""

import random
from fractions import Fraction
from math import gcd

import pytest

from dottedtl import lasagna
from dottedtl.rep import (
    ClaimPart,
    DecompositionClaim,
    ModuleTwist,
    RepError,
    TruncatedModule,
    bracket_check,
    ef_string_check,
    verify_claim,
    zuckerman,
)
from dottedtl.ring import E_RING, GradedPoly
from dottedtl.sl2 import BASE_SPEC, GENERATORS, Sl2ActionSpec
from test_sl2 import leibniz_apply


def _poly_module(depth, twist=None):
    keys = [
        (a, b)
        for a in range(depth // 2 + 1)
        for b in range(depth // 4 + 1)
        if 2 * a + 4 * b <= depth
    ]
    return TruncatedModule(E_RING, BASE_SPEC, keys, depth, twist=twist,
                           name="test")


def test_weights_match_degrees():
    m = _poly_module(12)
    for (a, b) in m.basis:
        assert m.weights[(a, b)] == -(2 * a + 4 * b)


def test_boundary_loss_is_tracked():
    m = _poly_module(8)
    assert (4, 0) in m.boundary_loss["f"]  # f(E1^4) has degree 10 terms
    assert m.lossy("f", {(4, 0): Fraction(1)})
    assert not m.lossy("f", {(0, 0): Fraction(1)})


def test_constant_is_hwv():
    m = _poly_module(12)
    vs = m.highest_weight_vectors(0)
    assert len(vs) == 1 and set(vs[0]) == {(0, 0)}


def test_classify_constant_is_finite():
    m = _poly_module(12)
    assert m.classify_cyclic({(0, 0): Fraction(1)}, 0) == "L"


def test_classify_discriminant_is_verma():
    m = _poly_module(12)
    # 4E2 - E1^2, the weight -4 HWV
    v = {(0, 1): Fraction(4), (2, 0): Fraction(-1)}
    assert m.classify_cyclic(v, -4) == "M"


def test_classify_requires_hwv():
    m = _poly_module(12)
    with pytest.raises(RepError):
        m.classify_cyclic({(0, 1): Fraction(1)}, -4)


def test_shallow_truncation_is_reported():
    # twisted so the f-string of the generator is infinite, weight 6:
    # deciding f^7 = 0 needs depth 14, not 4
    m = _poly_module(4, twist=ModuleTwist(Fraction(1), 6))
    with pytest.raises(RepError, match="too shallow"):
        m.classify_cyclic({(0, 0): Fraction(1)}, 6)


def test_bracket_and_ef_string():
    m = _poly_module(12)
    assert bracket_check(m)
    assert ef_string_check(m, {(0, 0): Fraction(1)}, 0)


def test_twist_changes_weights():
    m = _poly_module(8, twist=ModuleTwist(Fraction(1), -2))
    assert m.weights[(0, 0)] == -2
    fv = m.apply("f", {(0, 0): Fraction(1)})
    assert fv == {(1, 0): Fraction(1)}  # f(1) = a*E1


def test_claim_characters():
    claim = DecompositionClaim([ClaimPart("L", 2), ClaimPart("M", -4)])
    ch = claim.character(-6, 4)
    assert ch == {2: 1, 0: 1, -2: 1, -4: 1, -6: 1}
    dual = DecompositionClaim([ClaimPart("Mdual", 0)])
    assert dual.character(-4, 2) == {0: 1, -2: 1, -4: 1}


def test_verify_claim_catches_wrong_character():
    m = _poly_module(8)
    bad = DecompositionClaim([ClaimPart("L", 0,
                                        generator={(0, 0): Fraction(1)})])
    rep = verify_claim(m, bad)
    assert not rep["ok"]
    assert any(c["check"] == "character" and c["status"] == "fail"
               for c in rep["checks"])


def test_zuckerman_on_polynomials():
    m = _poly_module(12)
    z = zuckerman(m)
    assert z["summands"] == [{"kind": "L", "lambda": 0}]
    assert z["dimension"] == 1
    assert "depth" in z["caveat"] or "depth" in str(z)


# -- action tables against the Leibniz oracle ---------------------------------

def oracle_tables(m):
    """(action, boundary_loss) of m rebuilt with one GradedPoly per basis key,
    the spec applied by the Leibniz oracle and the twist added as polynomials."""
    ring, twist = m.ring, m.twist
    e1 = GradedPoly(ring, {tuple(int(n == "E1") for n in ring.names):
                           Fraction(1)})
    action, loss = {}, {g: set() for g in GENERATORS}
    for g in GENERATORS:
        table = {}
        for k in m.basis:
            mono = GradedPoly(ring, {k: Fraction(1)})
            img = leibniz_apply(m.spec, g, mono)
            if twist and g == "f":
                img = img + Fraction(twist.a) * mono * e1
            elif twist and g == "h":
                img = img + Fraction(twist.shift) * mono
            col = {}
            for k2, c in img.terms.items():
                if k2 in m.index:
                    col[k2] = c
                else:
                    loss[g].add(k)
            if col:
                table[k] = col
        action[g] = table
    return action, loss


def _items(action):
    return {g: [(k, list(col.items())) for k, col in table.items()]
            for g, table in action.items()}


# every f-table here is over 2: the twisted blocks have odd weight, and the
# Laurent spec has f(A1) = -E1*A1/2
MODULES = pytest.mark.parametrize("module", [
    lambda: lasagna.twisted_block(Fraction(-3, 2), 3, 16, "twisted"),
    lambda: lasagna.twisted_block(Fraction(5, 2), -5, 12, "twisted"),
    lambda: lasagna.minus_block(-1, 12),
    lambda: lasagna.b2s2_module(8, "plus"),
], ids=["twisted-a<0", "twisted-a>0-shift<0", "minus-block", "b2s2-plus"])


@MODULES
def test_tables_match_leibniz_oracle(module):
    m = module()
    action, loss = oracle_tables(m)
    assert _items(m.action) == _items(action)
    assert m.boundary_loss == loss
    assert all(type(c) is Fraction for table in m.action.values()
               for col in table.values() for c in col.values())
    # the stored tables are canonical: int numerators, none zero, over a
    # positive denominator coprime to them
    for den, table in m.tables.values():
        nums = [c for col in table.values() for c in col.values()]
        assert all(type(c) is int and c for c in nums)
        assert den > 0 and gcd(den, *nums) == 1
    assert m.tables["f"][0] == 2


@MODULES
def test_apply_matches_the_fraction_view(module):
    """apply on int numerators equals the product with the Fraction view of
    the tables, on seeded random vectors."""
    m = module()
    action = m.action
    rng = random.Random(7)
    for _ in range(25):
        keys = rng.sample(m.basis, min(5, len(m.basis)))
        vec = {k: Fraction(rng.choice([-7, -2, 1, 3, 5]), rng.randint(1, 6))
               for k in keys}
        for g in GENERATORS:
            want = {}
            for k, c in vec.items():
                for k2, a in action[g].get(k, {}).items():
                    want[k2] = want.get(k2, 0) + c * a
            got = m.apply(g, vec)
            assert got == {k: c for k, c in want.items() if c}
            assert all(type(c) is Fraction for c in got.values())


def test_action_view_is_read_only():
    m = lasagna.twisted_block(Fraction(-3, 2), 3, 16, "twisted")
    m.action["f"][(0, 0)][(1, 0)] = Fraction(99)
    assert m.action["f"][(0, 0)][(1, 0)] == Fraction(-3, 2)


def test_perturbed_spec_changes_table_and_fails_brackets():
    """Negative control: f(E2) = 2*E1*E2 instead of E1*E2."""
    E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
    bad = Sl2ActionSpec(E_RING, dict(BASE_SPEC.e_images),
                        {**BASE_SPEC.f_images, "E2": 2 * E1 * E2},
                        dict(BASE_SPEC.h_weights))
    good = _poly_module(12)
    m = TruncatedModule(E_RING, bad, good.basis, 12, name="perturbed")
    assert m.action["f"] != good.action["f"]
    assert m.action["f"] == oracle_tables(m)[0]["f"]
    assert bracket_check(good)
    assert not bracket_check(m)
