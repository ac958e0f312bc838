"""Truncated module machinery: weights, HWVs, classification, claims."""

import random
from fractions import Fraction
from math import gcd, lcm
from operator import add

import pytest

from dottedtl import lasagna, rep
from dottedtl.rep import (
    ClaimPart,
    DecompositionClaim,
    ModuleTwist,
    RepError,
    TruncatedModule,
    verify_claim,
    zuckerman,
)
from dottedtl.ring import E_RING, GradedPoly, numerators
from dottedtl.sl2 import (
    BASE_SPEC,
    Sl2ActionSpec,
    TwistData,
    add_term,
)
from test_lasagna import b2s2_module, f_derivations, f_exact, minus_block
from test_sl2 import leibniz_apply


# -- module invariant oracles ------------------------------------------------

def e_exact(m: TruncatedModule, vec: dict) -> dict:
    """e(vec) in the untruncated module, as Fractions: the spec's
    derivation of vec's numerators (a twist adds nothing to e)."""
    den, ivec = numerators(vec)
    return {k: Fraction(c, den * m.spec.den["e"])
            for k, c in m.spec.derive("e", ivec).items()}


def bracket_check(m: TruncatedModule) -> bool:
    """(e f - f e)(x) = h(x) on every basis vector x, with e(x) and h(x)
    from the module's tables and f read exactly; e of f(x), which may leave
    the basis, is the spec's."""
    for k in m.basis:
        vec = {k: Fraction(1)}
        lhs = e_exact(m, f_exact(m, vec))
        for k2, c in f_exact(m, m.apply("e", vec)).items():
            add_term(lhs, k2, -c)
        if lhs != m.apply("h", vec):
            return False
    return True


def action_view(m: TruncatedModule) -> dict:
    """The module's tables as {g: {key: {key2: Fraction}}}."""
    return {g: {k: {k2: Fraction(c, den) for k2, c in col.items()}
                for k, col in table.items()}
            for g, (den, table) in m.tables.items()}


def ef_string_check(m: TruncatedModule, vec: dict, lam: int,
                    k_max: int = 6) -> bool:
    """e f^k (v) = k(lam - k + 1) f^(k-1)(v) for a HWV v of weight lam,
    f and e read exactly, with no truncation."""
    prev = vec
    for k in range(1, k_max + 1):
        cur = f_exact(m, prev)
        c = k * (lam - k + 1)
        if e_exact(m, cur) != ({kk: c * n for kk, n in prev.items()}
                               if c else {}):
            return False
        prev = cur
    return True


def _poly_module(depth, twist=None):
    keys = [
        (a, b)
        for a in range(depth // 2 + 1)
        for b in range(depth // 4 + 1)
        if 2 * a + 4 * b <= depth
    ]
    m = TruncatedModule(BASE_SPEC, keys, depth, name="test")
    return m if twist is None else m.twisted(twist, "test")


def test_weights_match_degrees():
    m = _poly_module(12)
    for (a, b) in m.basis:
        assert m.weights[(a, b)] == -(2 * a + 4 * b)


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


def test_key_set_not_closed_under_e_has_no_false_hwv():
    """e's columns hold each basis key's full image, so a key set that e
    leaves reports no false highest-weight vector: on the basis {E1},
    e(E1) = -2 is kept, and no minus block at depth 12 or 20 has one (a
    table truncated to the basis finds 15 in each block at depth 20)."""
    m = TruncatedModule(BASE_SPEC, [(1, 0)], 2)
    assert m.apply("e", {(1, 0): Fraction(1)}) == {(0, 0): Fraction(-2)}
    assert m.highest_weight_vectors(-2) == []
    for depth in (12, 20):
        for ell in lasagna.MINUS_ELLS:
            blk = minus_block(ell, depth)
            assert not any(blk.highest_weight_vectors(lam)
                           for lam in set(blk.weights.values())), (ell, depth)


def test_shallow_truncation_is_reported():
    """A truncation too shallow for the dual-Verma witness is reported.  The
    generator 1 of the weight-6 twist (a = -3) is classified L off the
    closed form at any depth, depth 4 included; f^6(1) is a multiple of
    E2^3, of degree 12, and its witness of weight -8 has degree 14.  Below
    depth 12 the witness fails as too shallow, at 12 no vector of weight
    -8 is left, and from 2w + 2 = 14 on it passes."""
    m = _poly_module(4, twist=ModuleTwist(6))
    assert m.twist.a == Fraction(-3)
    assert m.classify_cyclic({(0, 0): Fraction(1)}, 6) == "L"
    for depth, detail in ((11, "truncation too shallow"), (12, None),
                          (14, {"witness_weight": -8})):
        report = verify_claim(lasagna.twisted_block(6, depth, "t"),
                              lasagna.block_claim(6, depth))
        [witness] = [c for c in report["checks"]
                     if c["check"] == "Mdual(6) extension witness"]
        assert witness.get("detail") == detail, depth
        assert report["ok"] is (witness["status"] == "pass") \
            is (depth == 14), depth


def test_bracket_and_ef_string():
    m = _poly_module(12)
    assert bracket_check(m)
    assert ef_string_check(m, {(0, 0): Fraction(1)}, 0)


@pytest.mark.parametrize("w", range(-6, 7))
def test_twisted_blocks_are_sl2_modules(w):
    """[e, f] = h on the weight-w twisted block: a = -w/2 is the one twist
    that keeps it an sl2-module."""
    m = lasagna.twisted_block(w, 16, f"block[{w}]")
    assert (m.twist.shift, m.twist.a) == (w, Fraction(-w, 2))
    assert bracket_check(m)
    assert m.weights[(0, 0)] == w


def test_twist_changes_weights():
    m = _poly_module(8, twist=ModuleTwist(-2))
    assert m.weights[(0, 0)] == -2
    fv = f_exact(m, {(0, 0): Fraction(1)})
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
    """m's e- and h-tables rebuilt with one GradedPoly per basis key: each
    column the full image, the spec applied by the Leibniz oracle and h's
    twist term added as a polynomial."""
    action = {}
    for g in ("e", "h"):
        table = {}
        for k in m.basis:
            mono = GradedPoly(m.ring, {k: Fraction(1)})
            img = leibniz_apply(m.spec, g, mono)
            if m.twist and g == "h":
                img = img + Fraction(m.twist.shift) * mono
            if img.terms:
                table[k] = dict(img.terms)
        action[g] = table
    return action


def _items(action):
    return {g: [(k, list(col.items())) for k, col in table.items()]
            for g, table in action.items()}


MODULES = pytest.mark.parametrize("module", [
    lambda: lasagna.twisted_block(3, 16, "twisted"),
    lambda: lasagna.twisted_block(-5, 12, "twisted"),
    lambda: minus_block(-1, 12),
    lambda: b2s2_module(8, "plus"),
], ids=["twisted-a<0", "twisted-a>0-shift<0", "minus-block", "b2s2-plus"])


@MODULES
def test_tables_match_leibniz_oracle(module):
    m = module()
    assert _items(action_view(m)) == _items(oracle_tables(m))
    assert all(type(c) is Fraction for table in action_view(m).values()
               for col in table.values() for c in col.values())
    # the stored tables are canonical: int numerators, none zero, over a
    # positive denominator coprime to them
    for den, table in m.tables.values():
        nums = [c for col in table.values() for c in col.values()]
        assert all(type(c) is int and c for c in nums)
        assert den > 0 and gcd(den, *nums) == 1


@MODULES
def test_apply_matches_the_fraction_view(module):
    """apply on int numerators equals the product with the Fraction view of
    the tables, on seeded random vectors."""
    m = module()
    view = action_view(m)
    rng = random.Random(7)
    for _ in range(25):
        keys = rng.sample(m.basis, min(5, len(m.basis)))
        vec = {k: Fraction(rng.choice([-7, -2, 1, 3, 5]), rng.randint(1, 6))
               for k in keys}
        for g in m.tables:
            want = {}
            for k, c in vec.items():
                for k2, a in view[g].get(k, {}).items():
                    want[k2] = want.get(k2, 0) + c * a
            got = m.apply(g, vec)
            assert got == {k: c for k, c in want.items() if c}
            assert all(type(c) is Fraction for c in got.values())


def test_perturbed_spec_changes_table_and_fails_brackets():
    """Negative controls: e(E2) = -2*E1 instead of -E1 changes e's table,
    and f(E2) = 2*E1*E2 instead of E1*E2, stored in no table, changes f as
    read off the spec; each fails the brackets."""
    E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
    good = _poly_module(12)
    bad_e = TruncatedModule(Sl2ActionSpec(
        E_RING, {**BASE_SPEC.e_images, "E2": -2 * E1},
        dict(BASE_SPEC.f_images), dict(BASE_SPEC.h_weights)),
        good.basis, 12, name="perturbed")
    assert action_view(bad_e)["e"] != action_view(good)["e"]
    assert action_view(bad_e) == oracle_tables(bad_e)
    bad_f = TruncatedModule(Sl2ActionSpec(
        E_RING, dict(BASE_SPEC.e_images),
        {**BASE_SPEC.f_images, "E2": 2 * E1 * E2},
        dict(BASE_SPEC.h_weights)), good.basis, 12, name="perturbed")
    e2 = {(0, 1): Fraction(1)}
    assert f_exact(bad_f, e2) != f_exact(good, e2)
    assert bracket_check(good)
    assert not bracket_check(bad_e) and not bracket_check(bad_f)


# -- the twist step against the one-pass twisted construction -----------------

def one_pass_twisted(spec, keys, twist):
    """(tables, weights) of the twisted module built in one pass: each e-
    and h-column is the spec's kernel image of its key plus the key times
    TwistData(a).tau(g), over den, the lcm of the spec's and the twist's
    denominators, divided by the table's content."""
    tables = {}
    for g in ("e", "h"):
        tau = TwistData(twist.a).tau(g).terms
        sden = spec.den[g]
        den = lcm(sden, *(c.denominator for c in tau.values()))
        table = {}
        for k in sorted(keys):
            img = spec.derive_monomial(g, k, den // sden, {})
            for exp, c in tau.items():
                add_term(img, tuple(map(add, k, exp)),
                         c.numerator * (den // c.denominator))
            if img:
                table[k] = img
        content = gcd(den, *(c for col in table.values()
                             for c in col.values()))
        tables[g] = (den // content,
                     {k: {k2: c // content for k2, c in col.items()}
                      for k, col in table.items()})
    weights = {k: spec.weight_of_monomial(k) + twist.shift
               for k in sorted(keys)}
    return tables, weights


def _ordered(tables):
    """The tables with the dict order of every table and column."""
    return {g: (den, [(k, list(col.items())) for k, col in table.items()])
            for g, (den, table) in tables.items()}


def twist_mismatches(m, oracle):
    """The parts of m that differ from the one-pass construction."""
    tables, weights = oracle
    parts = [("tables", _ordered(m.tables), _ordered(tables)),
             ("weights", list(m.weights.items()), list(weights.items()))]
    return [name for name, got, want in parts if got != want]


@pytest.mark.parametrize("depth", [12, 20, 40])
def test_twist_step_matches_one_pass_construction(depth):
    """For w in -12..12, the twist of the cached untwisted block equals the
    one-pass construction: tables in dict order and weights."""
    lasagna._base_block.cache_clear()
    keys = lasagna._poly_keys(depth)
    for w in range(-12, 13):
        m = lasagna.twisted_block(w, depth, f"twisted[w={w}]")
        oracle = one_pass_twisted(BASE_SPEC, keys, ModuleTwist(w))
        assert twist_mismatches(m, oracle) == [], w
        assert m.tables["e"] is lasagna._base_block(depth).tables["e"]
    lasagna._base_block.cache_clear()


def test_twist_of_a_twisted_module_is_refused():
    m = _poly_module(8, twist=ModuleTwist(2))
    with pytest.raises(RepError, match="already twisted"):
        m.twisted(ModuleTwist(2), "twice")


def test_h_tables_are_written_from_the_weights(monkeypatch):
    """Operation-count gate: a build and a twist derive no h-column and no
    f-column; the oracles above check the tables."""
    derived = []
    real = Sl2ActionSpec.derive_monomial

    def counted(self, g, exp, c, out):
        derived.append(g)
        return real(self, g, exp, c, out)

    monkeypatch.setattr(Sl2ActionSpec, "derive_monomial", counted)
    lasagna._base_block.cache_clear()
    modules = [minus_block(-1, 12), lasagna.twisted_block(6, 16, "t")]
    lasagna._base_block.cache_clear()
    assert set(derived) == {"e"}
    for m in modules:
        assert m.tables["h"] == (1, {k: {k: w} for k, w in m.weights.items()
                                     if w})


# -- the closed form against the exact f-string walk --------------------------

def f_power(m, vec, r):
    """f^r(vec), f read exactly."""
    for _ in range(r):
        vec = f_exact(m, vec)
    return vec


def walked_kind(m, vec, lam, steps=4):
    """Oracle: the kind by the exact f-string walk, with no truncation: for
    lam >= 0, L iff f^(lam+1)(vec) = 0; for lam < 0, M while f^steps(vec)
    is nonzero, and RepError if the string ends there."""
    if lam >= 0:
        return "M" if f_power(m, vec, lam + 1) else "L"
    if not f_power(m, vec, steps):
        raise RepError("f-string terminated")
    return "M"


def closed_form_agrees_with_the_walk(m, w) -> int:
    """Every generator of block_claim(w, m.depth) and every highest-weight
    vector zuckerman classifies in m is an f-eigenvector, and classify_cyclic
    reads its kind off the closed form; the exact walk finds the same kind.
    Returns the number of vectors compared."""
    vectors = [(p.generator, p.lam)
               for p in lasagna.block_claim(w, m.depth).parts]
    vectors += [(v, lam) for lam in sorted({x for x in m.weights.values()
                                             if x >= 0})
                for v in m.highest_weight_vectors(lam)]
    for v, lam in vectors:
        assert m._f_eigen(numerators(v)[1], lam), (m.name, lam)
        assert m.classify_cyclic(v, lam) == walked_kind(m, v, lam), \
            (m.name, lam)
    return len(vectors)


@pytest.mark.parametrize("depth", [12, 20, 40])
def test_closed_form_kind_is_the_walked_kind_on_the_ball(monkeypatch, depth):
    calls = f_derivations(monkeypatch)[0]
    m = lasagna.b4_module(depth)
    assert m.f_as_base and closed_form_agrees_with_the_walk(m, 0) > depth // 4
    assert calls and all(n == 1 for _, n in calls)


def test_closed_form_kind_is_the_walked_kind_on_twisted_blocks(monkeypatch):
    """twisted_block(w, max(20, 2w + 4)) for w in -12..12, the models of
    every plus block and minus filtration layer of summary_report(20)."""
    calls = f_derivations(monkeypatch)[0]
    for w in range(-12, 13):
        m = lasagna.twisted_block(w, max(20, 2 * w + 4), f"twisted[w={w}]")
        assert closed_form_agrees_with_the_walk(m, w) > 0, w
    assert calls and all(n == 1 for _, n in calls)


def _witness_modules():
    for w in range(0, 13, 2):
        yield lasagna.twisted_block(w, max(20, 2 * w + 4), f"t[{w}]"), w
    for depth in (12, 20, 40):
        yield lasagna.b4_module(depth), 0


def test_witness_target_is_a_multiple_of_the_walked_f_power():
    """Oracle of the dual-Verma witness: for every Mdual generator v of
    weight lam of block_claim on the twisted models of even weight 0..12
    and on the ball at depths 12, 20 and 40, the witness target, v's
    numerators times E2^(lam/2), is a nonzero multiple of f^lam(v) from the
    exact walk."""
    seen = 0
    for m, w in _witness_modules():
        for p in lasagna.block_claim(w, m.depth).parts:
            if p.kind != "Mdual":
                continue
            got = rep._f_power_multiple(m, numerators(p.generator)[1],
                                        p.lam)
            want = f_power(m, p.generator, p.lam)
            ratios = {want.get(k, 0) / c for k, c in got.items()}
            assert got and want.keys() == got.keys() and len(ratios) == 1 \
                and 0 not in ratios, (m.name, p.lam)
            seen += 1
    assert seen == sum(1 + w // 4 for w in range(0, 13, 2)) + 3


@pytest.fixture
def fresh_certificate():
    """f_string_certificate is read once per process: the controls below
    read it afresh under their patch, and leave no verdict behind."""
    rep.f_string_certificate.cache_clear()
    yield
    rep.f_string_certificate.cache_clear()


def _twist_a_off_by_a_half(monkeypatch):
    monkeypatch.setattr(ModuleTwist, "a", property(
        lambda self: Fraction(1 - self.shift, 2)))


def _f_e2_changed(spec):
    E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
    return Sl2ActionSpec(E_RING, spec.e_images,
                         {**spec.f_images, "E2": 2 * E1 * E2}, spec.h_weights)


def _closed_form_sign_flipped(monkeypatch):
    real = rep._closed_form_coefficient
    monkeypatch.setattr(rep, "_closed_form_coefficient", lambda k, a, g: (
        -1 if (k, a) == (1, 1) else 1) * real(k, a, g))


def _block_of(spec):
    return TruncatedModule(spec, lasagna._poly_keys(12), 12), 0


# name: (patch, the module and the weight w of its block_claim, and the
# condition of the classification the patch must break: the eigenvector
# test, f_as_base or the certificate)
NEGATIVE_CONTROLS = {
    "twist a off by 1/2": (
        _twist_a_off_by_a_half,
        lambda: (lasagna.twisted_block(2, 20, "twisted"), 2),
        lambda m, v, lam: m._f_eigen(numerators(v)[1], lam)),
    "module spec f(E2) changed": (
        lambda monkeypatch: monkeypatch.setattr(
            lasagna, "BASE_SPEC", _f_e2_changed(BASE_SPEC)),
        lambda: _block_of(lasagna.BASE_SPEC),
        lambda m, v, lam: m.f_as_base),
    "BASE_SPEC f(E2) changed": (
        lambda monkeypatch: monkeypatch.setattr(
            rep, "BASE_SPEC", _f_e2_changed(BASE_SPEC)),
        lambda: _block_of(rep.BASE_SPEC),
        lambda m, v, lam: rep.f_string_certificate()),
    "closed form sign flipped": (
        _closed_form_sign_flipped, lambda: (_poly_module(12), 0),
        lambda m, v, lam: rep.f_string_certificate()),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_negative_control_refuses_the_classification(
        monkeypatch, fresh_certificate, name):
    """Each control changes the outcome: without it block_claim holds, its
    generators read off the closed form; with it one condition of the
    closed form fails, classify_cyclic refuses every generator, and
    exactly the claim's classification checks fail.  In "module spec
    f(E2) changed" the module is built from a spec whose f(E2) differs from
    BASE_SPEC's, and in "BASE_SPEC f(E2) changed" from BASE_SPEC after that
    change, so only the certificate, read off BASE_SPEC, refuses it."""
    patch, make, condition = NEGATIVE_CONTROLS[name]
    m, w = make()
    claim = lasagna.block_claim(w, m.depth)
    v, lam = claim.parts[0].generator, w
    assert m.classify_cyclic(v, lam) == ("L" if w >= 0 else "M")
    assert condition(m, v, lam) and verify_claim(m, claim)["ok"]
    rep.f_string_certificate.cache_clear()
    patch(monkeypatch)
    m, w = make()
    assert not condition(m, v, lam)
    with pytest.raises(RepError):
        m.classify_cyclic(v, lam)
    report = verify_claim(m, claim)
    failed = [c["check"] for c in report["checks"] if c["status"] == "fail"]
    assert not report["ok"] and failed == [
        f"{p.kind}({p.lam}) "
        + ("socle classification" if p.kind == "Mdual" else "classification")
        for p in claim.parts]
