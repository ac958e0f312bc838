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
    _numerators,
    verify_claim,
    zuckerman,
)
from dottedtl.ring import E_RING, GradedPoly
from dottedtl.sl2 import (
    BASE_SPEC,
    GENERATORS,
    Sl2ActionSpec,
    TwistData,
    add_term,
)
from test_lasagna import b2s2_module, minus_block, walk_steps
from test_sl2 import leibniz_apply


# -- module invariant oracles ------------------------------------------------

def bracket_check(m: TruncatedModule) -> bool:
    """(e f - f e)(x) = h(x) on every basis vector whose f and e-f images
    stay inside the truncation, on numerators over den_e * den_f."""
    scale = m.tables["e"][0] * m.tables["f"][0]
    for k in m.basis:
        vec = {k: 1}
        if m.lossy("f", vec):
            continue
        ev = m._step("e", vec)
        if m.lossy("f", ev):
            continue
        lhs = m._step("e", m._step("f", vec))
        for k2, c in m._step("f", ev).items():
            add_term(lhs, k2, -c)
        want = {k: m.weights[k] * scale} if m.weights[k] else {}
        if lhs != want:
            return False
    return True


def action_view(m: TruncatedModule) -> dict:
    """The module's tables as {g: {key: {key2: Fraction}}}."""
    return {g: {k: {k2: Fraction(c, den) for k2, c in col.items()}
                for k, col in table.items()}
            for g, (den, table) in m.tables.items()}


def ef_string_check(m: TruncatedModule, vec: dict, lam: int,
                    k_max: int = 6) -> bool:
    """e f^k (v) = k(lam - k + 1) f^(k-1)(v) for a HWV v of weight lam.
    With P the numerators of f^(k-1)(v), the check is
    E F P = k(lam - k + 1) den_e den_f P on the tables' numerators."""
    scale = m.tables["e"][0] * m.tables["f"][0]
    prev = _numerators(vec)[1]
    for k in range(1, k_max + 1):
        if m.lossy("f", prev):
            return True
        cur = m._step("f", prev)
        c = k * (lam - k + 1) * scale
        want = {kk: c * n for kk, n in prev.items()} if c else {}
        if m._step("e", cur) != want:
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
    """A highest-weight vector that is no f-eigenvector is walked, and a
    walk the truncation cuts short is reported: A1^3 A0^-3, of weight 6,
    in minus_block(0, 6).  The generator 1 of the weight-6 twist (a = -3)
    at depth 4 is an f-eigenvector: walking it to f^7 = 0 needs depth 14,
    but the closed form classifies it."""
    m = _poly_module(4, twist=ModuleTwist(6))
    assert m.twist.a == Fraction(-3)
    with pytest.raises(RepError, match="too shallow"):
        walked_kind(m, {(0, 0): Fraction(1)}, 6)
    assert m.classify_cyclic({(0, 0): Fraction(1)}, 6) == "L"
    blk = minus_block(0, 6)
    [v] = blk.highest_weight_vectors(6)
    assert blk.f_as_base and not blk._f_eigen(_numerators(v)[1], 6)
    with pytest.raises(RepError, match="too shallow"):
        blk.classify_cyclic(v, 6)


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
    lambda: lasagna.twisted_block(3, 16, "twisted"),
    lambda: lasagna.twisted_block(-5, 12, "twisted"),
    lambda: minus_block(-1, 12),
    lambda: b2s2_module(8, "plus"),
], ids=["twisted-a<0", "twisted-a>0-shift<0", "minus-block", "b2s2-plus"])


@MODULES
def test_tables_match_leibniz_oracle(module):
    m = module()
    want, loss = oracle_tables(m)
    assert _items(action_view(m)) == _items(want)
    assert m.boundary_loss == loss
    assert all(type(c) is Fraction for table in action_view(m).values()
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
    view = action_view(m)
    rng = random.Random(7)
    for _ in range(25):
        keys = rng.sample(m.basis, min(5, len(m.basis)))
        vec = {k: Fraction(rng.choice([-7, -2, 1, 3, 5]), rng.randint(1, 6))
               for k in keys}
        for g in GENERATORS:
            want = {}
            for k, c in vec.items():
                for k2, a in view[g].get(k, {}).items():
                    want[k2] = want.get(k2, 0) + c * a
            got = m.apply(g, vec)
            assert got == {k: c for k, c in want.items() if c}
            assert all(type(c) is Fraction for c in got.values())


def test_perturbed_spec_changes_table_and_fails_brackets():
    """Negative control: f(E2) = 2*E1*E2 instead of E1*E2."""
    E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
    bad = Sl2ActionSpec(E_RING, dict(BASE_SPEC.e_images),
                        {**BASE_SPEC.f_images, "E2": 2 * E1 * E2},
                        dict(BASE_SPEC.h_weights))
    good = _poly_module(12)
    m = TruncatedModule(bad, good.basis, 12, name="perturbed")
    assert action_view(m)["f"] != action_view(good)["f"]
    assert action_view(m)["f"] == oracle_tables(m)[0]["f"]
    assert bracket_check(good)
    assert not bracket_check(m)


# -- the twist step against the one-pass twisted construction -----------------

def one_pass_twisted(spec, keys, twist):
    """(tables, boundary_loss, weights) of the twisted module built in one
    pass: each column is the spec's kernel image of its key plus the key
    times TwistData(a).tau(g), over den, the lcm of the spec's and the
    twist's denominators, and a key whose image has a term outside the
    basis is a loss; each table is then divided by its content.  This is
    the construction the twist step replaced."""
    basis = sorted(keys)
    index = {k: i for i, k in enumerate(basis)}
    tables, losses = {}, {}
    for g in GENERATORS:
        tau = TwistData(twist.a).tau(g).terms
        sden = spec.den[g]
        den = lcm(sden, *(c.denominator for c in tau.values()))
        terms = [(exp, c.numerator * (den // c.denominator))
                 for exp, c in tau.items()]
        table, loss = {}, set()
        for k in basis:
            img = spec.derive_monomial(g, k, den // sden, {})
            for exp, c in terms:
                add_term(img, tuple(map(add, k, exp)), c)
            col = {}
            for ke, c in img.items():
                if ke in index:
                    col[ke] = c
                else:
                    loss.add(k)
            if col:
                table[k] = col
        content = gcd(den, *(c for col in table.values()
                             for c in col.values()))
        tables[g] = (den // content,
                     {k: {k2: c // content for k2, c in col.items()}
                      for k, col in table.items()})
        losses[g] = loss
    weights = {k: spec.weight_of_monomial(k) + twist.shift for k in basis}
    return tables, losses, weights


def _ordered(tables):
    """The tables with the dict order of every table and column."""
    return {g: (den, [(k, list(col.items())) for k, col in table.items()])
            for g, (den, table) in tables.items()}


def twist_mismatches(m, oracle):
    """The parts of m that differ from the one-pass construction."""
    tables, losses, weights = oracle
    parts = [("tables", _ordered(m.tables), _ordered(tables)),
             ("boundary_loss", m.boundary_loss, losses),
             ("weights", list(m.weights.items()), list(weights.items()))]
    return [name for name, got, want in parts if got != want]


@pytest.mark.parametrize("depth", [12, 20, 40])
def test_twist_step_matches_one_pass_construction(depth):
    """For w in -12..12, the twist of the cached untwisted block equals the
    one-pass construction: tables in dict order, boundary losses, weights."""
    lasagna._base_block.cache_clear()
    keys = lasagna._poly_keys(depth)
    for w in range(-12, 13):
        m = lasagna.twisted_block(w, depth, f"twisted[w={w}]")
        oracle = one_pass_twisted(BASE_SPEC, keys, ModuleTwist(w))
        assert twist_mismatches(m, oracle) == [], w
        assert m.tables["e"] is lasagna._base_block(depth).tables["e"]
    lasagna._base_block.cache_clear()


def test_twist_term_cancels_an_escaped_term():
    """At depth 12, f(E2^3) = 3 E1 E2^3 escapes the basis, and the weight-6
    twist adds -3 E1 E2^3: E2^3 is a loss of the untwisted block only.  A
    twist step that keeps the source's losses instead of deciding on the
    full image fails the comparison with the one-pass construction."""
    base = _poly_module(12)
    m = base.twisted(ModuleTwist(6), "twisted")
    oracle = one_pass_twisted(BASE_SPEC, base.basis, ModuleTwist(6))
    assert (0, 3) in base.boundary_loss["f"]
    assert (0, 3) not in m.boundary_loss["f"]
    assert twist_mismatches(m, oracle) == []
    m.boundary_loss = {**m.boundary_loss,
                       "f": m.boundary_loss["f"] | base.boundary_loss["f"]}
    assert twist_mismatches(m, oracle) == ["boundary_loss"]


def test_twist_of_a_twisted_module_is_refused():
    m = _poly_module(8, twist=ModuleTwist(2))
    with pytest.raises(RepError, match="already twisted"):
        m.twisted(ModuleTwist(2), "twice")


def test_h_tables_are_written_from_the_weights(monkeypatch):
    """Operation-count gate: a build and a twist derive no h-column, and h
    loses nothing at the boundary; the oracles above check the tables."""
    derived = []
    real = Sl2ActionSpec.derive_monomial

    def counted(self, g, exp, c, out):
        derived.append(g)
        return real(self, g, exp, c, out)

    monkeypatch.setattr(Sl2ActionSpec, "derive_monomial", counted)
    lasagna._base_block.cache_clear()
    modules = [minus_block(-1, 12), lasagna.twisted_block(6, 16, "t")]
    lasagna._base_block.cache_clear()
    assert set(derived) == {"e", "f"}
    for m in modules:
        assert m.boundary_loss["h"] == set()
        assert m.tables["h"] == (1, {k: {k: w} for k, w in m.weights.items()
                                     if w})


# -- the closed form against the f-string walk --------------------------------

def walked_kind(m, vec, lam):
    """Oracle: the f-string walk that classified every highest-weight
    vector before the closed form, on the truncated tables: L or M, or
    RepError where the truncation is too shallow or the string ends."""
    ivec = _numerators(vec)[1]
    if lam >= 0:
        img, done = m.iterate_f(ivec, lam + 1)
        if done < lam + 1:
            raise RepError("truncation too shallow")
        return "L" if not img else "M"
    while not m.lossy("f", ivec):
        ivec = m._step("f", ivec)
        if not ivec:
            raise RepError("f-string terminated")
    return "M"


def closed_form_agrees_with_the_walk(m, w) -> int:
    """Every generator of block_claim(w, m.depth) and every highest-weight
    vector zuckerman classifies in m is an f-eigenvector, and classify_cyclic
    reads its kind off the closed form; where the walk reaches a verdict,
    the two kinds agree.  Returns the number of such verdicts."""
    vectors = [(p.generator, p.lam)
               for p in lasagna.block_claim(w, m.depth).parts]
    vectors += [(v, lam) for lam in sorted({x for x in m.weights.values()
                                             if x >= 0})
                for v in m.highest_weight_vectors(lam)]
    decided = 0
    for v, lam in vectors:
        assert m._f_eigen(_numerators(v)[1], lam), (m.name, lam)
        kind = m.classify_cyclic(v, lam)
        try:
            walked = walked_kind(m, v, lam)
        except RepError:
            continue
        assert kind == walked, (m.name, lam)
        decided += 1
    return decided


@pytest.mark.parametrize("depth", [12, 20, 40])
def test_closed_form_kind_is_the_walked_kind_on_the_ball(monkeypatch, depth):
    calls = walk_steps(monkeypatch)[0]
    m = lasagna.b4_module(depth)
    assert m.f_as_base and closed_form_agrees_with_the_walk(m, 0) > depth // 4
    assert calls and all(n == 0 for _, n in calls)


def test_closed_form_kind_is_the_walked_kind_on_twisted_blocks(monkeypatch):
    """twisted_block(w, max(20, 2w + 4)) for w in -12..12, the models of
    every plus block and minus filtration layer of summary_report(20)."""
    calls = walk_steps(monkeypatch)[0]
    for w in range(-12, 13):
        m = lasagna.twisted_block(w, max(20, 2 * w + 4), f"twisted[w={w}]")
        assert closed_form_agrees_with_the_walk(m, w) > 0, w
    assert calls and all(n == 0 for _, n in calls)


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


def _delta_in_the_ball():
    return _poly_module(12), {(0, 1): Fraction(4), (2, 0): Fraction(-1)}, -4


def _one_in_a_block_of(spec):
    return (TruncatedModule(spec, lasagna._poly_keys(12), 12),
            {(0, 0): Fraction(1)}, 0)


# name: (patch, the module, vector and weight it acts on, and the condition
# of the shortcut the patch must break: the eigenvector test, f_as_base
# or the certificate)
NEGATIVE_CONTROLS = {
    "twist a off by 1/2": (
        _twist_a_off_by_a_half,
        lambda: (lasagna.twisted_block(2, 20, "twisted"),
                 {(0, 0): Fraction(1)}, 2),
        lambda m, v, lam: m._f_eigen(_numerators(v)[1], lam)),
    "module spec f(E2) changed": (
        lambda monkeypatch: monkeypatch.setattr(
            lasagna, "BASE_SPEC", _f_e2_changed(BASE_SPEC)),
        lambda: _one_in_a_block_of(lasagna.BASE_SPEC),
        lambda m, v, lam: m.f_as_base),
    "BASE_SPEC f(E2) changed": (
        lambda monkeypatch: monkeypatch.setattr(
            rep, "BASE_SPEC", _f_e2_changed(BASE_SPEC)),
        lambda: _one_in_a_block_of(rep.BASE_SPEC),
        lambda m, v, lam: rep.f_string_certificate()),
    "closed form sign flipped": (
        _closed_form_sign_flipped, _delta_in_the_ball,
        lambda m, v, lam: rep.f_string_certificate()),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_negative_control_sends_the_vector_to_the_walk(
        monkeypatch, fresh_certificate, name):
    """Each control changes the outcome: without it the vector is read off
    the closed form, with no f-step; with it one condition of the shortcut
    fails, and the walk decides.  In "module spec f(E2) changed" the
    module is built from a spec whose f(E2) differs from BASE_SPEC's, and
    in "BASE_SPEC f(E2) changed" from BASE_SPEC after that change, so only
    the certificate, read off BASE_SPEC, refuses the shortcut."""
    patch, make, condition = NEGATIVE_CONTROLS[name]
    calls = walk_steps(monkeypatch)[0]
    m, v, lam = make()
    m.classify_cyclic(v, lam)
    assert m.f_as_base and m._f_eigen(_numerators(v)[1], lam)
    assert rep.f_string_certificate() and calls == [(lam, 0)]
    rep.f_string_certificate.cache_clear()
    patch(monkeypatch)
    m, v, lam = make()
    assert not condition(m, v, lam)
    try:
        m.classify_cyclic(v, lam)
    except RepError:
        pass
    assert len(calls) == 2 and calls[1][1] > 0
