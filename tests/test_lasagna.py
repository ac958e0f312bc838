"""Invariant-module decompositions for the two four-manifolds."""

import copy
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from dottedtl import exactla, lasagna, rep, sl2
from dottedtl.ring import (E_RING, LASAGNA_RING, GradedPoly, delta, mul_terms,
                          numerators)
from dottedtl.sl2 import GENERATORS, LASAGNA_SPEC, Sl2ActionSpec, add_term

CACHES = (lasagna._twisted_verdict, lasagna._base_block, lasagna._delta_power,
          lasagna._twist_generators, rep.f_string_certificate)


@pytest.fixture(autouse=True)
def fresh_verdicts():
    """The twisted verdicts, the untwisted blocks, the powers of delta, the
    generator reads and the f-string certificate are shared per process;
    each test starts and ends with empty tables, so no test reads a verdict
    or a module made under another test's monkeypatch, and the
    operation-count gates see every build."""
    for cache in CACHES:
        cache.cache_clear()
    yield
    for cache in CACHES:
        cache.cache_clear()


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


def test_twisted_blocks_have_one_highest_weight_line_per_discriminant_power():
    """ker e is Q[delta] in twisted_block(w) for every w, odd ones too: at
    depth 2|w| + 8 there is exactly one highest-weight line at each weight
    w - 4j of the truncation, spanned by delta^j, and none at any other
    weight."""
    for w in range(-9, 10):
        depth = 2 * abs(w) + 8
        m = lasagna.twisted_block(w, depth, f"twisted[w={w}]")
        lines = {}
        for lam in sorted(set(m.weights.values())):
            vs = m.highest_weight_vectors(lam)
            if vs:
                lines[lam] = vs
        assert sorted(lines, reverse=True) == [
            w - 4 * j for j in range(depth // 4 + 1)], w
        for lam, vs in lines.items():
            want = (delta() ** ((w - lam) // 4)).terms
            assert len(vs) == 1 and set(vs[0]) == set(want), (w, lam)
            assert len({Fraction(c) / want[k] for k, c in vs[0].items()}) \
                == 1, (w, lam)


def _spec(e=None, f=None, h=None):
    """LASAGNA_SPEC with the given e- and f-images and h-weights replaced."""
    spec = LASAGNA_SPEC
    return Sl2ActionSpec(spec.ring, {**spec.e_images, **(e or {})},
                         {**spec.f_images, **(f or {})},
                         {**spec.h_weights, **(h or {})})


A1_F = LASAGNA_SPEC.f_images["A1"]          # f(A1) = -E1*A1/2


def v_poly():
    """v = A0 - E1*A1/2."""
    ring = LASAGNA_RING
    return ring.gen("A0") - Fraction(1, 2) * ring.gen("E1") * ring.gen("A1")


def vbasis_element(j, m, n):
    """delta^j * A1^m * v^n expanded in the monomial basis."""
    return (delta(LASAGNA_RING) ** j * LASAGNA_RING.gen("A1", m)
            * v_poly() ** n)


# -- test oracles: the v-basis grid and the modules the certificates replace --

def scaled(vec: dict, c) -> dict:
    return {k: c * n for k, n in vec.items()} if c else {}


def vbasis(j_max: int, mn_max: int) -> dict:
    """{(j, m, n): delta^j A1^m v^n up to a positive constant, as an int
    vector} for j <= j_max and m, n <= mn_max, with v = A0 - E1*A1/2 and
    each v^n made once, as (2v)^n."""
    lkey = lasagna._lkey
    vn = [{lkey(): 1}]
    for _ in range(mn_max):
        vn.append(mul_terms(vn[-1], {lkey(i=1): 2, lkey(a=1, m=1): -1}))
    dj = [{lkey(a, b): c.numerator
           for (a, b), c in lasagna._delta_power(j).terms.items()}
          for j in range(j_max + 1)]
    return {(j, m, n): mul_terms(mul_terms(dj[j], vn[n]), {lkey(m=m): 1})
            for j, m, n in product(range(j_max + 1), range(mn_max + 1),
                                   range(mn_max + 1))}


def b2s2_module(depth: int, side: str) -> rep.TruncatedModule:
    """The Laurent module truncated at depth: its plus (A0-exponent >= 0)
    or minus part."""
    keys = []
    for a, b in lasagna._poly_keys(depth):
        for m in range(depth - 2 * a - 4 * b + 1):
            rest = depth - 2 * a - 4 * b - m
            lo, hi = (0, rest) if side == "plus" else (-rest, -1)
            keys.extend(lasagna._lkey(a, b, m, i) for i in range(lo, hi + 1))
    return rep.TruncatedModule(lasagna.LASAGNA_SPEC, keys, depth,
                               name=f"disk-sphere[{side}]")


def minus_block(ell: int, depth: int) -> rep.TruncatedModule:
    """Span of A1^m A0^(-n) with m - n = ell, n >= 1, over the base ring."""
    return rep.TruncatedModule(lasagna.LASAGNA_SPEC,
                               lasagna._minus_keys(ell, depth), depth,
                               name=f"minus[{ell}]")


def block_embedding_check(m: int, n: int, x: dict) -> bool:
    """Oracle of plus_generator_certificate for one block: x = A1^m v^n, as
    vbasis gives it, acts in the Laurent module as the generator of
    twisted_block(m - n), e(x) = 0, f(x) = a E1 x and h(x) = shift x with
    a and shift those of ModuleTwist(m - n), on int vectors by the spec's
    derive, cross-multiplied."""
    spec, twist = lasagna.LASAGNA_SPEC, rep.ModuleTwist(m - n)
    a = Fraction(twist.a)
    if spec.derive("e", x):
        return False
    e1x = mul_terms(x, {lasagna._lkey(a=1): 1})
    if scaled(spec.derive("f", x), a.denominator) \
            != scaled(e1x, a.numerator * spec.den["f"]):
        return False
    return spec.derive("h", x) == scaled(x, twist.shift)


def plus_oracle() -> bool:
    return all(block_embedding_check(m, n, x)
               for (_, m, n), x in vbasis(0, 4).items())


def f_exact(m: rep.TruncatedModule, vec: dict) -> dict:
    """f(vec) in the untruncated module, as Fractions: the spec's
    derivation of vec's numerators plus the twist's twist_a E1 vec."""
    den, ivec = numerators(vec)
    out = {k: Fraction(c, den * m.spec.den["f"])
           for k, c in m.spec.derive("f", ivec).items()}
    e1 = m.ring.index["E1"]
    for k, c in vec.items():
        add_term(out, k[:e1] + (k[e1] + 1,) + k[e1 + 1:], m.twist_a * c)
    return out


def exact_image(m: rep.TruncatedModule, g: str, k) -> dict:
    """g(x^k) as Fractions for a basis key k: e and h from m's tables, which
    hold each basis key's full image, and f read exactly."""
    if g == "f":
        return f_exact(m, {k: Fraction(1)})
    den, table = m.tables[g]
    return {k2: Fraction(c, den) for k2, c in table.get(k, {}).items()}


def minus_block_split_check(depth: int) -> bool:
    """Oracle of minus_split_certificate at one depth: e, f, h keep each
    minus block ell in MINUS_ELLS inside itself.  Every term of each basis
    key's exact image keeps the block's A1 + A0 exponent ell and an
    A0-exponent <= -1, and the blocks partition the minus part with
    m - n in MINUS_ELLS."""
    a1, a0 = LASAGNA_RING.index["A1"], LASAGNA_RING.index["A0"]
    covered = set()
    for ell in lasagna.MINUS_ELLS:
        blk = minus_block(ell, depth)
        covered.update(blk.basis)
        if any(k2[a0] >= 0 or k2[a1] + k2[a0] != ell
               for g in GENERATORS for k in blk.basis
               for k2 in exact_image(blk, g, k)):
            return False
    return all(k in covered for k in b2s2_module(depth, "minus").basis
               if k[a1] + k[a0] in lasagna.MINUS_ELLS)


def test_gamma_and_generators():
    assert lasagna.gamma(0, 0, 0) == 0
    v = v_poly()
    # v = A0 - E1*A1/2 is killed by e
    assert LASAGNA_SPEC.apply("e", v).is_zero()


def test_vbasis_matches_the_expanded_elements():
    """Each grid vector is a positive multiple of delta^j A1^m v^n, the
    multiple 2^n of (2v)^n."""
    grid = vbasis(3, 4)
    assert len(grid) == 4 * 5 * 5
    for (j, m, n), x in grid.items():
        want = vbasis_element(j, m, n)
        assert {k: Fraction(c, 2 ** n) for k, c in x.items()} == want.terms


# -- the v-basis grid oracle for closed_form_certificate ----------------------

# the checked v-basis elements delta^j A1^m v^n (j, m, n < VBASIS_SIZE) and
# f-powers f^r (r <= F_POWER_MAX)
VBASIS_SIZE = 4
F_POWER_MAX = 6


def closed_form_numerators(g, r):
    """(den, {key: int}): c_r from rep._closed_form_coefficient, the sum
    of C_r(k, a) E1^k E2^a over k + 2a = r, as int numerators over den."""
    return numerators({
        lasagna._lkey(a=r - 2 * a, b=a): c for a in range(r // 2 + 1)
        if (c := Fraction(rep._closed_form_coefficient(r - 2 * a, a, g)))})


def closed_form_check():
    """Closed formula equals iterated f, f^r for r <= F_POWER_MAX, on the
    whole v-basis grid (exact, no truncation), on int numerators: f steps
    by the spec's derive over den["f"], and f^r(x) = c_r x is compared
    cross-multiplied."""
    spec = lasagna.LASAGNA_SPEC
    fden = spec.den["f"]
    for (j, m, n), x in vbasis(VBASIS_SIZE - 1, VBASIS_SIZE - 1).items():
        g = lasagna.gamma(j, m, n)
        fx = x
        for r in range(1, F_POWER_MAX + 1):
            fx = spec.derive("f", fx)
            cden, c = closed_form_numerators(g, r)
            if scaled(fx, cden) != scaled(mul_terms(c, x), fden ** r):
                return False
    return True


def vanishing_check():
    """On the v-basis grid, f^(w+1) kills delta^j A1^m v^n when w = m-n-4j
    is >= 0 and even, and f^w does not (w >= 1): the spec's apply on the
    expanded polynomials."""
    spec = lasagna.LASAGNA_SPEC
    for (j, m, n), x in vbasis(VBASIS_SIZE - 1, VBASIS_SIZE - 1).items():
        w = m - n - 4 * j
        if w < 0 or w % 2:
            continue
        x = GradedPoly(LASAGNA_RING, {k: Fraction(c) for k, c in x.items()})
        for _ in range(w):
            x = spec.apply("f", x)
        if w and x.is_zero():
            return False
        if not spec.apply("f", x).is_zero():
            return False
    return True


def test_closed_form():
    """The all-index certificate and its grid oracle agree."""
    assert lasagna.closed_form_certificate()
    assert closed_form_check()


def closed_form_coefficient(j, m, n, r):
    """The closed coefficient c_r of f^r(delta^j A1^m v^n) as a GradedPoly
    over Fraction: the sum over k + 2a = r of (-1)^a ((k+2a)...(k+1)/a!)
    (g)...(g+r-a-1) E1^k E2^a, with g = gamma(j, m, n)."""
    g = lasagna.gamma(j, m, n)
    terms = {}
    for a in range(r // 2 + 1):
        k = r - 2 * a
        desc = prod(range(k + 1, k + 2 * a + 1)) // factorial(a)
        rise = Fraction(1)
        for t in range(r - a):
            rise *= g + t
        if desc * rise:
            terms[lasagna._lkey(a=k, b=a)] = (-1) ** a * desc * rise
    return GradedPoly(LASAGNA_RING, terms)


def test_closed_form_detects_perturbation():
    """The closed form is exact: r = 1 already distinguishes gamma shifts."""
    x = vbasis_element(1, 2, 1)
    got = closed_form_coefficient(1, 2, 1, 1) * x
    assert got == LASAGNA_SPEC.apply("f", x)
    wrong = got + x
    assert wrong != LASAGNA_SPEC.apply("f", x)


def test_closed_form_matches_the_graded_poly_path():
    """Oracle: the int closed-form numerators are the GradedPoly closed
    coefficients, and f^r on the expanded v-basis element equals c_r x over
    Fraction, on the whole grid."""
    for j, m, n in product(range(VBASIS_SIZE), repeat=3):
        x = vbasis_element(j, m, n)
        fx = x
        for r in range(1, F_POWER_MAX + 1):
            fx = LASAGNA_SPEC.apply("f", fx)
            want = closed_form_coefficient(j, m, n, r)
            den, nums = closed_form_numerators(lasagna.gamma(j, m, n), r)
            assert {k: Fraction(c, den) for k, c in nums.items()} \
                == want.terms
            assert want * x == fx


def test_perturbed_closed_coefficient_fails_the_check(monkeypatch):
    """Negative control for the grid oracle: gamma + 1/2 at the one grid
    point (1, 2, 1)."""
    real = lasagna.gamma
    monkeypatch.setattr(
        lasagna, "gamma",
        lambda j, m, n: real(j, m, n) + Fraction((j, m, n) == (1, 2, 1), 2))
    assert not closed_form_check()


def test_perturbed_f_image_fails_the_closed_form_check(monkeypatch):
    """Negative control on the iterated side: f(A1) = -E1*A1 instead of
    -E1*A1/2 fails the certificate and its grid oracle."""
    assert closed_form_check()
    monkeypatch.setattr(lasagna, "LASAGNA_SPEC", _spec(f={"A1": 2 * A1_F}))
    assert not lasagna.closed_form_certificate()
    assert not closed_form_check()


def test_embedding_check_on_the_plus_blocks():
    """The plus certificate and its oracle on the blocks m, n <= 4."""
    assert lasagna.plus_generator_certificate()
    assert plus_oracle()


def test_wrong_twist_fails_the_embedding_check():
    """Negative control for the oracle: the generator A1^2 v of block
    (2, 1) with the twist of block (2, 0), and with v^2 in place of v."""
    grid = vbasis(0, 2)
    assert block_embedding_check(2, 1, grid[0, 2, 1])
    assert not block_embedding_check(2, 1, grid[0, 2, 2])
    assert not block_embedding_check(2, 0, grid[0, 2, 1])


def test_vanishing_pattern():
    """The grid oracle of the vanishing claim, which the summary reads off
    closed_form_certificate."""
    assert vanishing_check()
    claims = {c["claim"]: c for c in lasagna.summary_report(12)["claims"]}
    assert claims["vanishing/non-vanishing of f-strings"]["depth"] == "all"


def test_plus_part_decomposition():
    rep = lasagna.mplus_decomposition(12)
    assert rep["ok"], rep


def test_minus_block_split():
    """The split certificate and its oracle at depths 10 and 12."""
    assert lasagna.minus_split_certificate()
    assert minus_block_split_check(10) and minus_block_split_check(12)


def test_strictness_table():
    for ell in range(-2, 3):
        for r in range(5):
            assert lasagna.strictness(ell, r, 20) == (r >= max(0, ell + 1))


# -- the key-by-key layer oracle for layer_action_certificate -----------------

def layer_rows(ell, depth):
    """The keys of minus_block(ell, depth) with A1-power at most
    max(LAYER_RS) + 1, as a module: every layer key keeps the block's
    columns."""
    a1 = LASAGNA_RING.index["A1"]
    top = max(lasagna.LAYER_RS) + 1
    return rep.TruncatedModule(
        lasagna.LASAGNA_SPEC,
        [k for k in lasagna._minus_keys(ell, depth) if k[a1] <= top],
        depth, name=f"layer-rows[{ell}]")


def layer_matches_model(blk, ell, r, depth):
    """The layer S_(ell,r)/S_(ell,r+1) of blk (a module holding the keys of
    minus_block(ell, depth) with A1-power r) against twisted_block(2r - ell)
    at the verdict's depth: the exact e-, f- and h-image of every layer key
    has no term of lower A1-power, and its terms of A1-power r keep the
    key's A0-exponent and equal the model's exact image."""
    w, n = 2 * r - ell, r - ell
    layer_depth = max(depth, 2 * w + 4)
    model = lasagna.twisted_block(w, layer_depth, f"layer[ell={ell},r={r}]")
    basis = set(blk.basis)
    for g in GENERATORS:
        for a, b in model.basis:
            k = lasagna._lkey(a, b, r, -n)
            if k not in basis:
                continue
            proj = {}
            for k2, c in exact_image(blk, g, k).items():
                a2, b2, m2, i2 = lasagna._kparts(k2)
                if m2 < r or (m2 == r and i2 != -n):
                    return False
                if m2 == r:
                    proj[(a2, b2)] = c
            if proj != exact_image(model, g, (a, b)):
                return False
    return True


def test_degenerate_layer_is_still_analyzed(monkeypatch):
    """(ell, r) = (1, 0) is a degenerate (equal) layer, the only one of
    weight 2r - ell = -1; minus_side_checks still reads its model's
    verdict, one per layer."""
    assert not lasagna.strictness(1, 0, 12)
    weights = []
    real = lasagna._twisted_verdict
    monkeypatch.setattr(lasagna, "_twisted_verdict",
                        lambda w, depth: weights.append(w) or real(w, depth))
    assert lasagna.minus_side_checks(12) == (True, True)
    assert weights.count(-1) == 1 and len(weights) == 25


def test_strict_layer_matches_block_action():
    """The strict layer (-1, 1) of minus_block(-1, 12), key by key, agrees
    with the certificate."""
    assert lasagna.strictness(-1, 1, 12)
    assert layer_matches_model(minus_block(-1, 12), -1, 1, 12)
    assert lasagna.layer_action_certificate()


def test_minus_no_finite_part():
    assert lasagna.minus_side_checks(12)[1]
    assert lasagna.minus_f_injectivity_check()


def truncated_e_kernel(m: rep.TruncatedModule, lam: int) -> list:
    """The weight-lam kernel of e with every image term outside m's basis
    dropped: the highest-weight vectors a truncation of e's images finds."""
    keys = [k for k in m.basis if m.weights[k] == lam]
    basis = set(m.basis)
    etable = m.tables["e"][1]
    columns = [{t: c for t, c in etable.get(k, {}).items() if t in basis}
               for k in keys]
    return [{keys[j]: c for j, c in v.items()}
            for v in exactla.nullspace(columns)]


def test_zuckerman_on_a_minus_block_classifies_nothing():
    """minus_block(0, 20) has no highest-weight vector, so zuckerman finds
    no summand and refuses nothing.  Its key set is not closed under e: the
    kernel of e truncated to the basis has 15 vectors, and each one's exact
    e-image is nonzero with every term outside the basis."""
    m = minus_block(0, 20)
    z = rep.zuckerman(m)
    assert (z["summands"], z["unclassified"]) == ([], 0)
    weights = sorted(set(m.weights.values()))
    assert not any(m.highest_weight_vectors(lam) for lam in weights)
    artifacts = [v for lam in weights for v in truncated_e_kernel(m, lam)]
    assert len(artifacts) == 15
    basis = set(m.basis)
    for v in artifacts:
        image = m.apply("e", v)
        assert image and not basis & set(image)


def test_minus_hwvs_are_verma_by_untruncated_f():
    """Oracle for the f-shift certificate: on every minus block at depth
    12, every basis vector and a seeded random vector of each weight
    lam >= 0, walked by the spec's untruncated f, has f^(lam+1) v != 0, so
    it generates nothing locally finite; and no block has a highest-weight
    vector of any weight."""
    rng = random.Random(5)
    seen = 0
    for ell in lasagna.MINUS_ELLS:
        blk = minus_block(ell, 12)
        for lam in sorted(set(blk.weights.values())):
            assert blk.highest_weight_vectors(lam) == [], (ell, lam)
            if lam < 0:
                continue
            keys = [k for k in blk.basis if blk.weights[k] == lam]
            vectors = [{k: 1} for k in keys]
            vectors.append({k: rng.randint(-3, 3) or 1 for k in keys})
            for x in vectors:
                for _ in range(lam + 1):
                    x = LASAGNA_SPEC.derive("f", x)
                assert x, (ell, lam)
                seen += 1
    assert seen > 20


def _without_lowering_term(zero_coefficient):
    """LASAGNA_SPEC with f(A0) = E1*A0/2: the -E2*A1 term dropped, or kept
    in the f-shifts with numerator 0."""
    spec = LASAGNA_SPEC
    if not zero_coefficient:
        return Sl2ActionSpec(spec.ring, spec.e_images,
                             {**spec.f_images,
                              "A0": spec.f_images["A0"]
                              + spec.ring.gen("E2") * spec.ring.gen("A1")},
                             spec.h_weights)
    a0 = LASAGNA_RING.index["A0"]
    bad = copy.copy(spec)
    bad.shifts = {**spec.shifts, "f": tuple(
        (i, tuple((s, 0 if s[a0] < 0 else c) for s, c in terms))
        for i, terms in spec.shifts["f"])}
    return bad


@pytest.mark.parametrize("zero_coefficient", [False, True])
def test_spec_without_the_lowering_f_term_fails_the_minus_claims(
        monkeypatch, zero_coefficient):
    """Negative control: with no f-shift lowering the A0 exponent, the
    certificate has nothing to stand on, and both claims resting on it
    fail."""
    monkeypatch.setattr(lasagna, "LASAGNA_SPEC",
                        _without_lowering_term(zero_coefficient))
    assert not lasagna.minus_f_injectivity_check()
    failed = {c["claim"] for c in lasagna.summary_report(12)["claims"]
              if c["status"] == "fail"}
    assert {"minus part contributes nothing to the locally finite part",
            "locally finite part comes from the plus side"} <= failed


@pytest.mark.parametrize("depth", [12, 20, 40])
def test_layer_rows_equal_the_minus_block_on_every_layer_key(depth):
    """The key-by-key oracle of layer_action_certificate: on every key with
    A1-power in LAYER_RS, the row module's exact e-, f- and h-images equal
    minus_block's as Fractions; and every layer (ell, r) read on the rows
    matches its twisted model, as the certificate says for every depth."""
    assert lasagna.layer_action_certificate()
    for ell in lasagna.MINUS_ELLS:
        blk = minus_block(ell, depth)
        rows = layer_rows(ell, depth)
        layer_keys = [k for k in blk.basis
                      if lasagna._kparts(k)[2] in lasagna.LAYER_RS]
        assert layer_keys and set(layer_keys) <= set(rows.basis) \
            <= set(blk.basis)
        for g in GENERATORS:
            for k in layer_keys:
                assert exact_image(rows, g, k) == exact_image(blk, g, k), \
                    (ell, g, k)
        assert all(layer_matches_model(rows, ell, r, depth)
                   for r in lasagna.LAYER_RS), ell


def test_layer_rows_at_depth_40_keep_a1_power_up_to_five():
    sizes = [len(layer_rows(ell, 40).basis) for ell in lasagna.MINUS_ELLS]
    assert sizes == [517, 517, 453, 343, 271]


def _lowering_a1():
    """f(A1) gains E2*A0: an A1-shift that lowers the A1-power."""
    ring = LASAGNA_RING
    return _spec(f={"A1": A1_F + ring.gen("E2") * ring.gen("A0")})


def _moving_a0():
    """e(A0) gains E1*A0^2: an A0-shift that moves A0 with no A1 rise."""
    ring = LASAGNA_RING
    return _spec(e={"A0": LASAGNA_SPEC.e_images["A0"]
                    + ring.gen("E1") * ring.gen("A0", 2)})


# name: perturbed spec; the key-by-key oracle reads exact images, so it
# also meets a term that moves A0 alone and leaves the block ell
LAYER_PERTURBATIONS = {
    "f(A1) doubled": lambda: _spec(f={"A1": 2 * A1_F}),
    "A0 h-weight": lambda: _spec(h={"A0": -3}),
    "A1 power lowered": _lowering_a1,
    "A0 moved alone": _moving_a0,
}


@pytest.mark.parametrize("name", sorted(LAYER_PERTURBATIONS))
def test_layer_perturbation_fails_the_certificate_and_the_oracle(
        monkeypatch, name):
    """Negative control: each perturbed spec fails layer_action_certificate,
    the layer claim of summary_report, criterion 11's layer field, and the
    key-by-key oracle on some layer of depth 12."""
    from dottedtl import selftest

    monkeypatch.setattr(lasagna, "LASAGNA_SPEC", LAYER_PERTURBATIONS[name]())
    assert not lasagna.layer_action_certificate()
    failed = {c["claim"] for c in lasagna.summary_report(12)["claims"]
              if c["status"] == "fail"}
    assert "minus filtration layers are twisted polynomial modules" in failed
    crit = selftest.criterion_minus_part()
    assert crit["layers"] is False and crit["ok"] is False
    assert not all(
        layer_matches_model(layer_rows(ell, 12), ell, r, 12)
        for ell in lasagna.MINUS_ELLS for r in lasagna.LAYER_RS)


def test_block_leak_fails_the_split_check(monkeypatch):
    """Negative control: with e(A0) gaining E1*A0^2, e moves a key of block
    ell with n >= 2 to block ell + 1 inside the minus part; the block's e
    column keeps that term, and the split certificate and its oracle
    fail."""
    assert minus_block_split_check(12)
    monkeypatch.setattr(lasagna, "LASAGNA_SPEC", _moving_a0())
    assert not lasagna.minus_split_certificate()
    assert not minus_block_split_check(12)


def test_twist_off_by_a_half_fails_the_layer_claims(monkeypatch):
    """Negative control: ModuleTwist.a = -shift/2 + 1/2 fails the
    certificate, the layer claim and criterion 11."""
    from dottedtl import selftest

    monkeypatch.setattr(rep.ModuleTwist, "a", property(
        lambda self: Fraction(1 - self.shift, 2)))
    assert not lasagna.layer_action_certificate()
    failed = {c["claim"] for c in lasagna.summary_report(12)["claims"]
              if c["status"] == "fail"}
    assert "minus filtration layers are twisted polynomial modules" in failed
    crit = selftest.criterion_minus_part()
    assert crit["layers"] is False and crit["ok"] is False


def _twist_off_by_a_half(monkeypatch):
    monkeypatch.setattr(rep.ModuleTwist, "a", property(
        lambda self: Fraction(1 - self.shift, 2)))


def _spec_patch(make):
    return lambda monkeypatch: monkeypatch.setattr(lasagna, "LASAGNA_SPEC",
                                                   make())


# name: (patch, whether the plus certificate holds, whether the split
# certificate holds); f(A1) gaining A0 sends A1 A0^-1 into the plus part
CERTIFICATE_PERTURBATIONS = {
    "none": (lambda monkeypatch: None, True, True),
    "e(A1) nonzero": (_spec_patch(lambda: _spec(
        e={"A1": LASAGNA_RING.gen("E1") * LASAGNA_RING.gen("A1")})),
        False, True),
    "A0 h-weight": (_spec_patch(lambda: _spec(h={"A0": -3})), False, True),
    "twist a off by 1/2": (_twist_off_by_a_half, False, True),
    "f(A1) gains A0": (_spec_patch(lambda: _spec(
        f={"A1": A1_F + LASAGNA_RING.gen("A0")})), False, False),
    "A0 moved alone": (_spec_patch(_moving_a0), False, False),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_PERTURBATIONS))
def test_certificates_agree_with_their_oracles(monkeypatch, name):
    """On the real spec and each perturbation, plus_generator_certificate
    agrees with its oracle on the blocks m, n <= 4, and
    minus_split_certificate with its oracle at depths 10 and 12."""
    patch, plus_ok, split_ok = CERTIFICATE_PERTURBATIONS[name]
    patch(monkeypatch)
    assert lasagna.plus_generator_certificate() is plus_oracle() is plus_ok
    assert lasagna.minus_split_certificate() is split_ok
    assert minus_block_split_check(10) is minus_block_split_check(12) \
        is split_ok


@pytest.mark.parametrize("name", ["e(A1) nonzero", "A0 h-weight",
                                  "twist a off by 1/2"])
def test_plus_perturbation_fails_the_plus_claim(monkeypatch, name):
    """Negative control: each perturbation fails the plus claim of
    summary_report through plus_generator_certificate."""
    CERTIFICATE_PERTURBATIONS[name][0](monkeypatch)
    assert not lasagna.mplus_decomposition(12)["ok"]
    failed = {c["claim"] for c in lasagna.summary_report(12)["claims"]
              if c["status"] == "fail"}
    assert "plus part splits blockwise into Verma/dual-Verma stacks" in failed


def test_f_a1_gaining_a0_fails_the_split_claim(monkeypatch):
    """Negative control: f(A1) += A0 sends A1 A0^-1 into the plus part, so
    the minus part is not f-stable.  The split claim and criterion 11's
    split field fail; a key-by-key check that skips every key whose image
    leaves the minus module passes this spec."""
    from dottedtl import selftest

    CERTIFICATE_PERTURBATIONS["f(A1) gains A0"][0](monkeypatch)
    failed = {c["claim"] for c in lasagna.summary_report(12)["claims"]
              if c["status"] == "fail"}
    assert "minus part splits into weight blocks" in failed
    crit = selftest.criterion_minus_part()
    assert crit["split"] is False and crit["ok"] is False


def test_changed_f_e2_fails_the_closed_form(monkeypatch):
    """Negative control: f(E2) = 2*E1*E2 in BASE_SPEC fails the closed form
    both when LASAGNA_SPEC is rebuilt from it and when it is not; in the
    second case the two specs disagree on E2, which also fails the layer
    certificate."""
    base = sl2.BASE_SPEC
    monkeypatch.setattr(lasagna, "BASE_SPEC", Sl2ActionSpec(
        E_RING, base.e_images,
        {**base.f_images, "E2": 2 * base.f_images["E2"]}, base.h_weights))
    assert not lasagna.closed_form_certificate()
    assert not lasagna.layer_action_certificate()
    monkeypatch.setattr(sl2, "BASE_SPEC", lasagna.BASE_SPEC)
    monkeypatch.setattr(lasagna, "LASAGNA_SPEC", sl2.lasagna_spec())
    assert not lasagna.closed_form_certificate()
    assert not closed_form_check()


def test_unrecognised_f_e1_shape_is_refused(monkeypatch):
    """f(E1) with an E1 term is not of the shape the certificate reads."""
    base = sl2.BASE_SPEC
    bad = Sl2ActionSpec(E_RING, base.e_images,
                        {**base.f_images,
                         "E1": base.f_images["E1"] + E_RING.gen("E1")},
                        base.h_weights)
    monkeypatch.setattr(lasagna, "BASE_SPEC", bad)
    monkeypatch.setattr(sl2, "BASE_SPEC", bad)
    monkeypatch.setattr(lasagna, "LASAGNA_SPEC", sl2.lasagna_spec())
    assert not lasagna.closed_form_certificate()


def _flipped(real, where):
    def coefficient(k, a, g):
        c = real(k, a, g)
        return -c if where(k, a) else c
    return coefficient


@pytest.mark.parametrize("where", [
    lambda k, a: (k, a) == (1, 1),
    lambda k, a: (k, a) == (0, 2),
    lambda k, a: a % 2 == 1,
], ids=["C(1,1)", "C(0,2)", "odd a"])
def test_flipped_closed_form_sign_fails(monkeypatch, where):
    """Negative control: the closed form with a coefficient's sign flipped
    fails the certificate and the grid oracle.  classify_cyclic refuses
    every generator, so every claim that classifies one fails with the two
    closed-form claims; only the two minus-part certificates hold."""
    monkeypatch.setattr(
        rep, "_closed_form_coefficient",
        _flipped(rep._closed_form_coefficient, where))
    assert not lasagna.closed_form_certificate()
    assert not closed_form_check()
    calls, inside = f_derivations(monkeypatch)
    refused = []
    real = rep.TruncatedModule.classify_cyclic

    def classify(self, vec, lam):
        try:
            return real(self, vec, lam)
        except rep.RepError:
            refused.append(lam)
            raise

    monkeypatch.setattr(rep.TruncatedModule, "classify_cyclic", classify)
    claims = lasagna.summary_report(12)["claims"]
    assert [c["claim"] for c in claims if c["status"] == "pass"] == [
        "minus part splits into weight blocks",
        "minus part contributes nothing to the locally finite part"]
    assert len(calls) > 50 and len(refused) == len(calls)


def test_summary_runs_zuckerman_on_no_minus_module(monkeypatch):
    """Operation-count gate: summary_report(40) runs zuckerman on the ball
    and on twisted models only, never on a minus-side module."""
    names = []
    real = lasagna.zuckerman
    monkeypatch.setattr(lasagna, "zuckerman",
                        lambda m: names.append(m.name) or real(m))
    assert lasagna.summary_report(40)["ok"]
    assert names and all(n == "ball" or n.startswith("twisted[")
                         for n in names)


def _with_one_unclassified(real):
    def z(m):
        out = real(m)
        out["unclassified"] += 1
        return out
    return z


def test_unclassified_hwv_fails_the_ball_and_the_twisted_verdict(
        monkeypatch):
    """Negative control: an unclassified highest-weight vector fails the
    verdicts that read "no further summand" from zuckerman."""
    assert lasagna.b4_report(16)["ok"]
    assert lasagna._twisted_verdict(2, 12)[2]
    lasagna._twisted_verdict.cache_clear()
    monkeypatch.setattr(lasagna, "zuckerman",
                        _with_one_unclassified(lasagna.zuckerman))
    assert not lasagna.b4_report(16)["ok"]
    assert not lasagna._twisted_verdict(2, 12)[2]


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
    assert detail == {"generators": len(listed)}
    assert len(listed) == 10
    # depth labels: the ball at 40, with no detail; four certificates "all"
    depths = {c["claim"]: c["depth"] for c in rep["claims"]}
    assert "detail" not in rep["claims"][0] and rep["claims"][0]["depth"] == 40
    assert [c for c, d in depths.items() if d == "all"] == [
        "closed f-power formula matches iteration",
        "vanishing/non-vanishing of f-strings",
        "minus part splits into weight blocks",
        "minus part contributes nothing to the locally finite part"]
    assert "weight blocks" not in rep["caveat"]


def test_laurent_ring_consistency():
    a0 = LASAGNA_RING.gen("A0")
    a0inv = LASAGNA_RING.gen("A0", -1)
    assert a0 * a0inv == LASAGNA_RING.one


def test_depth_guard():
    with pytest.raises(lasagna.LasagnaError):
        lasagna.b4_module(2)
    with pytest.raises(lasagna.LasagnaError):
        lasagna._minus_keys(5, 4)


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


def test_finite_part_counts_checked_generators(monkeypatch):
    """At depth 40 the last claim lists 34 generators, each in a plus block
    (m, n <= 12).  Operation-count gate: the report verifies 26 claims (the
    ball and one per twisted weight, plus blocks and layers sharing them)
    and builds 1 module, the untwisted depth-40 block, which is the ball
    and the source of the 25 twisted models; a twist is made from its
    source's tables, not built."""
    verified, built = [], []
    verify = lasagna.verify_claim

    class Counted(rep.TruncatedModule):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.name)

    monkeypatch.setattr(lasagna, "verify_claim",
                        lambda m, claim: verified.append(m) or verify(m, claim))
    monkeypatch.setattr(lasagna, "TruncatedModule", Counted)
    rep40 = lasagna.summary_report(40)
    assert (len(verified), len(built)) == (26, 1)
    assert rep40["ok"], rep40
    assert len(rep40["claims"]) == 8
    assert _finite_part_claim(rep40)["detail"] == {"generators": 34}


def test_summary_builds_one_module_and_twists_each_weight_once(
        monkeypatch):
    """Operation-count gate: summary_report(40) builds the depth-40 base
    block and nothing else, no minus block and no layer-row module, and
    makes one twist step per plus-block weight -12..12: 25 in all (the
    filtration layers' 13 weights are among them)."""
    built, twists = [], []
    real_init, real_twisted = (rep.TruncatedModule.__init__,
                               rep.TruncatedModule.twisted)

    def init(self, spec, keys, depth, name=""):
        built.append((name, depth))
        real_init(self, spec, keys, depth, name=name)

    def twisted(self, twist, name):
        twists.append((twist.shift, self.depth))
        return real_twisted(self, twist, name)

    monkeypatch.setattr(rep.TruncatedModule, "__init__", init)
    monkeypatch.setattr(rep.TruncatedModule, "twisted", twisted)
    assert lasagna.summary_report(40)["ok"]
    assert built == [("ball", 40)]
    assert sorted(twists) == [(w, 40) for w in range(-12, 13)]
    assert not hasattr(lasagna, "_layer_rows")


def test_finite_part_checks_every_generator_at_depth_20():
    rep20 = lasagna.summary_report(20)
    assert rep20["ok"], rep20
    assert _finite_part_claim(rep20)["detail"] == {"generators": 24}


def test_high_weight_block_is_verified_past_the_summary_depth():
    """Block (10, 0) has weight 10: its dual-Verma witness of weight -12
    sits at degree 22, so it is verified at depth 2 * 10 + 4 = 24."""
    rep = lasagna.mplus_decomposition(20)
    assert rep["ok"], rep
    block = next(b for b in rep["blocks"] if (b["m"], b["n"]) == (10, 0))
    assert block["status"] == "pass"
    assert block["depth"] == 24
    assert [s["lambda"] for s in block["zuckerman"]] == [10, 6, 2]


def test_summary_builds_no_minus_block(monkeypatch):
    """Operation-count gate: summary_report(12) and criterion 11 build no
    minus-side module, only untwisted base blocks, and read the split
    claim off minus_split_certificate, once each."""
    from dottedtl import selftest

    built, split = [], []
    real_init = rep.TruncatedModule.__init__
    certificate = lasagna.minus_split_certificate

    def init(self, spec, keys, depth, name=""):
        built.append(name)
        real_init(self, spec, keys, depth, name=name)

    monkeypatch.setattr(rep.TruncatedModule, "__init__", init)
    monkeypatch.setattr(lasagna, "minus_split_certificate",
                        lambda: split.append(1) or certificate())
    assert lasagna.summary_report(12)["ok"]
    assert selftest.criterion_minus_part()["ok"]
    assert set(built) == {"ball"} and len(split) == 2


def test_summary_verifies_one_twisted_model_per_weight_and_depth(monkeypatch):
    """Operation-count gate: across the whole of summary_report(12), the
    plus blocks and the minus filtration layers together verify one twisted
    model per distinct (weight, depth): 13 plus-block keys and 4 more that
    only layers have, 17 calls in all."""
    verified = []
    verify = lasagna.verify_claim

    def counted(m, claim):
        if m.twist is not None:
            verified.append((m.twist.shift, m.depth))
        return verify(m, claim)

    monkeypatch.setattr(lasagna, "verify_claim", counted)
    assert lasagna.summary_report(12)["ok"]
    plus = {(m - n, max(12, 2 * (m - n) + 4))
            for m in range(7) for n in range(7)}
    layers = {(2 * r - ell, max(12, 2 * (2 * r - ell) + 4))
              for ell in range(-2, 3) for r in range(5)}
    assert sorted(verified) == sorted(plus | layers)
    assert (len(plus), len(verified)) == (13, 17)


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
    failed = [(ell, r) for ell in range(-2, 3) for r in range(5)
              if not all(lasagna._twisted_verdict(2 * r - ell, 20)[1:3])]
    assert failed == [(-2, 0), (0, 1), (2, 2)]
    assert lasagna.minus_side_checks(20) == (False, True)


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
    """f(A1) = -E1*A1, which doubles the E1 A1 A0^-1 entry of f's column
    of A1 A0^-1 in the strict layer (ell, r) = (0, 1), fails criterion 11
    through layer_action_certificate; the split certificate still passes,
    since the doubled term keeps both A-exponents."""
    from dottedtl import selftest

    monkeypatch.setattr(lasagna, "LASAGNA_SPEC", _spec(f={"A1": 2 * A1_F}))
    assert not lasagna.layer_action_certificate()
    rep = selftest.criterion_minus_part()
    assert rep["split"] is True
    assert rep["layers"] is False
    assert rep["ok"] is False


def test_wrong_strictness_rule_fails_criterion_11(monkeypatch):
    """Negative control: calling every layer strict disagrees with the
    blocks' A1-powers, so criterion 11's strictness field fails."""
    from dottedtl import selftest

    monkeypatch.setattr(lasagna, "strictness", lambda ell, r, depth=20: r >= 0)
    rep = selftest.criterion_minus_part()
    assert rep["strictness"] is False
    assert rep["ok"] is False


# sha256 of the CLI's --json stdout for the lasagna reports
PINNED_REPORT_SHA256 = {
    ("decompose-b4",):
        "8abd197b2e5a8827b430e243ff329aa5ec6861079311e34d3cd08d6e04b43dae",
    ("decompose-b2s2", "--depth", "20"):
        "8758304dbff413fcc45f96c150164d88bd2abb822a12109e5a205174dc77a927",
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


def f_derivations(monkeypatch) -> tuple:
    """Count the exact f computations of classify_cyclic: after this patch,
    each call appends (lam, its number of the spec's derive("f") calls) to
    the first list returned; the second is non-empty while a call runs."""
    calls, inside = [], []
    real_derive = Sl2ActionSpec.derive
    real_classify = rep.TruncatedModule.classify_cyclic

    def derive(self, g, vec):
        if inside and g == "f":
            inside[-1] += 1
        return real_derive(self, g, vec)

    def classify(self, vec, lam):
        inside.append(0)
        try:
            return real_classify(self, vec, lam)
        finally:
            calls.append((lam, inside.pop()))

    monkeypatch.setattr(Sl2ActionSpec, "derive", derive)
    monkeypatch.setattr(rep.TruncatedModule, "classify_cyclic", classify)
    return calls, inside


def test_f_string_walks_build_no_fraction(monkeypatch):
    """Operation-count gate: classify_cyclic decides each generator's
    f-string on int numerators, so summary_report(12) builds no Fraction
    inside it, both when every generator is read off the closed form and,
    with the certificate refused, when every one is refused.  The
    certificate, read once per process, is read before the count."""
    assert rep.f_string_certificate()
    calls, inside = f_derivations(monkeypatch)
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        if inside:
            built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for closed_form in (True, False):
        if not closed_form:
            monkeypatch.setattr(rep, "f_string_certificate", lambda: False)
            for cache in CACHES[:3]:
                cache.cache_clear()
        calls.clear()
        assert lasagna.summary_report(12)["ok"] is closed_form
        lams = [lam for lam, _ in calls]
        assert min(lams) < 0 <= max(lams) and len(lams) > 50
        assert [n for _, n in calls] == [1] * len(calls)
        assert built == []


def test_summary_classifies_every_generator_by_one_f_step(monkeypatch):
    """Operation-count gate: each of the 315 classifications of
    summary_report(40) (the ball's and the 25 twisted models' block_claim
    generators and Zuckerman highest-weight vectors) makes exactly one
    exact f computation, the spec's derive of the eigenvector test, also
    at the truncation's edge, where f of the generator leaves the basis."""
    calls = f_derivations(monkeypatch)[0]
    assert lasagna.summary_report(40)["ok"]
    assert len(calls) == 315
    assert [n for _, n in calls] == [1] * 315


def test_summary_derives_f_only_to_test_eigenvectors(monkeypatch):
    """Operation-count gate: in summary_report(40) every f-derivation of a
    monomial (derive_monomial("f", ...)) is made inside one of the 315
    classifications or inside the three f-applies that read the generator
    images for the certificates; no module build derives f, and a twist
    step derives nothing at all."""
    where, derived, applies = [], [], []
    real_monomial = Sl2ActionSpec.derive_monomial
    real_apply = Sl2ActionSpec.apply

    def monomial(self, g, exp, c, out):
        derived.append((where[-1] if where else None, g))
        return real_monomial(self, g, exp, c, out)

    def apply(self, g, x):
        applies.append(g)
        return watched("apply", real_apply)(self, g, x)

    def watched(name, fn):
        def call(*args, **kwargs):
            where.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()
        return call

    monkeypatch.setattr(Sl2ActionSpec, "derive_monomial", monomial)
    monkeypatch.setattr(Sl2ActionSpec, "apply", apply)
    for name in ("classify_cyclic", "twisted"):
        monkeypatch.setattr(rep.TruncatedModule, name, watched(
            name, getattr(rep.TruncatedModule, name)))
    assert lasagna.summary_report(40)["ok"]
    assert {w for w, g in derived if g == "f"} == {"classify_cyclic",
                                                   "apply"}
    assert applies.count("f") == 3
    assert not any(w == "twisted" for w, _ in derived)
    assert any(w is None and g == "e" for w, g in derived)


def test_polynomial_checks_run_on_int_numerators(monkeypatch):
    """Operation-count gate: in summary_report(12), block_claim calls no
    sl2.apply, and its only GradedPoly products build the powers of delta,
    one per power delta^1..delta^10 of the depth-40 ball; the certificates
    read their generator images once, with seven applies (f on delta, e, f
    and h on A1 and on v, all made by closed_form_certificate, the first
    reader; plus_generator_certificate makes none) and a handful of
    products, and summary_report makes no other GradedPoly.__mul__ call."""
    inside, applies, products = [], [], []
    real_apply = Sl2ActionSpec.apply
    real_mul = GradedPoly.__mul__

    def apply(self, g, x):
        if inside:
            applies.append((inside[-1], g))
        return real_apply(self, g, x)

    def mul(self, other):
        if inside:
            products.append(inside[-1])
        return real_mul(self, other)

    def watched(fn):
        def call(*args):
            inside.append(fn.__name__)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(Sl2ActionSpec, "apply", apply)
    monkeypatch.setattr(GradedPoly, "__mul__", mul)
    certificates = ("closed_form_certificate", "plus_generator_certificate")
    for name in certificates + ("block_claim", "summary_report"):
        monkeypatch.setattr(lasagna, name, watched(getattr(lasagna, name)))
    assert lasagna.summary_report(12)["ok"]
    assert applies == [("closed_form_certificate", g) for g in "fefhefh"]
    assert products.count("closed_form_certificate") <= 12
    assert products.count("plus_generator_certificate") == 0
    assert products.count("block_claim") <= 10
    assert products.count("summary_report") == 0
