"""The two four-manifold coefficient modules as truncated sl2-modules.

The ball gives Q[E1,E2]; the twisted product of a disk and a sphere gives
the Laurent module Q[E1,E2][A0^{+-1}, A1].  Both carry the derivation
action from sl2core; everything here reduces their decompositions to
finite certified computations: highest-weight vectors, the closed f-power
formula on the v-basis, the minus-side filtration, and a summary report.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .ring import E_RING, LASAGNA_RING, GradedPoly, delta
from .sl2 import BASE_SPEC, GENERATORS, LASAGNA_SPEC, iterate_f
from .rep import (
    ClaimPart,
    DecompositionClaim,
    ModuleTwist,
    TruncatedModule,
    verify_claim,
    zuckerman,
)

HALF = Fraction(1, 2)

# exponent order in LASAGNA_RING keys
_L_NAMES = LASAGNA_RING.names
_IDX = {n: i for i, n in enumerate(_L_NAMES)}


def _lkey(a=0, b=0, m=0, i=0):
    key = [0] * len(_L_NAMES)
    key[_IDX["E1"]], key[_IDX["E2"]] = a, b
    key[_IDX["A1"]], key[_IDX["A0"]] = m, i
    return tuple(key)


def _kparts(key):
    return (key[_IDX["E1"]], key[_IDX["E2"]], key[_IDX["A1"]], key[_IDX["A0"]])


class LasagnaError(Exception):
    pass


# -- the ball ---------------------------------------------------------------

def _poly_keys(depth: int) -> list:
    """The exponents (x, y) of the monomials E1^x E2^y of degree at most
    depth: the basis of Q[E1,E2] truncated at depth."""
    return [(x, y) for x in range(depth // 2 + 1) for y in range(depth // 4 + 1)
            if 2 * x + 4 * y <= depth]


def b4_module(depth: int = 40) -> TruncatedModule:
    """Q[E1,E2] with the untwisted action: the weight-0 block."""
    if depth < 4:
        raise LasagnaError("depth must be at least 4")
    return TruncatedModule(E_RING, BASE_SPEC, _poly_keys(depth), depth,
                           name="ball")


def b4_report(depth: int = 40) -> dict:
    """block_claim(0, depth) on the ball: M*(0) plus one Verma M(-4j)
    generated by each power of the discriminant."""
    m = b4_module(depth)
    rep = verify_claim(m, block_claim(0, depth))
    hwvs = []
    for lam in sorted({w for w in m.weights.values()}, reverse=True):
        hwvs.extend((lam, v) for v in m.highest_weight_vectors(lam))
    rep["hwv_weights"] = sorted({lam for lam, _ in hwvs}, reverse=True)
    z = zuckerman(m)
    rep["zuckerman"] = z["summands"]
    rep["ok"] = rep["ok"] and z["summands"] == [{"kind": "L", "lambda": 0}]
    return rep


# -- the Laurent module -----------------------------------------------------

def b2s2_module(depth: int = 20, side: str = "all") -> TruncatedModule:
    """The Laurent module, or its plus (A0-exponent >= 0) / minus part."""
    if depth < 6:
        raise LasagnaError("depth must be at least 6")
    if side not in ("all", "plus", "minus"):
        raise LasagnaError(f"unknown side {side!r}")
    _consistency_check()
    keys = []
    for a in range(depth // 2 + 1):
        for b in range(depth // 4 + 1):
            for m in range(depth + 1):
                rest = depth - 2 * a - 4 * b - m
                if rest < 0:
                    continue
                lo = 0 if side == "plus" else -rest
                hi = -1 if side == "minus" else rest
                for i in range(lo, hi + 1):
                    keys.append(_lkey(a, b, m, i))
    return TruncatedModule(LASAGNA_RING, LASAGNA_SPEC, keys, depth,
                           name=f"disk-sphere[{side}]")


def _consistency_check():
    """The derivation images of the inverse generator, and g(A0 * A0^-1) = 0."""
    A0inv = GradedPoly(LASAGNA_RING, {_lkey(i=-1): Fraction(1)})
    A0 = LASAGNA_RING.gen("A0")
    A1 = LASAGNA_RING.gen("A1")
    E1, E2 = LASAGNA_RING.gen("E1"), LASAGNA_RING.gen("E2")
    expected = {
        "e": A1 * A0inv * A0inv,
        "f": E2 * A1 * A0inv * A0inv - HALF * E1 * A0inv,
        "h": A0inv,
    }
    for g in GENERATORS:
        if LASAGNA_SPEC.apply(g, A0inv) != expected[g]:
            raise LasagnaError(f"{g}(A0^-1) does not match the derivation rule")
        if not LASAGNA_SPEC.apply(g, A0 * A0inv).is_zero():
            raise LasagnaError(f"{g}(A0 * A0^-1) != 0")


# -- the v-basis and the closed f-power formula -----------------------------

def v_poly() -> GradedPoly:
    A0, A1 = LASAGNA_RING.gen("A0"), LASAGNA_RING.gen("A1")
    return A0 - HALF * LASAGNA_RING.gen("E1") * A1


def vbasis_element(j: int, m: int, n: int) -> GradedPoly:
    """delta^j * A1^m * v^n expanded in the monomial basis."""
    if min(j, m, n) < 0:
        raise LasagnaError("exponents must be non-negative")
    out = GradedPoly(LASAGNA_RING, {_lkey(m=m): Fraction(1)})
    d = delta(LASAGNA_RING)
    for _ in range(j):
        out = out * d
    v = v_poly()
    for _ in range(n):
        out = out * v
    return out


def gamma(j: int, m: int, n: int) -> Fraction:
    return 2 * j + Fraction(n - m, 2)


def genfrcomp_closed_form(j: int, m: int, n: int, r: int) -> GradedPoly:
    """f^r of delta^j A1^m v^n by the closed coefficient formula:
    sum over k + 2a = r of (-1)^a ((k+2a)...(k+1)/a!) (g)...(g+r-a-1) E1^k E2^a
    times the element, with g = 2j + (n-m)/2."""
    if r < 1:
        raise LasagnaError("r must be at least 1")
    return _closed_form_coefficient(j, m, n, r) * vbasis_element(j, m, n)


def _closed_form_coefficient(j: int, m: int, n: int, r: int) -> GradedPoly:
    """The Q[E1,E2] factor of genfrcomp_closed_form(j, m, n, r), written
    term by term as {E1^k E2^a: c}."""
    g = gamma(j, m, n)
    terms = {}
    for a in range(r // 2 + 1):
        k = r - 2 * a
        desc = prod(range(k + 1, k + 2 * a + 1)) // factorial(a)
        rise = Fraction(1)
        for t in range(r - a):
            rise *= g + t
        c = (-1) ** a * desc * rise
        if c:
            terms[_lkey(a=k, b=a)] = c
    return GradedPoly(LASAGNA_RING, terms)


def closed_form_check(j_max: int = 3, m_max: int = 3, n_max: int = 3,
                      r_max: int = 6) -> bool:
    """Closed formula equals iterated f on the whole grid (exact ring arithmetic,
    no truncation).  Each v-basis element is expanded once and multiplied by
    the closed coefficient of every r."""
    for j in range(j_max + 1):
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                x = vbasis_element(j, m, n)
                fx = x
                for r in range(1, r_max + 1):
                    fx = LASAGNA_SPEC.apply("f", fx)
                    if _closed_form_coefficient(j, m, n, r) * x != fx:
                        return False
    return True


def vanishing_check(j_max: int = 3, m_max: int = 3, n_max: int = 3) -> bool:
    """f^(w+1) kills delta^j A1^m v^n when w = m-n-4j is >= 0 and even,
    and f^w does not (w >= 1)."""
    for j in range(j_max + 1):
        for m in range(m_max + 1):
            for n in range(n_max + 1):
                w = m - n - 4 * j
                if w < 0 or w % 2:
                    continue
                x = vbasis_element(j, m, n)
                if w and iterate_f(x, w, LASAGNA_SPEC).is_zero():
                    return False
                if not iterate_f(x, w + 1, LASAGNA_SPEC).is_zero():
                    return False
    return True


# -- plus part, blockwise ---------------------------------------------------

def twisted_block(a: Fraction, shift: int, depth: int,
                  name: str) -> TruncatedModule:
    """Q[E1,E2] with the rank-one twist (f gains a*E1, h gains shift)."""
    return TruncatedModule(E_RING, BASE_SPEC, _poly_keys(depth), depth,
                           twist=ModuleTwist(Fraction(a), shift), name=name)


def block_claim(w: int, depth: int) -> DecompositionClaim:
    """Summand j of a weight-w block: dual Verma when w-4j is >= 0 and even,
    Verma otherwise."""
    parts = []
    d = delta()
    power = E_RING.one
    for j in range(depth // 4 + 1):
        lam = w - 4 * j
        kind = "Mdual" if lam >= 0 and lam % 2 == 0 else "M"
        parts.append(ClaimPart(kind, lam, generator=dict(power.terms)))
        power = power * d
    return DecompositionClaim(parts)


def block_embedding_check(m: int, n: int, vn: GradedPoly) -> bool:
    """The block generator A1^m v^n is a HWV in the Laurent module and f acts
    on it through the twist (n-m)/2 exactly.  vn is v^n; the generator is
    vn with its A1 exponents raised by m."""
    i = _IDX["A1"]
    x = GradedPoly(LASAGNA_RING, {k[:i] + (k[i] + m,) + k[i + 1:]: c
                                  for k, c in vn.terms.items()})
    if not LASAGNA_SPEC.apply("e", x).is_zero():
        return False
    fx = LASAGNA_SPEC.apply("f", x)
    tw = gamma(0, m, n) * LASAGNA_RING.gen("E1") * x
    if fx != tw:
        return False
    return LASAGNA_SPEC.apply("h", x) == Fraction(m - n) * x


def _twisted_verdict(model: TruncatedModule, w: int) -> tuple:
    """(claim ok, Zuckerman summand weights) of a weight-w twisted block
    model, twisted_block(-w/2, w, depth, name): block_claim(w, depth)
    verified on it, and the weights of its locally finite summands in the
    order zuckerman finds them.  The model depends on nothing but w, its
    depth and its name, so every plus block and filtration layer of one
    weight and depth has the same verdict."""
    ok = verify_claim(model, block_claim(w, model.depth))["ok"]
    return ok, tuple(s["lambda"] for s in zuckerman(model)["summands"])


def _finite_weights(w: int, depth: int) -> list:
    """The Zuckerman weights a weight-w block claims to depth: w - 4j >= 0
    and even, in decreasing order."""
    return [w - 4 * j for j in range(depth // 4 + 1)
            if w - 4 * j >= 0 and (w - 4 * j) % 2 == 0]


def mplus_decomposition(depth: int = 20, mn_max: int | None = None) -> dict:
    """Per-block claim verification for the plus part, for m, n <= mn_max
    (by default min(depth // 2, 12), the range of the locally finite
    generators that summary_report lists).

    Block (m, n) is the twisted polynomial module on A1^m v^n, of weight
    w = m - n.  It is verified at depth max(depth, 2w + 4), as a filtration
    layer is, so that the dual-Verma witness of weight -w-2 (degree 2w + 2)
    lies inside the truncation.  The block's claim and Zuckerman verdict
    depend on (m, n) only through w, so each is computed once per weight
    and read by every block of that weight; no module is kept.  v^n is
    built once for each n and shared by the blocks' embedding checks."""
    if mn_max is None:
        mn_max = min(depth // 2, 12)
    v = v_poly()
    vpowers = [LASAGNA_RING.one]
    for _ in range(mn_max):
        vpowers.append(vpowers[-1] * v)
    verdicts = {}
    blocks = []
    ok = True
    for m in range(mn_max + 1):
        for n in range(mn_max + 1):
            if not block_embedding_check(m, n, vpowers[n]):
                ok = False
                blocks.append({"m": m, "n": n, "status": "fail",
                               "reason": "embedding"})
                continue
            w = m - n
            block_depth = max(depth, 2 * w + 4)
            key = (w, block_depth)
            if key not in verdicts:
                verdicts[key] = _twisted_verdict(
                    twisted_block(Fraction(-w, 2), w, block_depth,
                                  f"block[m={m},n={n}]"), w)
            claim_ok, lams = verdicts[key]
            zok = sorted(lams, reverse=True) == _finite_weights(w, block_depth)
            ok = ok and claim_ok and zok
            blocks.append({
                "m": m, "n": n, "weight": w, "depth": block_depth,
                "status": "pass" if claim_ok and zok else "fail",
                "zuckerman": [{"kind": "L", "lambda": lam} for lam in lams],
            })
    return {"depth": depth, "ok": ok, "blocks": blocks,
            "caveat": f"blockwise, certified to depth {depth} or more"}


# -- minus part -------------------------------------------------------------

def minus_block(ell: int, depth: int = 20) -> TruncatedModule:
    """Span of A1^m A0^(-n) with m - n = ell, n >= 1, over the base ring."""
    if abs(ell) > depth:
        raise LasagnaError("|ell| exceeds depth")
    keys = []
    for a in range(depth // 2 + 1):
        for b in range(depth // 4 + 1):
            for n in range(1, depth + 1):
                m = n + ell
                if m < 0 or 2 * a + 4 * b + m + n > depth:
                    continue
                keys.append(_lkey(a, b, m, -n))
    return TruncatedModule(LASAGNA_RING, LASAGNA_SPEC, keys, depth,
                           name=f"minus[{ell}]")


def minus_block_split_check(depth: int = 12, ell_range=range(-2, 3)) -> bool:
    """Block closure: e, f, h keep each minus block inside itself (boundary
    losses aside), and the blocks partition the minus part."""
    full = b2s2_module(depth, side="minus")
    covered = set()
    for ell in ell_range:
        blk = minus_block(ell, depth)
        covered.update(blk.basis)
        for g in GENERATORS:
            # columns compared as numerators over one denominator
            bden, btable = blk.tables[g]
            fden, ftable = full.tables[g]
            for k in blk.basis:
                if k in blk.boundary_loss[g] or k in full.boundary_loss[g]:
                    continue
                img = {k2: c * fden for k2, c in btable.get(k, {}).items()}
                direct = {k2: c * bden for k2, c in ftable.get(k, {}).items()}
                if img != direct:
                    return False
    leftover = [
        k for k in full.basis
        if k not in covered and _kparts(k)[2] - (-_kparts(k)[3]) in ell_range
    ]
    return not leftover


def strictness(ell: int, r: int, depth: int = 20) -> bool:
    """S_(ell,r) properly contains S_(ell,r+1) iff a generator with A1-power
    exactly r exists in the block: r >= max(0, ell+1)."""
    n = r - ell
    return r >= 0 and n >= 1 and r + n <= depth


def filtration_quotient(ell: int, r: int, depth: int = 20) -> dict:
    """The layer S_(ell,r)/S_(ell,r+1) as a twisted polynomial module with
    weight 2r - ell, verified against the minus-block action and against the
    claimed Verma/dual-Verma stack."""
    blk = minus_block(ell, depth) if strictness(ell, r, depth) else None
    return _layer_report(blk, ell, r, depth, {})


def _layer_report(blk: TruncatedModule | None, ell: int, r: int,
                  depth: int, verdicts: dict) -> dict:
    """filtration_quotient(ell, r, depth) on a given minus_block(ell, depth);
    blk is read only when the layer is strict.

    The layer's model is twisted_block(-w/2, w, model_depth) with
    w = 2r - ell.  Its claim and Zuckerman verdict come from ``verdicts``,
    keyed by (w, model_depth), and are computed and stored there when
    missing.  The model is built only when the verdict is missing or the
    layer is strict, where its action is compared with the block's."""
    if r < 0:
        raise LasagnaError("r must be non-negative")
    w = 2 * r - ell
    # the dual-Verma witness of weight -w-2 sits at degree 2w+2
    model_depth = max(depth, 2 * w + 4)
    key = (w, model_depth)
    report = {
        "ell": ell, "r": r, "weight": w, "depth": depth,
        "strict": strictness(ell, r, depth), "checks": [], "ok": True,
    }
    model = None
    if report["strict"] or key not in verdicts:
        model = twisted_block(Fraction(-w, 2), w, model_depth,
                              f"layer[ell={ell},r={r}]")

    def record(name, ok):
        report["checks"].append({"check": name,
                                 "status": "pass" if ok else "fail"})
        report["ok"] = report["ok"] and ok

    if report["strict"]:
        # the block's table columns modulo higher A1-powers against the model's
        n = r - ell
        agree = True
        for g in GENERATORS:
            bden, btable = blk.tables[g]
            mden, mtable = model.tables[g]
            for a, b in model.basis:
                k = _lkey(a, b, r, -n)
                if k not in blk.index or k in blk.boundary_loss[g] \
                        or (a, b) in model.boundary_loss[g]:
                    continue
                proj = {}
                for k2, c in btable.get(k, {}).items():
                    a2, b2, m2, _ = _kparts(k2)
                    if m2 == r:
                        proj[(a2, b2)] = c * mden
                    elif m2 < r:
                        agree = False
                want = {k2: c * bden
                        for k2, c in mtable.get((a, b), {}).items()}
                if proj != want:
                    agree = False
        record("layer action matches twisted model", agree)
    if key not in verdicts:
        verdicts[key] = _twisted_verdict(model, w)
    claim_ok, lams = verdicts[key]
    record("layer decomposition claim", claim_ok)
    record("layer Zuckerman part",
           sorted(lams, reverse=True) == _finite_weights(w, model_depth))
    return report


def minus_side_checks(depth: int = 20) -> tuple:
    """(layers ok, no finite part) for ell in -2..2: the filtration layers
    (ell, r), r = 0..4, and the Zuckerman check of each minus block.  The
    same verdicts as filtration_quotient over that grid, but
    minus_block(ell, depth) is built once per ell and dropped before the
    next one is built, and the layer models' claim and Zuckerman verdicts
    are computed once per (weight, model depth): the 25 layers have 13
    weights."""
    layers_ok = True
    finite_free = True
    verdicts = {}
    for ell in range(-2, 3):
        blk = minus_block(ell, depth)
        for r in range(5):
            layers_ok = (_layer_report(blk, ell, r, depth, verdicts)["ok"]
                         and layers_ok)
        finite_free = finite_free and not zuckerman(blk)["summands"]
        del blk
    return layers_ok, finite_free


# -- summary ----------------------------------------------------------------

def _finite_part_from_plus(generators, blocks, mn_max: int) -> bool:
    """The listed generators (m, n, j) of the locally finite part against
    the Zuckerman summands of the computed plus blocks: in each block
    (m, n), the listed weights are exactly the summand weights lambda with
    m + n + 4j = 2m - lambda <= mn_max."""
    for b in blocks:
        if "zuckerman" not in b:
            return False
        m, n = b["m"], b["n"]
        listed = sorted(g["lambda"] for g in generators
                        if (g["m"], g["n"]) == (m, n))
        found = sorted(s["lambda"] for s in b["zuckerman"]
                       if 2 * m - s["lambda"] <= mn_max)
        if listed != found:
            return False
    return True


def summary_report(depth: int = 20) -> dict:
    """Eight certified claims on the ball and disk-sphere modules, each to
    filtration depth ``depth`` (the ball to at least 40).

    The plus side runs through mplus_decomposition, and the minus side
    through minus_side_checks, which builds each minus block once for its
    five filtration layers and its Zuckerman check; each verifies one
    twisted model per weight and depth.  The last claim lists the locally
    finite generators (m, n, j) with m + n + 4j <= min(depth // 2, 12);
    ``detail.checked`` counts those compared with a computed plus block.
    The plus blocks cover m, n <= min(depth // 2, 12), so every listed
    generator is checked.
    """
    if depth < 6:
        raise LasagnaError("depth must be at least 6")
    lines = []

    def line(name, ok, detail=None):
        entry = {"claim": name, "status": "pass" if ok else "fail",
                 "depth": depth}
        if detail is not None:
            entry["detail"] = detail
        lines.append(entry)

    ball = b4_report(max(depth, 40))
    line("ball module is Mdual(0) + sum of M(-4j)", ball["ok"],
         {"depth": ball["depth"]})

    line("closed f-power formula matches iteration", closed_form_check())
    line("vanishing/non-vanishing of f-strings", vanishing_check())

    plus = mplus_decomposition(depth)
    line("plus part splits blockwise into Verma/dual-Verma stacks",
         plus["ok"])

    line("minus part splits into weight blocks",
         minus_block_split_check(min(depth, 12)))
    filt_ok, minus_finite_ok = minus_side_checks(depth)
    line("minus filtration layers are twisted polynomial modules", filt_ok)
    line("minus part contributes nothing to the locally finite part",
         minus_finite_ok)

    gm = []
    mn_max = min(depth // 2, 12)
    for m in range(mn_max + 1):
        for n in range(mn_max + 1):
            for j in range(depth // 4 + 1):
                lam = m - n - 4 * j
                if lam >= 0 and lam % 2 == 0 and m + n + 4 * j <= mn_max:
                    gm.append({"m": m, "n": n, "j": j, "lambda": lam})
    # only generators inside a computed plus block are compared
    computed = {(b["m"], b["n"]) for b in plus["blocks"]}
    checked = sum((g["m"], g["n"]) in computed for g in gm)
    line("locally finite part comes from the plus side",
         minus_finite_ok and _finite_part_from_plus(gm, plus["blocks"], mn_max),
         {"generators": len(gm), "checked": checked})

    ok = all(entry["status"] == "pass" for entry in lines)
    return {"depth": depth, "ok": ok, "claims": lines,
            "caveat": f"all statements certified to filtration depth {depth}"}
