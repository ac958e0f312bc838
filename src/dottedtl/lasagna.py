"""The two four-manifold coefficient modules as truncated sl2-modules.

The ball gives Q[E1,E2]; the twisted product of a disk and a sphere gives
the Laurent module Q[E1,E2][A0^{+-1}, A1].  Both carry the derivation
action from sl2core; everything here reduces their decompositions to
finite certified computations: highest-weight vectors, the closed f-power
formula on the v-basis, the minus-side filtration, and a summary report.
That the minus part holds nothing locally finite is read, for every depth,
off the spec's f-shifts.

Plus blocks and minus filtration layers share one verdict per (weight, depth),
and each is one twist step from the cached untwisted block of its depth.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod

from .ring import E_RING, LASAGNA_RING, GradedPoly, delta, mul_terms
from .sl2 import BASE_SPEC, GENERATORS, LASAGNA_SPEC
from .rep import (
    ClaimPart,
    DecompositionClaim,
    ModuleTwist,
    TruncatedModule,
    _numerators,
    verify_claim,
    zuckerman,
)

# the checked v-basis elements delta^j A1^m v^n (j, m, n < VBASIS_SIZE),
# f-powers f^r (r <= F_POWER_MAX), minus blocks ell and layers (ell, r)
VBASIS_SIZE = 4
F_POWER_MAX = 6
MINUS_ELLS = range(-2, 3)
LAYER_RS = range(5)
# a cost cap, not a mathematical bound: with 20 in its place
# summary_report(40) still passes, checking 100 generators instead of 34 in
# about 1.7 times the time
GENERATOR_CAP = 12

# exponent order in LASAGNA_RING keys
_IDX = LASAGNA_RING.index


def _lkey(a=0, b=0, m=0, i=0):
    key = [0] * len(_IDX)
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


@lru_cache(maxsize=16)
def _base_block(depth: int) -> TruncatedModule:
    """Q[E1,E2] truncated at depth with the untwisted action, built once per
    process and depth: the ball, and the source of every twisted block."""
    return TruncatedModule(BASE_SPEC, _poly_keys(depth), depth, name="ball")


def b4_module(depth: int = 40) -> TruncatedModule:
    """Q[E1,E2] with the untwisted action: the weight-0 block."""
    if depth < 4:
        raise LasagnaError("depth must be at least 4")
    return _base_block(depth)


def b4_report(depth: int = 40) -> dict:
    """block_claim(0, depth) on the ball: M*(0) plus one Verma M(-4j)
    generated by each power of the discriminant."""
    m = b4_module(depth)
    rep = verify_claim(m, block_claim(0, depth))
    rep["hwv_weights"] = [lam for lam in sorted(set(m.weights.values()),
                                                reverse=True)
                          if m.highest_weight_vectors(lam)]
    z = zuckerman(m)
    rep["zuckerman"] = z["summands"]
    rep["ok"] = rep["ok"] and not z["unclassified"] \
        and z["summands"] == [{"kind": "L", "lambda": 0}]
    return rep


# -- the Laurent module -----------------------------------------------------

def b2s2_module(depth: int = 20, side: str = "all") -> TruncatedModule:
    """The Laurent module, or its plus (A0-exponent >= 0) / minus part."""
    if depth < 6:
        raise LasagnaError("depth must be at least 6")
    if side not in ("all", "plus", "minus"):
        raise LasagnaError(f"unknown side {side!r}")
    keys = []
    for a, b in _poly_keys(depth):
        for m in range(depth - 2 * a - 4 * b + 1):
            rest = depth - 2 * a - 4 * b - m
            lo = 0 if side == "plus" else -rest
            hi = -1 if side == "minus" else rest
            keys.extend(_lkey(a, b, m, i) for i in range(lo, hi + 1))
    return TruncatedModule(LASAGNA_SPEC, keys, depth,
                           name=f"disk-sphere[{side}]")


# -- the v-basis and the closed f-power formula -----------------------------

@lru_cache(maxsize=64)
def _delta_power(j: int) -> GradedPoly:
    """delta^j in Q[E1,E2], built once per process from delta^(j-1)."""
    if j < 2:
        return delta() if j else E_RING.one
    return _delta_power(j - 1) * _delta_power(1)


def _scaled(vec: dict, c) -> dict:
    return {k: c * n for k, n in vec.items()} if c else {}


def _vbasis(j_max: int, mn_max: int) -> dict:
    """{(j, m, n): delta^j A1^m v^n up to a positive constant, as an int
    vector} for j <= j_max and m, n <= mn_max, with v = A0 - E1*A1/2 and
    each v^n made once, as (2v)^n."""
    vn = [{_lkey(): 1}]
    for _ in range(mn_max):
        vn.append(mul_terms(vn[-1], {_lkey(i=1): 2, _lkey(a=1, m=1): -1}))
    dj = [{_lkey(a, b): c.numerator
           for (a, b), c in _delta_power(j).terms.items()}
          for j in range(j_max + 1)]
    return {(j, m, n): mul_terms(mul_terms(dj[j], vn[n]), {_lkey(m=m): 1})
            for j, m, n in product(range(j_max + 1), range(mn_max + 1),
                                   range(mn_max + 1))}


def gamma(j: int, m: int, n: int) -> Fraction:
    return 2 * j + Fraction(n - m, 2)


def _closed_form_numerators(g: Fraction, r: int) -> tuple:
    """(den, {key: int}): the Q[E1,E2] factor c_r of the closed f-power
    formula f^r(delta^j A1^m v^n) = c_r delta^j A1^m v^n over den: the sum
    over k + 2a = r of (-1)^a ((k+2a)...(k+1)/a!) (g)...(g+r-a-1) E1^k E2^a,
    with g = gamma(j, m, n)."""
    terms = {}
    for a in range(r // 2 + 1):
        k = r - 2 * a
        desc = prod(range(k + 1, k + 2 * a + 1)) // factorial(a)
        c = (-1) ** a * desc * prod(g + t for t in range(r - a))
        if c:
            terms[_lkey(a=k, b=a)] = c
    return _numerators(terms)


def closed_form_check() -> bool:
    """Closed formula equals iterated f, f^r for r <= F_POWER_MAX, on the
    whole v-basis grid (exact, no truncation), on int numerators: f steps
    by the spec's derive over den["f"], c_r is made once per (gamma, r) per
    call, and f^r(x) = c_r x is compared cross-multiplied."""
    fden = LASAGNA_SPEC.den["f"]
    coeffs = {}
    for (j, m, n), x in _vbasis(VBASIS_SIZE - 1, VBASIS_SIZE - 1).items():
        g = gamma(j, m, n)
        fx = x
        for r in range(1, F_POWER_MAX + 1):
            fx = LASAGNA_SPEC.derive("f", fx)
            if (g, r) not in coeffs:
                coeffs[g, r] = _closed_form_numerators(g, r)
            cden, c = coeffs[g, r]
            if _scaled(fx, cden) != _scaled(mul_terms(c, x), fden ** r):
                return False
    return True


def vanishing_check() -> bool:
    """On the v-basis grid, f^(w+1) kills delta^j A1^m v^n when w = m-n-4j
    is >= 0 and even, and f^w does not (w >= 1): the spec's apply on the
    expanded polynomials."""
    for (j, m, n), x in _vbasis(VBASIS_SIZE - 1, VBASIS_SIZE - 1).items():
        w = m - n - 4 * j
        if w < 0 or w % 2:
            continue
        x = GradedPoly(LASAGNA_RING, {k: Fraction(c) for k, c in x.items()})
        for _ in range(w):
            x = LASAGNA_SPEC.apply("f", x)
        if w and x.is_zero():
            return False
        if not LASAGNA_SPEC.apply("f", x).is_zero():
            return False
    return True


# -- plus part, blockwise ---------------------------------------------------

def twisted_block(w: int, depth: int, name: str) -> TruncatedModule:
    """Q[E1,E2] with the rank-one twist ModuleTwist(w) of weight shift w:
    one twist step from the cached untwisted block of its depth."""
    return _base_block(depth).twisted(ModuleTwist(w), name)


def block_claim(w: int, depth: int) -> DecompositionClaim:
    """Summand j of a weight-w block, generated by delta^j: dual Verma when
    w-4j is >= 0 and even, Verma otherwise."""
    parts = []
    for j in range(depth // 4 + 1):
        lam = w - 4 * j
        kind = "Mdual" if lam >= 0 and lam % 2 == 0 else "M"
        parts.append(ClaimPart(kind, lam,
                               generator=dict(_delta_power(j).terms)))
    return DecompositionClaim(parts)


def block_embedding_check(m: int, n: int, x: dict) -> bool:
    """The block generator x = A1^m v^n, as _vbasis gives it, is a HWV in
    the Laurent module, f acts on it through the twist gamma(0, m, n)
    exactly and h by m - n: e(x) = 0, f(x) = gamma E1 x and h(x) =
    (m-n) x, on int vectors by the spec's derive, cross-multiplied."""
    derive, g = LASAGNA_SPEC.derive, gamma(0, m, n)
    if derive("e", x):
        return False
    e1x = mul_terms(x, {_lkey(a=1): 1})
    if _scaled(derive("f", x), g.denominator) \
            != _scaled(e1x, g.numerator * LASAGNA_SPEC.den["f"]):
        return False
    return derive("h", x) == _scaled(x, m - n)


def _generator_cap(depth: int) -> int:
    """The bound on m and n of the plus blocks and on m + n + 4j of the
    listed locally finite generators (m, n, j)."""
    return min(depth // 2, GENERATOR_CAP)


@lru_cache(maxsize=128)
def _twisted_verdict(w: int, depth: int) -> tuple:
    """(model depth, claim ok, Zuckerman weights ok, Zuckerman weights) of
    twisted_block(w, model depth), where the model depth max(depth, 2w + 4)
    puts the dual-Verma witness of weight -w-2 (degree 2w + 2) inside the
    truncation: block_claim verified on it, and the weights of its locally
    finite summands, in the order zuckerman finds them, against the
    claimed w - 4j >= 0 and even, with every highest-weight vector
    classified.  The table holds verdicts only."""
    depth = max(depth, 2 * w + 4)
    model = twisted_block(w, depth, f"twisted[w={w}]")
    claim_ok = verify_claim(model, block_claim(w, depth))["ok"]
    z = zuckerman(model)
    lams = tuple(s["lambda"] for s in z["summands"])
    finite = [w - 4 * j for j in range(depth // 4 + 1)
              if w - 4 * j >= 0 and (w - 4 * j) % 2 == 0]
    zok = not z["unclassified"] and sorted(lams, reverse=True) == finite
    return depth, claim_ok, zok, lams


def mplus_decomposition(depth: int = 20) -> dict:
    """Per-block claim verification for the plus part, for m, n <=
    _generator_cap(depth), the range of the locally finite generators that
    summary_report lists.

    Block (m, n) is the twisted polynomial module on A1^m v^n, of weight
    w = m - n, with verdict _twisted_verdict(w, depth).  The generators
    come from one _vbasis call, which makes each v^n once."""
    mn_max = _generator_cap(depth)
    blocks, ok = [], True
    for (_, m, n), x in _vbasis(0, mn_max).items():
        if not block_embedding_check(m, n, x):
            ok = False
            blocks.append({"m": m, "n": n, "status": "fail",
                           "reason": "embedding"})
            continue
        w = m - n
        block_depth, claim_ok, zok, lams = _twisted_verdict(w, depth)
        ok = ok and claim_ok and zok
        blocks.append({
            "m": m, "n": n, "weight": w, "depth": block_depth,
            "status": "pass" if claim_ok and zok else "fail",
            "zuckerman": [{"kind": "L", "lambda": lam} for lam in lams],
        })
    return {"depth": depth, "ok": ok, "blocks": blocks,
            "caveat": f"blockwise, certified to depth {depth} or more"}


# -- minus part -------------------------------------------------------------

def _minus_keys(ell: int, depth: int) -> list:
    """The keys E1^a E2^b A1^m A0^(-n) with m - n = ell, n >= 1, of degree
    at most depth."""
    if abs(ell) > depth:
        raise LasagnaError("|ell| exceeds depth")
    return [_lkey(a, b, n + ell, -n) for a, b in _poly_keys(depth)
            for n in range(max(1, -ell), depth + 1)
            if 2 * a + 4 * b + 2 * n + ell <= depth]


def minus_block(ell: int, depth: int = 20) -> TruncatedModule:
    """Span of A1^m A0^(-n) with m - n = ell, n >= 1, over the base ring."""
    return TruncatedModule(LASAGNA_SPEC, _minus_keys(ell, depth), depth,
                           name=f"minus[{ell}]")


def _layer_rows(ell: int, depth: int) -> TruncatedModule:
    """The keys of minus_block(ell, depth) with A1-power at most
    max(LAYER_RS) + rise, as a module: rise, read off the spec's e- and
    f-shifts, is the most one step raises the A1-power (1 for
    LASAGNA_SPEC).  A key the layers read has A1-power at most
    max(LAYER_RS), so each of its image terms in the block is kept here,
    and its columns and boundary losses equal the block's."""
    a1 = _IDX["A1"]
    rise = max(shift[a1] for g in ("e", "f")
               for _, terms in LASAGNA_SPEC.shifts[g] for shift, _ in terms)
    top = max(LAYER_RS) + rise
    return TruncatedModule(
        LASAGNA_SPEC, [k for k in _minus_keys(ell, depth) if k[a1] <= top],
        depth, name=f"layer-rows[{ell}]")


def minus_block_split_check(depth: int = 12) -> bool:
    """Block closure: e, f, h keep each minus block ell in MINUS_ELLS inside
    itself (boundary losses aside), and those blocks partition the part of
    the minus part with m - n in MINUS_ELLS."""
    full = b2s2_module(depth, side="minus")
    covered = set()
    for ell in MINUS_ELLS:
        blk = minus_block(ell, depth)
        covered.update(blk.basis)
        for g in GENERATORS:
            # columns compared as numerators over one denominator
            bden, btable = blk.tables[g]
            fden, ftable = full.tables[g]
            for k in blk.basis:
                if k in blk.boundary_loss[g] or k in full.boundary_loss[g]:
                    continue
                if _scaled(btable.get(k, {}), fden) \
                        != _scaled(ftable.get(k, {}), bden):
                    return False
    return all(k in covered for k in full.basis
               if _kparts(k)[2] + _kparts(k)[3] in MINUS_ELLS)


def strictness(ell: int, r: int, depth: int = 20) -> bool:
    """S_(ell,r) properly contains S_(ell,r+1) iff a generator with A1-power
    exactly r exists in the block: r >= max(0, ell+1)."""
    n = r - ell
    return r >= 0 and n >= 1 and r + n <= depth


def _layer_report(blk: TruncatedModule | None, ell: int, r: int,
                  depth: int) -> dict:
    """The layer S_(ell,r)/S_(ell,r+1) as a twisted polynomial module with
    weight w = 2r - ell, verified against the action of blk, a module
    holding the keys of minus_block(ell, depth) with A1-power r and their
    images (the block itself, or _layer_rows(ell, depth)), which is read
    only when the layer is strict, and against the claimed
    Verma/dual-Verma stack, the verdict _twisted_verdict(w, depth)."""
    if r < 0:
        raise LasagnaError("r must be non-negative")
    w = 2 * r - ell
    layer_depth, claim_ok, zok, _ = _twisted_verdict(w, depth)
    report = {
        "ell": ell, "r": r, "weight": w, "depth": depth,
        "strict": strictness(ell, r, depth), "checks": [], "ok": True,
    }

    def record(name, ok):
        report["checks"].append({"check": name,
                                 "status": "pass" if ok else "fail"})
        report["ok"] = report["ok"] and ok

    if report["strict"]:
        # the block's table columns modulo higher A1-powers against the model's
        model = twisted_block(w, layer_depth, f"layer[ell={ell},r={r}]")
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
                if proj != _scaled(mtable.get((a, b), {}), bden):
                    agree = False
        record("layer action matches twisted model", agree)
    record("layer decomposition claim", claim_ok)
    record("layer Zuckerman part", zok)
    return report


def minus_f_injectivity_check() -> bool:
    """f is injective on the minus part (A0-exponent <= -1) at every depth,
    and keeps the plus part (A0-exponent >= 0) in itself: read off
    LASAGNA_SPEC.shifts["f"], no f-shift lowers the A0 exponent by more
    than 1, and exactly one lowers it by 1, from the A0 generator (the
    -E2*A1 term of f(A0)), with a nonzero numerator c.

    Why that suffices, for every depth.  By the power rule f(x^p) is the
    sum over generators i and their shifts s of p_i * num * x^(p + s).  Let
    v be a nonzero minus vector and i <= -1 the lowest A0 exponent among
    its monomials.  The terms of f(v) with A0 exponent i - 1 come only from
    the monomials x^p of v with A0 exponent i, through the one lowering
    shift s, as i * c * x^(p + s): i != 0, c != 0 and p -> p + s is
    injective, so that part of f(v) is nonzero, and f(v) is a minus vector
    with lowest A0 exponent i - 1.  Hence f^k(v) != 0 for every k.  On a
    monomial with A0 exponent 0 the factor p_A0 is 0, so the lowering shift
    never takes the plus part out of itself; a vector with a nonzero minus
    component is therefore never killed by a power of f, and the locally
    finite part lies in the plus part.  The depth-truncated Zuckerman pass
    over the minus blocks is a test oracle of this."""
    a0 = _IDX["A0"]
    steps = [(i, shift[a0], num) for i, terms in LASAGNA_SPEC.shifts["f"]
             for shift, num in terms if shift[a0] < 0]
    return len(steps) == 1 and steps[0][:2] == (a0, -1) and steps[0][2] != 0


def minus_side_checks(depth: int = 20) -> tuple:
    """(layers ok, no finite part) for ell in MINUS_ELLS: the filtration
    layers (ell, r), r in LAYER_RS, each read on _layer_rows(ell, depth),
    built once per ell and dropped before the next one is built, and
    minus_f_injectivity_check, which holds at every depth.  The 25 layers
    have 13 weights, and from depth 20 on mplus_decomposition at the same
    depth has verified them."""
    layers_ok = True
    for ell in MINUS_ELLS:
        rows = _layer_rows(ell, depth)
        for r in LAYER_RS:
            layers_ok = (_layer_report(rows, ell, r, depth)["ok"]
                         and layers_ok)
        del rows
    return layers_ok, minus_f_injectivity_check()


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
    through minus_side_checks, which builds the layer rows of each minus
    block once for its five filtration layers and reads "nothing locally
    finite" off the spec's f-shifts; each twisted model is verified once
    across the whole report.  The last claim lists the
    locally finite generators (m, n, j) with m + n + 4j <=
    _generator_cap(depth); ``detail.checked`` counts those compared with a
    computed plus block.  The plus blocks cover m, n <= the same cap, so
    every listed generator is checked.
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

    mn_max = _generator_cap(depth)
    gm = [{"m": m, "n": n, "j": j, "lambda": m - n - 4 * j}
          for m, n, j in product(range(mn_max + 1), range(mn_max + 1),
                                 range(depth // 4 + 1))
          if m - n - 4 * j >= 0 and (m - n) % 2 == 0
          and m + n + 4 * j <= mn_max]
    # only generators inside a computed plus block are compared
    computed = {(b["m"], b["n"]) for b in plus["blocks"]}
    checked = sum((g["m"], g["n"]) in computed for g in gm)
    line("locally finite part comes from the plus side",
         minus_finite_ok and _finite_part_from_plus(gm, plus["blocks"], mn_max),
         {"generators": len(gm), "checked": checked})

    ok = all(entry["status"] == "pass" for entry in lines)
    return {"depth": depth, "ok": ok, "claims": lines,
            "caveat": f"all statements certified to filtration depth {depth}"}
