"""The two four-manifold coefficient modules as truncated sl2-modules.

The ball gives Q[E1,E2]; the twisted product of a disk and a sphere gives
the Laurent module Q[E1,E2][A0^{+-1}, A1].  Both carry the derivation
action from sl2; their decompositions reduce to highest-weight vectors and
Zuckerman parts of truncated blocks, and to five certificates read off
the specs for every index: the closed f-power formula on the v-basis with
its vanishing pattern, the plus blocks A1^m v^n as twisted blocks, the
minus part's split into weight blocks, the minus filtration layers as
twisted blocks, and f's injectivity on the minus part.  summary_report
labels each claim with the depth it was checked at, or "all".

Plus blocks and minus filtration layers share one verdict per (weight,
depth), each a twist of the cached untwisted block of its depth that only
shifts the weights; rep classifies their generators delta^j, f-eigenvectors,
and finds their dual-Verma witnesses off the closed form, with no f-walk.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

from .ring import E_RING, LASAGNA_RING, GradedPoly, delta
from .sl2 import BASE_SPEC, LASAGNA_SPEC, TwistData
from .rep import (
    ClaimPart,
    DecompositionClaim,
    ModuleTwist,
    TruncatedModule,
    f_string_certificate,
    verify_claim,
    zuckerman,
)

# the minus blocks ell and their filtration layers (ell, r)
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


# -- the generators and the closed f-power formula --------------------------

@lru_cache(maxsize=64)
def _delta_power(j: int) -> GradedPoly:
    """delta^j in Q[E1,E2], built once per process from delta^(j-1)."""
    if j < 2:
        return delta() if j else E_RING.one
    return _delta_power(j - 1) * _delta_power(1)


def gamma(j: int, m: int, n: int) -> Fraction:
    return 2 * j + Fraction(n - m, 2)


@lru_cache(maxsize=1)
def _twist_generators(spec) -> frozenset:
    """The reads (g, (j, m, n)), f of delta and e, f, h of A1 and of
    v = A0 - E1*A1/2, on which spec.apply gives e(x) = 0, f(x) = gamma E1 x
    and h(x) = (m - n - 4j) x, x = delta^j A1^m v^n: once per spec."""
    ring = spec.ring
    E1, A1 = ring.gen("E1"), ring.gen("A1")
    xs = {(1, 0, 0): delta(ring), (0, 1, 0): A1,
          (0, 0, 1): ring.gen("A0") - Fraction(1, 2) * E1 * A1}
    return frozenset((g, (j, m, n)) for (j, m, n), x in xs.items()
                     for g in ("f" if j else "efh")
                     if spec.apply(g, x) == x * {"e": 0, "h": m - n - 4 * j,
                                                 "f": gamma(j, m, n) * E1}[g])


def closed_form_certificate() -> bool:
    """The closed f-power formula and its vanishing pattern for every
    (j, m, n) and r: f(x) = gamma E1 x for x = delta, A1, v, so for every
    delta^j A1^m v^n, and E1, E2 act as in BASE_SPEC (f_string_certificate)."""
    return {("f", u) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1))} \
        <= _twist_generators(LASAGNA_SPEC) and _lifts_base_spec() \
        and f_string_certificate()


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


def plus_generator_certificate() -> bool:
    """Every plus block (m, n), the Q[E1,E2]-span of A1^m v^n, is
    twisted_block(m - n), for every m and n: read off the spec and the
    twist.

    Through LASAGNA_SPEC.apply, e kills A1 and v, f acts on them by
    gamma(0, 1, 0) E1 and gamma(0, 0, 1) E1 and h by 1 and -1, and E1, E2
    act as in BASE_SPEC.  By the Leibniz rule, then, e, f and h act on
    p A1^m v^n, p in Q[E1,E2], as BASE_SPEC's e(p), f(p) + gamma(0, m, n) E1 p
    and h(p) + (m - n) p: twisted_block(m - n), iff ModuleTwist(m - n) has
    a = gamma(0, m, n) and shift m - n.  Both sides are affine in (m, n),
    so agreeing at (0, 0), (1, 0) and (0, 1) they agree for every (m, n)."""
    return {(g, u) for g in "efh" for u in ((0, 1, 0), (0, 0, 1))} \
        <= _twist_generators(LASAGNA_SPEC) and _lifts_base_spec() and all(
            (ModuleTwist(m - n).a, ModuleTwist(m - n).shift)
            == (gamma(0, m, n), m - n) for m, n in ((0, 0), (1, 0), (0, 1)))


def mplus_decomposition(depth: int = 20) -> dict:
    """Per-block claim verification for the plus part, for m, n <=
    _generator_cap(depth), the range of the locally finite generators that
    summary_report lists.

    Block (m, n) is twisted_block(m - n) by plus_generator_certificate, so
    its verdict is _twisted_verdict(m - n, depth); ok is the certificate
    and every verdict."""
    mn_max = _generator_cap(depth)
    blocks, ok = [], plus_generator_certificate()
    for m, n in product(range(mn_max + 1), repeat=2):
        block_depth, claim_ok, zok, lams = _twisted_verdict(m - n, depth)
        ok = ok and claim_ok and zok
        blocks.append({
            "m": m, "n": n, "weight": m - n, "depth": block_depth,
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


def minus_split_certificate() -> bool:
    """e, f and h keep every minus block ell (the keys A1^m A0^(-n),
    m - n = ell, n >= 1) inside itself, for every ell and every depth: read
    off LASAGNA_SPEC.shifts.

    h is diagonal.  By the power rule e and f send x^p to a sum of terms
    x^(p + s), s a shift of the spec; every e- and f-shift keeps
    A1-exponent + A0-exponent, so each term stays in the block ell of x^p,
    and none raises the A0 exponent, so each stays in the minus part."""
    parts = [_kparts(s) for g in ("e", "f")
             for _, terms in LASAGNA_SPEC.shifts[g] for s, _ in terms]
    return all(m + i == 0 and i <= 0 for _, _, m, i in parts)


def strictness(ell: int, r: int, depth: int = 20) -> bool:
    """S_(ell,r) properly contains S_(ell,r+1) iff a generator with A1-power
    exactly r exists in the block: r >= max(0, ell+1)."""
    n = r - ell
    return r >= 0 and n >= 1 and r + n <= depth


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


def _lifts_base_spec() -> bool:
    """LASAGNA_SPEC acts on E1 and E2 as BASE_SPEC does: equal h-weights,
    and equal e- and f-shifts, none touching A1 or A0."""
    return all(LASAGNA_SPEC.shift_table(g, E_RING.names)
               == BASE_SPEC.shift_table(g) for g in ("e", "f")) \
        and all(LASAGNA_SPEC.h_weights[n] == w
                for n, w in BASE_SPEC.h_weights.items())


def layer_action_certificate() -> bool:
    """Every filtration layer S_(ell,r)/S_(ell,r+1) of every minus block is
    twisted_block(2r - ell), at every depth: read off LASAGNA_SPEC.shifts
    and the twist.

    S_(ell,r) is spanned by the keys of block ell with A1-power >= r, so the
    layer has basis p A1^r A0^(-n), p a monomial in E1, E2, n = r - ell.  By
    the power rule, g = e, f sends it to g(p) A1^r A0^(-n) plus r resp. -n
    times it times each shift term of A1 resp. A0.  Hence the checks: each
    e- and f-shift of A1 and A0 raises the A1-power (zero in the layer) or
    leaves both A-exponents alone (a term of alpha_g(A1) or alpha_g(A0) in
    Q[E1,E2]), and E1, E2 act as in BASE_SPEC.  Then g acts on the layer as
    BASE_SPEC's g plus r alpha_g(A1) - n alpha_g(A0), and h as p's weight
    plus r h(A1) - n h(A0): the twist ModuleTwist(r + n), r + n = 2r - ell,
    iff these equal TwistData(ModuleTwist(r + n).a).tau(g) and
    ModuleTwist(r + n).shift.  Both sides are affine in (r, n), the right
    ones since ModuleTwist(s).a = -s/2 and tau is linear in a, so agreeing
    at (0, 0), (1, 0) and (0, 1) they agree for every (r, n)."""
    if not _lifts_base_spec():
        return False
    alpha = {(g, name): {} for g in ("e", "f") for name in ("A1", "A0")}
    for g in ("e", "f"):
        for i, terms in LASAGNA_SPEC.shifts[g]:
            name = LASAGNA_RING.names[i]
            for s, c in terms:
                e1, e2, m, a0 = _kparts(s)
                if name in ("A1", "A0") and m <= 0:
                    if m or a0:  # lowers the A1-power, or moves A0 alone
                        return False
                    alpha[g, name][e1, e2] = Fraction(c, LASAGNA_SPEC.den[g])
    alpha = {key: GradedPoly(E_RING, p) for key, p in alpha.items()}
    hw = LASAGNA_SPEC.h_weights
    for r, n in ((0, 0), (1, 0), (0, 1)):
        twist = ModuleTwist(r + n)
        if r * hw["A1"] - n * hw["A0"] != twist.shift or any(
                r * alpha[g, "A1"] - n * alpha[g, "A0"]
                != TwistData(twist.a).tau(g) for g in ("e", "f")):
            return False
    return True


def minus_side_checks(depth: int = 20) -> tuple:
    """(layers ok, no finite part) for ell in MINUS_ELLS, building no module
    and making no twist: layer_action_certificate, and the verdicts
    _twisted_verdict(2r - ell, depth) of the layers' models, r in LAYER_RS
    (13 weights, cached by mplus_decomposition(depth) from depth 20 on);
    minus_f_injectivity_check."""
    layers_ok = layer_action_certificate() and all(
        all(_twisted_verdict(2 * r - ell, depth)[1:3])
        for ell in MINUS_ELLS for r in LAYER_RS)
    return layers_ok, minus_f_injectivity_check()


# -- summary ----------------------------------------------------------------

def _finite_part_from_plus(generators, blocks, mn_max: int) -> bool:
    """The listed generators (m, n, j) of the locally finite part against
    the Zuckerman summands of the computed plus blocks: in each block
    (m, n), the listed weights are exactly the summand weights lambda with
    m + n + 4j = 2m - lambda <= mn_max."""
    for b in blocks:
        m, n = b["m"], b["n"]
        listed = sorted(g["lambda"] for g in generators
                        if (g["m"], g["n"]) == (m, n))
        found = sorted(s["lambda"] for s in b["zuckerman"]
                       if 2 * m - s["lambda"] <= mn_max)
        if listed != found:
            return False
    return True


def summary_report(depth: int = 20) -> dict:
    """Eight certified claims on the ball and disk-sphere modules, each with
    the depth it was checked at, or "all" for the certificates that hold at
    every depth; the caveat names the truncated claims.

    The ball is checked to depth max(depth, 40); the plus blocks and the
    minus filtration layers are twisted blocks at every index, with
    truncated verdicts, which minus_side_checks reads from
    mplus_decomposition's cache: each twisted model is verified once and
    the ball is the only module built.  The last claim lists the locally
    finite generators (m, n, j) with m + n + 4j <= _generator_cap(depth).
    """
    if depth < 6:
        raise LasagnaError("depth must be at least 6")
    lines = []

    def line(name, ok, at=depth, detail=None):
        entry = {"claim": name, "status": "pass" if ok else "fail",
                 "depth": at}
        if detail is not None:
            entry["detail"] = detail
        lines.append(entry)

    ball = b4_report(max(depth, 40))
    line("ball module is Mdual(0) + sum of M(-4j)", ball["ok"], ball["depth"])

    closed_ok = closed_form_certificate()
    line("closed f-power formula matches iteration", closed_ok, "all")
    line("vanishing/non-vanishing of f-strings", closed_ok, "all")

    plus = mplus_decomposition(depth)
    line("plus part splits blockwise into Verma/dual-Verma stacks",
         plus["ok"])

    line("minus part splits into weight blocks", minus_split_certificate(),
         "all")
    filt_ok, minus_finite_ok = minus_side_checks(depth)
    line("minus filtration layers are twisted polynomial modules", filt_ok)
    line("minus part contributes nothing to the locally finite part",
         minus_finite_ok, "all")

    mn_max = _generator_cap(depth)
    gm = [{"m": m, "n": n, "j": j, "lambda": m - n - 4 * j}
          for m, n, j in product(range(mn_max + 1), range(mn_max + 1),
                                 range(depth // 4 + 1))
          if m - n - 4 * j >= 0 and (m - n) % 2 == 0
          and m + n + 4 * j <= mn_max]
    line("locally finite part comes from the plus side",
         minus_finite_ok and _finite_part_from_plus(gm, plus["blocks"], mn_max),
         detail={"generators": len(gm)})

    ok = all(entry["status"] == "pass" for entry in lines)
    truncated = "; ".join(f"{c['claim']} (depth {c['depth']})"
                          for c in lines if c["depth"] != "all")
    return {"depth": depth, "ok": ok, "claims": lines,
            "caveat": f"certified to a finite depth: {truncated}; "
                      "the other claims hold at every depth"}
