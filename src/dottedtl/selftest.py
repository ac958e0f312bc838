"""The full certification battery behind the `selftest` CLI command.

Each criterion is a function returning a small report dict with an "ok"
flag; run_all executes them in order from a single seed so the aggregated
report is byte-identical across runs.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import expr, kirby, lasagna, projectors
from .ring import E_RING
from .sl2 import GENERATORS
from .statespace import commutator_star, generator_matrix
from .words import (
    Combo,
    DtlParams,
    Word,
    act,
    identity_word,
    primitive_combo,
    random_word,
    verify_relations,
    zn_combo,
)

DEFAULT_SEED = 20260801

PARAM_SETS = [
    DtlParams(Fraction(0), Fraction(0)),
    DtlParams(Fraction(1), Fraction(0)),
    DtlParams(Fraction(0), Fraction(1, 2)),
    DtlParams(Fraction(-1), Fraction(2)),
]

A2_SAMPLES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-3)]

E1 = E_RING.gen("E1")
E2 = E_RING.gen("E2")

# [h, e] = 2e, [h, f] = -2f, [e, f] = h
BRACKETS = [("h", "e", 2, "e"), ("h", "f", -2, "f"), ("e", "f", 1, "h")]


def _generator_combos():
    return [primitive_combo(p) for p in ("id", "dot", "cup", "cap")]


def _bracket_holds(x: Combo, params: DtlParams) -> bool:
    first = {g: act(g, x, params) for g in GENERATORS}
    for g1, g2, c, gout in BRACKETS:
        lhs = act(g1, first[g2], params) - act(g2, first[g1], params) \
            - first[gout].scale(E_RING.const(c))
        if not lhs.evaluate().is_zero():
            return False
    return True


def criterion_brackets(seed: int = DEFAULT_SEED) -> dict:
    """sl2 commutation relations through the word action."""
    rng = random.Random(seed)
    samples = _generator_combos() + [
        Combo.of(random_word(rng)) for _ in range(50)
    ]
    ok = all(
        _bracket_holds(x, p) for p in PARAM_SETS for x in samples
    )
    return {"name": "sl2 brackets on generators and random words",
            "samples": len(samples), "param_sets": len(PARAM_SETS), "ok": ok}


def criterion_relations() -> dict:
    """Defining diagram relations are preserved by e, f, h."""
    reports = [verify_relations(p, n_max=4) for p in PARAM_SETS]
    return {"name": "relation preservation under the action",
            "params": [r["params"] for r in reports],
            "ok": all(r["ok"] for r in reports)}


def criterion_projectors() -> dict:
    """Projector identities and the symmetrizer oracle."""
    checks = []
    p2 = projectors.jw(2)
    cc = Combo.of(Word((("cap",), ("cup",)))).evaluate()
    checks.append(("p2 closed form",
                   p2 == Combo.of(identity_word(2)).evaluate()
                   - cc.scale(E_RING.const(Fraction(1, 2)))))
    for n in range(7):
        m = projectors.jw(n)
        checks.append((f"p{n} idempotent", projectors.idempotent(n)))
        killed = all(
            (generator_matrix("cap", i, n) * m).is_zero()
            for i in range(n - 1)
        )
        checks.append((f"p{n} kills caps", killed))
        checks.append((f"p{n} equals symmetrizer",
                       m == projectors.jw_bruteforce(n)))
    return {"name": "projectors: idempotent, cap-killing, symmetrizer",
            "checks": [{"check": c, "status": "pass" if ok else "fail"}
                       for c, ok in checks],
            "ok": all(ok for _, ok in checks)}


def criterion_projector_action() -> dict:
    """e and h annihilate p2; f moves a dot across the turnback."""
    p2c = expr._jw_combo(2)
    above = Combo.of(Word((("cap",), ("cup",), ("dot", "id"))))
    below = Combo.of(Word((("dot", "id"), ("cap",), ("cup",))))
    ok = True
    for p in PARAM_SETS:
        if not act("e", p2c, p).evaluate().is_zero():
            ok = False
        if not act("h", p2c, p).evaluate().is_zero():
            ok = False
        want = (above - below).evaluate().scale(
            E_RING.const(Fraction(p.a1, 2)))
        if act("f", p2c, p).evaluate() != want:
            ok = False
    return {"name": "projector action: e, h vanish, f is the dotted turnback",
            "param_sets": len(PARAM_SETS), "ok": ok}


def criterion_eigenmaps() -> dict:
    """Certified eigen-equations for the dotted cup/cap maps and the
    alternating dot sum."""
    ok = True
    detail = []
    for a2 in A2_SAMPLES:
        p = DtlParams(Fraction(0), a2)
        try:
            for n in range(5):
                projectors.un(n, p)
            for n in range(2, 5):
                projectors.dn(n, p)
        except projectors.ProjectorError as exc:
            ok = False
            detail.append(str(exc))
            continue
        for n in range(1, 5):
            zc = zn_combo(n)
            zm = zc.evaluate()
            c = Fraction((-1) ** n - 1, 2)
            ident = Combo.of(identity_word(n)).evaluate()
            if act("e", zc, p).evaluate() != ident.scale(E_RING.const(c)):
                ok = False
            want_f = zm.scale(E1) + ident.scale(E_RING.const(c) * E2)
            if act("f", zc, p).evaluate() != want_f:
                ok = False
            if act("h", zc, p).evaluate() != zm.scale(E_RING.const(-2)):
                ok = False
    return {"name": "dotted cup/cap and dot-sum eigen-equations",
            "a2_samples": [str(a) for a in A2_SAMPLES],
            "detail": detail, "ok": ok}


def criterion_quiver() -> dict:
    """Relations among the cup/cap/dot-sum maps in the projector quotient."""
    reports = [
        projectors.quiver_check(4, DtlParams(Fraction(0), a2))
        for a2 in (Fraction(0), Fraction(1, 2))
    ]
    return {"name": "quiver relations between projector levels",
            "ok": all(r["ok"] for r in reports)}


def criterion_kirby() -> dict:
    """Certified truncated Kirby systems with composite checks."""
    reports = []
    ok = True
    for a2 in (Fraction(0), Fraction(1, 2)):
        for k in (0, 1):
            J = (projectors.JW_TRACKED_BOUND - k) // 2
            try:
                system = kirby.build_kirby(k, J, a2)
            except kirby.KirbyError as exc:
                ok = False
                reports.append({"k": k, "a2": str(a2), "error": str(exc)})
                continue
            comp = kirby.composite_check(system)
            ok = ok and comp["ok"]
            reports.append({"k": k, "J": J, "a2": str(a2),
                            "composites": comp["ok"]})
    return {"name": "Kirby systems certified with composites",
            "systems": reports, "ok": ok}


def criterion_ball() -> dict:
    """The ball module decomposition, with its highest-weight vectors
    pinned to powers of the discriminant."""
    rep = lasagna.b4_report(40)
    m = lasagna.b4_module(40)
    ok = rep["ok"]
    for lam in sorted(set(m.weights.values()), reverse=True):
        vs = m.highest_weight_vectors(lam)
        if lam <= 0 and lam % 4 == 0:
            want = lasagna._delta_power(-lam // 4).terms
            if len(vs) != 1 or not _proportional(vs[0], want):
                ok = False
        elif vs:
            ok = False
    return {"name": "ball module: dual Verma plus discriminant Vermas",
            "depth": 40, "hwv_weights": rep["hwv_weights"], "ok": ok}


def _proportional(v: dict, w: dict) -> bool:
    if set(v) != set(w) or not v:
        return False
    k0 = next(iter(v))
    ratio = Fraction(v[k0]) / Fraction(w[k0])
    return all(Fraction(v[k]) == ratio * Fraction(w[k]) for k in v)


def criterion_closed_form() -> dict:
    """Closed formula for iterated f on the Laurent module generators, and
    the vanishing pattern of the f-strings, for every index."""
    ok = lasagna.closed_form_certificate()
    return {"name": "closed f-power formula and vanishing pattern", "ok": ok}


def criterion_plus_part() -> dict:
    rep = lasagna.mplus_decomposition(20)
    return {"name": "plus part blockwise decomposition", "depth": 20,
            "ok": rep["ok"]}


def criterion_minus_part() -> dict:
    ok = lasagna.minus_split_certificate()
    # S_(ell,r) is strict iff the block has a basis key with A1-power r
    table_ok = True
    for ell in lasagna.MINUS_ELLS:
        powers = {lasagna._kparts(k)[2] for k in lasagna._minus_keys(ell, 20)}
        table_ok &= all(lasagna.strictness(ell, r, 20) == (r in powers)
                        for r in lasagna.LAYER_RS)
    quot_ok, zuck = lasagna.minus_side_checks(20)
    return {"name": "minus part: blocks, filtration layers, no finite part",
            "split": ok, "strictness": table_ok, "layers": quot_ok,
            "no_finite_part": zuck,
            "ok": ok and table_ok and quot_ok and zuck}


def criterion_intrinsic(seed: int = DEFAULT_SEED) -> dict:
    """Word action equals the commutator action at every parameter set, and
    the h-commutator reads off the grading."""
    rng = random.Random(seed + 1)
    samples = _generator_combos() + [
        Combo.of(random_word(rng)) for _ in range(50)
    ]
    ok = True
    for x in samples:
        m = x.evaluate()
        for p in PARAM_SETS:
            for g in GENERATORS:
                if act(g, x, p).evaluate() != commutator_star(g, m, params=p):
                    ok = False
        deg = m.qdegree()
        if deg is not None and not m.is_zero():
            if commutator_star("h", m) != m.scale(E_RING.const(-deg)):
                ok = False
    return {"name": "zero-point action is the commutator; h reads the grading",
            "samples": len(samples), "param_sets": len(PARAM_SETS), "ok": ok}


def criterion_utilities(seed: int = DEFAULT_SEED) -> dict:
    """Parser round-trips of random words."""
    rng = random.Random(seed + 2)
    ok = all(
        expr.roundtrip_equal(Combo.of(random_word(rng))) for _ in range(200)
    )
    return {"name": "parser round-trips", "roundtrips": 200, "ok": ok}


CRITERIA = [
    criterion_brackets,
    criterion_relations,
    criterion_projectors,
    criterion_projector_action,
    criterion_eigenmaps,
    criterion_quiver,
    criterion_kirby,
    criterion_ball,
    criterion_closed_form,
    criterion_plus_part,
    criterion_minus_part,
    criterion_intrinsic,
    criterion_utilities,
]


def run_all(seed: int = DEFAULT_SEED, timings: bool = False) -> dict:
    results = []
    for i, fn in enumerate(CRITERIA, 1):
        t0 = time.time()
        if fn in (criterion_brackets, criterion_intrinsic,
                  criterion_utilities):
            rep = fn(seed)
        else:
            rep = fn()
        rep = dict(rep)
        rep["criterion"] = i
        if timings:
            rep["seconds"] = round(time.time() - t0, 2)
        results.append(rep)
    return {
        "seed": seed,
        "criteria": results,
        "ok": all(r["ok"] for r in results),
    }
