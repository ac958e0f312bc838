"""Truncated sl2-module analysis.

Modules here are finite slices of polynomial-type modules: a monomial basis
with integer h-weights and sparse e/f/h matrices generated from a
derivation spec, each stored as int numerators over one denominator.
Truncation is by filtration degree; any action image that escapes the
stored basis is flagged, never silently dropped, and every report carries
its depth.  Walks along e and f run on int numerators and leave the
denominator aside: scaling a vector changes no zero test and no nullspace.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import exactla
from .ring import PolyRing
from .sl2 import GENERATORS, Sl2ActionSpec, add_term

class RepError(Exception):
    pass


@dataclass(frozen=True)
class ModuleTwist:
    """Rank-one twist: f gains a*E1*x, h gains a constant weight shift."""

    a: Fraction
    shift: int


def _numerators(vec: dict) -> tuple:
    """(den, {key: int}) with vec = {key: int / den}."""
    den = lcm(1, *(c.denominator for c in vec.values()))
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in vec.items()}


class TruncatedModule:
    """Finite truncation of an sl2-module with monomial basis.

    basis keys are ring exponent tuples; vectors are {key: Fraction} dicts.
    ``tables[g]`` is (den, {key: {key2: int}}): g(x^key) is the sum of
    n / den * x^key2 over its column.  No numerator is zero, and den is
    coprime to the table's numerators.
    """

    def __init__(self, ring: PolyRing, spec: Sl2ActionSpec, keys, depth: int,
                 twist: ModuleTwist | None = None, name: str = ""):
        self.ring = ring
        self.spec = spec
        self.depth = depth
        self.twist = twist
        self.name = name
        self.basis = sorted(keys)
        self.index = {k: i for i, k in enumerate(self.basis)}
        shift = twist.shift if twist else 0
        self.weights = {
            k: spec.weight_of_monomial(k) + shift for k in self.basis
        }
        self.tables: dict = {}
        self.boundary_loss: dict = {g: set() for g in GENERATORS}
        self._build_action()

    @property
    def action(self) -> dict:
        """The tables as {g: {key: {key2: Fraction}}}, built on each access;
        writing into it changes nothing in the module."""
        return {g: {k: {k2: Fraction(c, den) for k2, c in col.items()}
                    for k, col in table.items()}
                for g, (den, table) in self.tables.items()}

    def _build_action(self):
        """e/f/h tables from the spec's monomial kernel, one column per basis
        key; the twist adds a*x^(k+E1) to f(x^k) and shift*x^k to h(x^k) in
        the same column.  The kernel derives the int coefficient den/den[g],
        so a column holds numerators over den, the lcm of the spec's and the
        twist's denominators; the table is then divided by the gcd of den
        and its numerators.  An image term outside the basis is dropped from
        the table and the key is recorded in ``boundary_loss``."""
        derive = self.spec.derive_monomial
        index = self.index
        a = Fraction(self.twist.a) if self.twist else 0
        shift = self.twist.shift if self.twist else 0
        e1 = self.ring.index["E1"] if a else None
        for g in GENERATORS:
            sden = self.spec.den[g]
            den = lcm(sden, a.denominator) if g == "f" and a else sden
            table = {}
            loss = self.boundary_loss[g]
            for k in self.basis:
                img = derive(g, k, den // sden, {})
                if g == "f" and a:
                    add_term(img, k[:e1] + (k[e1] + 1,) + k[e1 + 1:],
                             a.numerator * (den // a.denominator))
                elif g == "h" and shift:
                    add_term(img, k, shift)
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
            if content > 1:
                den //= content
                table = {k: {k2: c // content for k2, c in col.items()}
                         for k, col in table.items()}
            self.tables[g] = (den, table)
        hden, htable = self.tables["h"]
        for k in self.basis:
            hcol = htable.get(k, {})
            if set(hcol) - {k} or hcol.get(k, 0) != self.weights[k] * hden:
                raise RepError(f"h is not diagonal with the stated weight at {k}")

    # -- vector helpers -----------------------------------------------------

    def _step(self, g: str, ivec: dict) -> dict:
        """den * g(ivec) for an int vector, den being g's table
        denominator."""
        out: dict = {}
        table = self.tables[g][1]
        for k, c in ivec.items():
            for k2, n in table.get(k, {}).items():
                s = out.get(k2, 0) + c * n
                if s:
                    out[k2] = s
                else:
                    del out[k2]
        return out

    def apply(self, g: str, vec: dict) -> dict:
        den, ivec = _numerators(vec)
        den *= self.tables[g][0]
        return {k: Fraction(c, den) for k, c in self._step(g, ivec).items()}

    def lossy(self, g: str, vec: dict) -> bool:
        return any(k in self.boundary_loss[g] for k in vec)

    def iterate_f(self, ivec: dict, r: int):
        """(a positive multiple of f^r(ivec), steps actually completed before
        hitting the boundary), on int vectors."""
        for step in range(r):
            if self.lossy("f", ivec):
                return ivec, step
            ivec = self._step("f", ivec)
        return ivec, r

    def _e_matrix(self, keys) -> tuple:
        """(targets, rows): e's numerator matrix on the given keys, one row
        per key in targets, the keys that e reaches from them."""
        etable = self.tables["e"][1]
        cols = [etable.get(k, {}) for k in keys]
        targets = list(dict.fromkeys(t for col in cols for t in col))
        return targets, [[col.get(t, 0) for col in cols] for t in targets]

    # -- structure ----------------------------------------------------------

    def character(self) -> dict:
        return dict(Counter(self.weights[k] for k in self.basis))

    def highest_weight_vectors(self, lam: int):
        """Basis of ker(e) inside the weight-lam space (e never escapes)."""
        keys = [k for k in self.basis if self.weights[k] == lam]
        return [
            {k: c for k, c in zip(keys, v) if c}
            for v in exactla.nullspace(self._e_matrix(keys)[1], len(keys))
        ]

    def classify_cyclic(self, vec: dict, lam: int) -> str:
        """L or M for the cyclic module of a highest-weight vector."""
        ivec = _numerators(vec)[1]
        if self._step("e", ivec):
            raise RepError("not a highest-weight vector")
        if lam >= 0:
            img, done = self.iterate_f(ivec, lam + 1)
            if done < lam + 1:
                raise RepError(
                    f"truncation too shallow for the f^{lam + 1} test"
                )
            return "L" if not img else "M"
        while not self.lossy("f", ivec):
            ivec = self._step("f", ivec)
            if not ivec:
                raise RepError(
                    f"f-string of a weight-{lam} highest-weight vector "
                    "terminated; not a Verma module"
                )
        return "M"


# -- claims -----------------------------------------------------------------

@dataclass
class ClaimPart:
    kind: str                    # M, Mdual, L
    lam: int
    generator: dict | None = None   # vector in module basis keys


@dataclass
class DecompositionClaim:
    parts: list = field(default_factory=list)

    def character(self, w_min: int, w_max: int) -> dict:
        out = {w: 0 for w in range(w_min, w_max + 1)}
        for p in self.parts:
            if p.kind not in ("L", "M", "Mdual"):
                raise RepError(f"unknown summand kind {p.kind!r}")
            for w in out:
                # L(lam) has the weights lam, lam - 2, ..., -lam
                if (w - p.lam) % 2 == 0 and w <= p.lam \
                        and (p.kind != "L" or w >= -p.lam):
                    out[w] += 1
        return {w: d for w, d in out.items() if d}


def _in_image_of_e(m: TruncatedModule, target: dict, weight: int) -> bool:
    """Whether e(u) = target for some u of the given weight.  target is an
    int vector, and e is solved on its numerators: that rescales u only, so
    the answer holds for every multiple of target."""
    keys = [k for k in m.basis if m.weights[k] == weight]
    targets, rows = m._e_matrix(keys)
    if not keys or not set(target).issubset(targets):
        return False
    return exactla.solve(rows, [target.get(t, 0) for t in targets]) is not None


def verify_claim(m: TruncatedModule, claim: DecompositionClaim,
                 depth: int | None = None) -> dict:
    """Character + generator + dual-Verma-witness verification of a claimed
    direct-sum decomposition, within the stated depth."""
    depth = m.depth if depth is None else depth
    report = {"module": m.name, "depth": depth, "checks": [], "ok": True}

    def record(name, ok, detail=None):
        entry = {"check": name, "status": "pass" if ok else "fail"}
        if detail is not None:
            entry["detail"] = detail
        report["checks"].append(entry)
        if not ok:
            report["ok"] = False

    full_char = m.character()
    w_max = max(full_char) if full_char else 0
    # degree-complete weight window: below w_max - depth monomials are cut off
    w_min = w_max - depth
    want = claim.character(w_min, w_max)
    got = {w: d for w, d in full_char.items() if w_min <= w <= w_max}
    record("character", want == got,
           None if want == got else {"claimed": want, "module": got})

    for p in claim.parts:
        label = f"{p.kind}({p.lam})"
        if p.generator is None:
            continue
        v = p.generator
        if m.apply("e", v):
            record(f"{label} generator is HWV", False)
            continue
        hv = m.apply("h", v)
        is_weight = all(
            hv.get(k, Fraction(0)) == p.lam * c for k, c in v.items()
        ) and len(hv) == (len(v) if p.lam else 0)
        record(f"{label} generator weight", is_weight)
        if p.kind in ("L", "M"):
            try:
                got_kind = m.classify_cyclic(v, p.lam)
            except RepError as exc:
                record(f"{label} classification", False, str(exc))
                continue
            record(f"{label} classification", got_kind == p.kind,
                   {"classified": got_kind})
        elif p.kind == "Mdual":
            # finite part: L(lam) inside; witness that it extends upward
            try:
                cls = m.classify_cyclic(v, p.lam)
            except RepError as exc:
                record(f"{label} socle classification", False, str(exc))
                continue
            record(f"{label} socle is L", cls == "L", {"classified": cls})
            low, done = m.iterate_f(_numerators(v)[1], max(p.lam, 0))
            if done < max(p.lam, 0):
                record(f"{label} extension witness", False,
                       "truncation too shallow")
                continue
            hit = _in_image_of_e(m, low, -p.lam - 2)
            record(f"{label} extension witness", hit,
                   {"witness_weight": -p.lam - 2} if hit else None)
    return report


def zuckerman(m: TruncatedModule, depth: int | None = None) -> dict:
    """Largest locally finite part visible in the truncation: the span of the
    finite cyclic modules of HWVs passing the f^(lam+1) = 0 test."""
    depth = m.depth if depth is None else depth
    found = []
    weights = sorted({w for w in m.weights.values() if w >= 0}, reverse=True)
    for lam in weights:
        for v in m.highest_weight_vectors(lam):
            try:
                kind = m.classify_cyclic(v, lam)
            except RepError:
                continue
            if kind == "L":
                found.append({"lambda": lam, "generator": v})
    dim = sum(p["lambda"] + 1 for p in found)
    return {
        "module": m.name,
        "depth": depth,
        "summands": [{"kind": "L", "lambda": p["lambda"]} for p in found],
        "generators": found,
        "dimension": dim,
        "caveat": f"certified up to filtration depth {depth} only",
    }


# -- module invariant checks -------------------------------------------------

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
