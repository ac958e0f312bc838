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

import copy
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import add

from . import exactla
from .sl2 import Sl2ActionSpec, TwistData, add_term

class RepError(Exception):
    pass


@dataclass(frozen=True)
class ModuleTwist:
    """The rank-one twist of a Q[E1,E2] module that shifts h-weights by
    shift: TwistData(a) with a = -shift/2, the one a for which [e, f] = h
    still holds."""

    shift: int

    @property
    def a(self) -> Fraction:
        return Fraction(-self.shift, 2)


def _numerators(vec: dict) -> tuple:
    """(den, {key: int}) with vec = {key: int / den}."""
    den = lcm(1, *(c.denominator for c in vec.values()))
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in vec.items()}


def _canonical(den: int, table: dict) -> tuple:
    """(den, table) divided by the gcd of den and the table's numerators."""
    content = gcd(den, *(c for col in table.values() for c in col.values()))
    if content == 1:
        return den, table
    return den // content, {k: {k2: c // content for k2, c in col.items()}
                            for k, col in table.items()}


def _weight_table(weights: dict) -> tuple:
    """h's table (1, {key: {key: weight}}): h(x^k) = weight(k) x^k, so h
    never leaves the basis and needs no derivation."""
    return 1, {k: {k: w} for k, w in weights.items() if w}


class TruncatedModule:
    """Finite truncation of an sl2-module with monomial basis.

    basis keys are ring exponent tuples; vectors are {key: Fraction} dicts.
    ``tables[g]`` is (den, {key: {key2: int}}): g(x^key) is the sum of
    n / den * x^key2 over its column.  No numerator is zero, and den is
    coprime to the table's numerators.  A module is built untwisted: e and
    f from the spec's monomial kernel, where an image term outside the
    basis is dropped and its key recorded in ``boundary_loss``, and h from
    the weights, h(x^k) = weight(k) x^k, which never leaves the basis.
    Tables are never changed after a build, so ``twisted`` shares them
    where the twist leaves them.
    """

    def __init__(self, spec: Sl2ActionSpec, keys, depth: int, name: str = ""):
        self.ring = spec.ring
        self.spec = spec
        self.depth = depth
        self.twist = None
        self.name = name
        self.basis = sorted(keys)
        self.index = index = {k: i for i, k in enumerate(self.basis)}
        self.weights = {k: spec.weight_of_monomial(k) for k in self.basis}
        self.tables = {"h": _weight_table(self.weights)}
        self.boundary_loss = {"h": set()}
        for g in ("e", "f"):
            table, loss = {}, set()
            for k in self.basis:
                img = spec.derive_monomial(g, k, 1, {})
                col = {ke: c for ke, c in img.items() if ke in index}
                if len(col) < len(img):
                    loss.add(k)
                if col:
                    table[k] = col
            self.tables[g] = _canonical(spec.den[g], table)
            self.boundary_loss[g] = loss

    def twisted(self, twist: ModuleTwist, name: str) -> "TruncatedModule":
        """This untwisted module twisted by ``twist``: column k of f gains
        x^k TwistData(a).tau(f) = a*E1 x^k over the lcm of the spec's and
        the twist's denominators, and h's table is written from the shifted
        weights (tau(h) = -2a is the shift; the basis, index and e-table are
        shared).  A key is a boundary loss when its full image leaves the
        basis: the twist term can cancel an escaped derivation term."""
        if self.twist is not None:
            raise RepError("module is already twisted")
        out = copy.copy(self)
        out.twist, out.name = twist, name
        out.weights = {k: w + twist.shift for k, w in self.weights.items()}
        out.tables = dict(self.tables)
        out.boundary_loss = dict(self.boundary_loss)
        out.tables["h"] = _weight_table(out.weights)
        for g in ("e", "f"):
            tau = TwistData(twist.a).tau(g).terms
            if not tau:
                continue
            sden, (den0, table0) = self.spec.den[g], self.tables[g]
            den = lcm(sden, *(c.denominator for c in tau.values()))
            table, loss = {}, set()
            for k in self.basis:
                col = {k2: c * (den // den0)
                       for k2, c in table0.get(k, {}).items()}
                img = (self.spec.derive_monomial(g, k, den // sden, {})
                       if k in self.boundary_loss[g] else {})
                for exp, c in tau.items():
                    k2 = tuple(map(add, k, exp))
                    add_term(col if k2 in self.index else img, k2,
                             c.numerator * (den // c.denominator))
                if any(k2 not in self.index for k2 in img):
                    loss.add(k)
                if col:
                    table[k] = col
            out.tables[g] = _canonical(den, table)
            out.boundary_loss[g] = loss
        return out

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


def verify_claim(m: TruncatedModule, claim: DecompositionClaim) -> dict:
    """Character + generator + dual-Verma-witness verification of a claimed
    direct-sum decomposition, within the module's depth."""
    depth = m.depth
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
        lam_v = {k: p.lam * c for k, c in v.items()} if p.lam else {}
        record(f"{label} generator weight", m.apply("h", v) == lam_v)
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


def zuckerman(m: TruncatedModule) -> dict:
    """Largest locally finite part visible in the truncation: the span of the
    finite cyclic modules of HWVs passing the f^(lam+1) = 0 test.
    ``unclassified`` counts the HWVs the truncation could not classify (the
    test raised RepError); a caller that reads "no summand" as "nothing
    locally finite" must also see it at 0."""
    depth = m.depth
    found = []
    unclassified = 0
    weights = sorted({w for w in m.weights.values() if w >= 0}, reverse=True)
    for lam in weights:
        for v in m.highest_weight_vectors(lam):
            try:
                kind = m.classify_cyclic(v, lam)
            except RepError:
                unclassified += 1
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
        "unclassified": unclassified,
        "caveat": f"certified up to filtration depth {depth} only",
    }
