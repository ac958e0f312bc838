"""Truncated sl2-module analysis.

Modules here are finite slices of polynomial-type modules: a monomial basis
with integer h-weights and sparse rational e/f/h matrices generated from a
derivation spec.  Truncation is by filtration degree; any action image that
escapes the stored basis is flagged, never silently dropped, and every
report carries its depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import exactla
from .ring import PolyRing
from .sl2 import GENERATORS, Sl2ActionSpec, add_term

E1_NAME = "E1"


class RepError(Exception):
    pass


@dataclass(frozen=True)
class ModuleTwist:
    """Rank-one twist: f gains a*E1*x, h gains a constant weight shift."""

    a: Fraction
    shift: int


class TruncatedModule:
    """Finite truncation of an sl2-module with monomial basis.

    basis keys are ring exponent tuples; vectors are {key: Fraction} dicts.
    """

    def __init__(self, ring: PolyRing, spec: Sl2ActionSpec, keys, degree_fn,
                 depth: int, twist: ModuleTwist | None = None, name: str = ""):
        self.ring = ring
        self.spec = spec
        self.depth = depth
        self.twist = twist
        self.name = name
        self.degree_fn = degree_fn
        self.basis = sorted(keys)
        self.index = {k: i for i, k in enumerate(self.basis)}
        shift = twist.shift if twist else 0
        self.weights = {
            k: spec.weight_of_monomial(k) + shift for k in self.basis
        }
        self.action: dict = {}
        self.boundary_loss: dict = {g: set() for g in GENERATORS}
        self._build_action()

    def _build_action(self):
        """e/f/h tables from the spec's monomial kernel, one dict per basis
        key; the twist adds a*x^(k+E1) to f(x^k) and shift*x^k to h(x^k) in
        the same dict.  Derivation runs on the int coefficient 1, so an image
        coefficient stays an int unless the spec or the twist has a proper
        fraction, and each stored entry becomes a Fraction once.  An image
        term outside the basis is dropped from the table and the key is
        recorded in ``boundary_loss``."""
        derive = self.spec.derive_monomial
        index = self.index
        a = Fraction(self.twist.a) if self.twist else 0
        shift = self.twist.shift if self.twist else 0
        e1 = self.ring.index[E1_NAME] if a else None
        for g in GENERATORS:
            table = {}
            loss = self.boundary_loss[g]
            for k in self.basis:
                img = derive(g, k, 1, {})
                if g == "f" and a:
                    add_term(img, k[:e1] + (k[e1] + 1,) + k[e1 + 1:], a)
                elif g == "h" and shift:
                    add_term(img, k, shift)
                col = {}
                for ke, c in img.items():
                    if ke in index:
                        col[ke] = c if type(c) is Fraction else Fraction(c)
                    else:
                        loss.add(k)
                if col:
                    table[k] = col
            self.action[g] = table
        for k in self.basis:
            hcol = self.action["h"].get(k, {})
            if set(hcol) - {k} or hcol.get(k, Fraction(0)) != self.weights[k]:
                raise RepError(f"h is not diagonal with the stated weight at {k}")

    # -- vector helpers -----------------------------------------------------

    def apply(self, g: str, vec: dict) -> dict:
        out: dict = {}
        table = self.action[g]
        for k, c in vec.items():
            for k2, a in table.get(k, {}).items():
                s = out.get(k2, 0) + c * a
                if s:
                    out[k2] = s
                else:
                    out.pop(k2, None)
        return out

    def lossy(self, g: str, vec: dict) -> bool:
        return any(k in self.boundary_loss[g] for k in vec)

    def iterate_f(self, vec: dict, r: int):
        """(f^r(vec), steps actually completed before hitting the boundary)."""
        for step in range(r):
            if self.lossy("f", vec):
                return vec, step
            vec = self.apply("f", vec)
        return vec, r

    # -- structure ----------------------------------------------------------

    def weight_decompose(self) -> dict:
        out: dict = {}
        for k in self.basis:
            out.setdefault(self.weights[k], []).append(k)
        return out

    def character(self) -> dict:
        return {w: len(ks) for w, ks in self.weight_decompose().items()}

    def highest_weight_vectors(self, lam: int):
        """Basis of ker(e) inside the weight-lam space (e never escapes)."""
        keys = [k for k in self.basis if self.weights[k] == lam]
        if not keys:
            return []
        targets: list = []
        tindex: dict = {}
        cols = []
        for k in keys:
            col = self.action["e"].get(k, {})
            for k2 in col:
                if k2 not in tindex:
                    tindex[k2] = len(targets)
                    targets.append(k2)
            cols.append(col)
        rows = [
            [cols[j].get(t, Fraction(0)) for j in range(len(keys))]
            for t in targets
        ]
        null = exactla.nullspace(rows, len(keys)) if rows else [
            [Fraction(1) if i == j else Fraction(0) for j in range(len(keys))]
            for i in range(len(keys))
        ]
        return [
            {k: c for k, c in zip(keys, v) if c} for v in null
        ]

    def classify_cyclic(self, vec: dict, lam: int) -> str:
        """L or M for the cyclic module of a highest-weight vector."""
        if self.apply("e", vec):
            raise RepError("not a highest-weight vector")
        if lam >= 0:
            img, done = self.iterate_f(vec, lam + 1)
            if done < lam + 1:
                raise RepError(
                    f"truncation too shallow for the f^{lam + 1} test"
                )
            return "L" if not img else "M"
        vec2 = dict(vec)
        while not self.lossy("f", vec2):
            vec2 = self.apply("f", vec2)
            if not vec2:
                raise RepError(
                    f"f-string of a weight-{lam} highest-weight vector "
                    "terminated; not a Verma module"
                )
        return "M"


# -- claims -----------------------------------------------------------------

@dataclass
class ClaimPart:
    kind: str                    # M, Mdual, L, P
    lam: int
    generator: dict | None = None   # vector in module basis keys
    multiplicity: int = 1


@dataclass
class DecompositionClaim:
    parts: list = field(default_factory=list)

    def character(self, w_min: int, w_max: int) -> dict:
        out = {w: 0 for w in range(w_min, w_max + 1)}

        def add(kind, lam, mult):
            for w in out:
                if (w - lam) % 2:
                    continue
                if kind == "L":
                    hit = -lam <= w <= lam
                elif kind in ("M", "Mdual"):
                    hit = w <= lam
                elif kind == "P":
                    hit = w <= lam if lam < 0 else (w <= lam) + (w <= -lam - 2)
                    out[w] += int(hit) * mult
                    continue
                else:
                    raise RepError(f"unknown summand kind {kind!r}")
                if hit:
                    out[w] += mult
        for p in self.parts:
            add(p.kind, p.lam, p.multiplicity)
        return {w: d for w, d in out.items() if d}


def _in_image_of_e(m: TruncatedModule, target: dict, weight: int):
    """Solve e(u) = target with u in the given weight space; None if not hit."""
    keys = [k for k in m.basis if m.weights[k] == weight]
    if not keys:
        return None
    tkeys: list = []
    tindex: dict = {}
    cols = [m.action["e"].get(k, {}) for k in keys]
    for col in cols:
        for k2 in col:
            if k2 not in tindex:
                tindex[k2] = len(tkeys)
                tkeys.append(k2)
    for k2 in target:
        if k2 not in tindex:
            return None
    rows = [
        [cols[j].get(t, Fraction(0)) for j in range(len(keys))] for t in tkeys
    ]
    rhs = [target.get(t, Fraction(0)) for t in tkeys]
    sol = exactla.solve(rows, rhs)
    if sol is None:
        return None
    return {k: c for k, c in zip(keys, sol) if c}


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
            low, done = m.iterate_f(v, max(p.lam, 0))
            if done < max(p.lam, 0):
                record(f"{label} extension witness", False,
                       "truncation too shallow")
                continue
            u = _in_image_of_e(m, low, -p.lam - 2)
            record(f"{label} extension witness", u is not None,
                   None if u is None else {"witness_weight": -p.lam - 2})
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
    stay inside the truncation."""
    for k in m.basis:
        vec = {k: Fraction(1)}
        if m.lossy("f", vec):
            continue
        fv = m.apply("f", vec)
        if m.lossy("f", m.apply("e", vec)):
            continue
        lhs = m.apply("e", fv)
        for k2, c in m.apply("f", m.apply("e", vec)).items():
            lhs[k2] = lhs.get(k2, Fraction(0)) - c
            if not lhs[k2]:
                del lhs[k2]
        want = {k: m.weights[k]} if m.weights[k] else {}
        if lhs != want:
            return False
    return True


def ef_string_check(m: TruncatedModule, vec: dict, lam: int,
                    k_max: int = 6) -> bool:
    """e f^k (v) = k(lam - k + 1) f^(k-1)(v) for a HWV v of weight lam."""
    prev = vec
    for k in range(1, k_max + 1):
        if m.lossy("f", prev):
            return True
        cur = m.apply("f", prev)
        want = {kk: k * (lam - k + 1) * c for kk, c in prev.items()
                if k * (lam - k + 1) * c}
        if m.apply("e", cur) != want:
            return False
        prev = cur
    return True
