"""Truncated sl2-module analysis.

Modules here are finite slices of polynomial-type modules: a monomial basis
with integer h-weights, and e and h as sparse int numerators over one
denominator.  Only the basis is truncated: e's columns hold full images, so
highest-weight vectors and images of e are exact.  f is not stored: an
f-eigenvector, decided by one exact f step, is classified at any depth by
f_string_certificate's closed form, which also gives its f-powers.
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod

from . import exactla
from .ring import divide_content, numerators
from .sl2 import BASE_SPEC, Sl2ActionSpec

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


def _weight_table(weights: dict) -> tuple:
    """h's table (1, {key: {key: weight}}): h(x^k) = weight(k) x^k, so h
    never leaves the basis and needs no derivation."""
    return 1, {k: {k: w} for k, w in weights.items() if w}


def _closed_form_coefficient(k: int, a: int, g):
    """C(k, a), the E1^k E2^a coefficient of c_(k+2a), f^r(x) = c_r x when
    f(x) = g E1 x: (-1)^a (k+2a)!/(k! a!) (g)_(k+a), (g)_s = g...(g+s-1)."""
    return ((-1) ** a * factorial(k + 2 * a) // (factorial(k) * factorial(a))
            * prod(g + t for t in range(k + a)))


@lru_cache(maxsize=1)
def f_string_certificate() -> bool:
    """The closed f-power formula and its vanishing pattern, for every g
    and r: read off BASE_SPEC once per process.

    If f(x) = g E1 x in a module on which E1 and E2 act as in BASE_SPEC,
    the Leibniz rule gives f^r(x) = c_r x, c_0 = 1 and
    c_(r+1) = f(c_r) + g E1 c_r.  With f(E1) = al E1^2 + be E2 and
    f(E2) = de E1 E2 (any other shape is refused), for k + 2a = r + 1 that
    recurrence reads

        C(k, a) = ((k-1) al + a de + g) C(k-1, a) + be (k+1) C(k+1, a-1),

    a term with a negative index being absent.  Both sides are polynomials
    in g, so g > 0 suffices.  There each term, by the shape of
    _closed_form_coefficient, has the nonzero factor
    (-1)^a (k+2a-1)! (g)_(k+a) / (k! a!); dividing by it and multiplying by
    g + k + a - 1 leaves (k+2a)(g+k+a-1) = k ((k-1) al + a de + g)
    - be a (g+k+a-1), of degree at most 2 in k and in a and 1 in g and true
    at k = a = 0.  It holds iff it holds on {0, 1, 2}^2 x {1/2, 3/2}, where
    the recurrence is checked.

    Vanishing: at g = -w/2, w >= 0 even, every term of c_(w+1) has
    k + a > w/2, so its factor (g)_(k+a) vanishes, while c_w's E2^(w/2)
    coefficient is w!: C(k, a) = 0 at g = 1 - k - a and C(0, a) != 0 at
    g = -a, checked on the same grid.  At any other g, c_r's E1^r
    coefficient (g)_r vanishes for no r."""
    f1, f2 = (BASE_SPEC.f_images[n].terms for n in ("E1", "E2"))
    if not set(f1) <= {(2, 0), (0, 1)} or not set(f2) <= {(1, 1)}:
        return False
    al, be, de = f1.get((2, 0), 0), f1.get((0, 1), 0), f2.get((1, 1), 0)
    C = _closed_form_coefficient
    for k, a, g in product(range(3), range(3),
                           (Fraction(1, 2), Fraction(3, 2))):
        rhs = int(k == a == 0)  # c_0 = 1
        if k:
            rhs += ((k - 1) * al + a * de + g) * C(k - 1, a, g)
        if a:
            rhs += be * (k + 1) * C(k + 1, a - 1, g)
        if C(k, a, g) != rhs or (k + a and C(k, a, 1 - k - a)) \
                or not C(0, a, -a):
            return False
    return True


class TruncatedModule:
    """Finite truncation of an sl2-module with monomial basis.

    basis keys are ring exponent tuples; vectors are {key: Fraction} dicts.
    ``tables[g]``, g in e and h, is (den, {key: {key2: int}}): g(x^key) is
    the sum of n / den * x^key2 over its column, no numerator zero, den
    coprime to them.  Only the basis is truncated: e's column is the spec's
    full image of its key, and h's is written from the weights.  f is not
    stored; _f_eigen reads it off the spec and the twist.
    """

    def __init__(self, spec: Sl2ActionSpec, keys, depth: int, name: str = ""):
        self.ring = spec.ring
        self.spec = spec
        self.depth = depth
        self.twist, self.twist_a = None, 0
        self.f_as_base = spec.shift_table("f", BASE_SPEC.ring.names) \
            == BASE_SPEC.shift_table("f")
        self.name = name
        self.basis = sorted(keys)
        self.weights = {k: spec.weight_of_monomial(k) for k in self.basis}
        self.tables = {"h": _weight_table(self.weights), "e": divide_content(
            spec.den["e"], {k: col for k in self.basis
                            if (col := spec.derive_monomial("e", k, 1, {}))})}

    def twisted(self, twist: ModuleTwist, name: str) -> "TruncatedModule":
        """This untwisted module twisted by ``twist``: TwistData(a) adds
        nothing to e, a E1 to f (read by _f_eigen off twist_a) and the shift
        to h, whose table is written from the shifted weights."""
        if self.twist is not None:
            raise RepError("module is already twisted")
        out = copy.copy(self)
        out.twist, out.twist_a, out.name = twist, twist.a, name
        out.weights = {k: w + twist.shift for k, w in self.weights.items()}
        out.tables = {**self.tables, "h": _weight_table(out.weights)}
        return out

    # -- vector helpers -----------------------------------------------------

    def _step(self, g: str, ivec: dict) -> dict:
        """den * g(ivec) for an int vector on the basis, g in e and h, den
        being g's table denominator."""
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
        """g(vec) for g in e and h."""
        den, ivec = numerators(vec)
        den *= self.tables[g][0]
        return {k: Fraction(c, den) for k, c in self._step(g, ivec).items()}

    # -- structure ----------------------------------------------------------

    def character(self) -> dict:
        return dict(Counter(self.weights[k] for k in self.basis))

    def highest_weight_vectors(self, lam: int):
        """Basis of ker(e) inside the weight-lam space."""
        keys = [k for k in self.basis if self.weights[k] == lam]
        etable = self.tables["e"][1]
        return [{keys[j]: c for j, c in v.items()}
                for v in exactla.nullspace([etable.get(k, {}) for k in keys])]

    def _f_eigen(self, ivec: dict, lam: int) -> bool:
        """Whether f(v) = -(lam/2) E1 v, untruncated: the spec's derivation
        of v's numerators ivec plus the twist's twist_a E1 ivec, on ints."""
        a, e1 = self.twist_a, self.ring.index["E1"]
        c = -self.spec.den["f"] * (lam * a.denominator + 2 * a.numerator)
        want = _raised(ivec, e1, 1, c) if c else {}
        return want == {k: 2 * a.denominator * n
                        for k, n in self.spec.derive("f", ivec).items()}

    def classify_cyclic(self, vec: dict, lam: int) -> str:
        """L or M for the cyclic module of a highest-weight vector v with
        f(v) = -(lam/2) E1 v: f^r(v) = c_r(-lam/2) v for every r
        (f_string_certificate), so L iff lam is even and >= 0.  Any other
        vector, or a refused certificate, raises RepError."""
        ivec = numerators(vec)[1]
        if self._step("e", ivec):
            raise RepError("not a highest-weight vector")
        if not (self.f_as_base and self._f_eigen(ivec, lam)):
            raise RepError(f"f(v) != -({lam}/2) E1 v")
        if not f_string_certificate():
            raise RepError("the closed f-power formula is refused")
        return "L" if lam >= 0 and lam % 2 == 0 else "M"


def _raised(ivec: dict, i: int, n: int, c: int = 1) -> dict:
    """c times the int vector ivec times the i-th generator to the n."""
    return {k[:i] + (k[i] + n,) + k[i + 1:]: c * v for k, v in ivec.items()}


def _f_power_multiple(m: TruncatedModule, ivec: dict, lam: int) -> dict:
    """E2^(lam/2) ivec, a nonzero multiple of f^lam(v) for an
    f-eigenvector v of even weight lam >= 0 with numerators ivec: of
    c_lam(-lam/2) only C(0, lam/2) survives, every other term having the
    factor (-lam/2)_(k+a) = 0 (f_string_certificate)."""
    return _raised(ivec, m.ring.index["E2"], lam // 2)


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
    etable = m.tables["e"][1]
    columns = [etable.get(k, {}) for k in m.basis if m.weights[k] == weight]
    return exactla.solve(columns, target) is not None


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
        mdual = p.kind == "Mdual"
        try:
            cls = m.classify_cyclic(v, p.lam)
        except RepError as exc:
            record(f"{label} {'socle ' if mdual else ''}classification", False,
                   str(exc))
            continue
        if not mdual:
            record(f"{label} classification", cls == p.kind,
                   {"classified": cls})
            continue
        # finite part: L(lam) inside; witness that it extends upward
        record(f"{label} socle is L", cls == "L", {"classified": cls})
        if cls != "L":
            continue
        low = _f_power_multiple(m, numerators(v)[1], p.lam)
        if not low.keys() <= m.weights.keys():
            record(f"{label} extension witness", False,
                   "truncation too shallow")
            continue
        hit = _in_image_of_e(m, low, -p.lam - 2)
        record(f"{label} extension witness", hit,
               {"witness_weight": -p.lam - 2} if hit else None)
    return report


def zuckerman(m: TruncatedModule) -> dict:
    """Largest locally finite part visible in the truncation: the span of the
    finite cyclic modules of HWVs that classify_cyclic calls L.
    ``unclassified`` counts the HWVs it refuses (no f-eigenvectors, or the
    certificate refused); a caller that reads "no summand" as "nothing
    locally finite" must also see it at 0."""
    found, unclassified = [], 0
    for lam in sorted({w for w in m.weights.values() if w >= 0}, reverse=True):
        for v in m.highest_weight_vectors(lam):
            try:
                if m.classify_cyclic(v, lam) == "L":
                    found.append({"lambda": lam, "generator": v})
            except RepError:
                unclassified += 1
    return {
        "module": m.name,
        "depth": m.depth,
        "summands": [{"kind": "L", "lambda": p["lambda"]} for p in found],
        "generators": found,
        "dimension": sum(p["lambda"] + 1 for p in found),
        "unclassified": unclassified,
        "caveat": f"certified up to filtration depth {m.depth} only",
    }
