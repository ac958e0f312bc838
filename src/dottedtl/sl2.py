"""Generic sl2 derivation machinery on graded polynomial rings.

An action spec records, for each ring generator, its images under e and f
and its integer h-weight.  The action extends to the whole ring as a
derivation (power rule handles Laurent exponents), which is exactly how the
triangular operators act on every coefficient ring in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from .ring import E_RING, LASAGNA_RING, GradedPoly, PolyRing, RingError

GENERATORS = ("e", "f", "h")


def add_term(vec: dict, key, c) -> None:
    """vec[key] += c, removing the entry when it cancels to zero."""
    s = vec.get(key, 0) + c
    if s:
        vec[key] = s
    else:
        vec.pop(key, None)


class Sl2ActionSpec:
    """Derivation data on a PolyRing: e/f images and h-weights per generator.

    e and f act as derivations, so on a monomial they are fixed by the power
    rule g(c*x^p) = sum_i p_i*c * x^(p - unit_i) * g(x_i).  The spec
    precomputes, for e and f and each generator i with g(x_i) != 0, the
    terms of x^(-unit_i) * g(x_i) as (exponent shift, int numerator) pairs
    over one denominator ``den[g]`` (1 for h); ``derive_monomial`` then adds
    each shift to p and never builds a ``GradedPoly``.  That skips the ring's
    negative-exponent guard on products, which is safe because the power
    rule only lowers an exponent p_i != 0 (p_i >= 1 when x_i is not
    invertible) and ``__init__`` rejects images with a negative power of a
    non-invertible generator.
    """

    def __init__(self, ring: PolyRing, e_images, f_images, h_weights):
        self.ring = ring
        self.e_images = {n: ring.coerce(p) for n, p in e_images.items()}
        self.f_images = {n: ring.coerce(p) for n, p in f_images.items()}
        self.h_weights = {n: int(w) for n, w in h_weights.items()}
        for name in ring.names:
            if name not in self.e_images or name not in self.f_images \
                    or name not in self.h_weights:
                raise KeyError(f"incomplete action data for generator {name}")
        self._weights = tuple(self.h_weights[n] for n in ring.names)
        self.den = {"h": 1}
        self._shifts = {}
        for g, images in (("e", self.e_images), ("f", self.f_images)):
            self.den[g], self._shifts[g] = self._derivation_shifts(images)

    def _derivation_shifts(self, images) -> tuple:
        """(den, ((i, ((shift, num), ...)), ...)): for each generator i with
        a nonzero image, its terms' exponents minus unit_i and coefficients
        as int numerators over den, the lcm of all the images' denominators."""
        ring = self.ring
        den = lcm(1, *(c.denominator for name in ring.names
                       for c in images[name].terms.values()))
        out = []
        for i, name in enumerate(ring.names):
            terms = []
            for exp, c in images[name].terms.items():
                if any(p < 0 and not inv
                       for p, inv in zip(exp, ring.invertible)):
                    raise RingError(
                        f"image of {name} has a negative power of a "
                        "non-invertible generator"
                    )
                shift = list(exp)
                shift[i] -= 1
                terms.append((tuple(shift),
                              c.numerator * (den // c.denominator)))
            if terms:
                out.append((i, tuple(terms)))
        return den, tuple(out)

    def weight_of_monomial(self, exp: tuple) -> int:
        return sum(map(mul, exp, self._weights))

    def derive_monomial(self, g: str, exp: tuple, c, out: dict) -> dict:
        """Add den[g] * g(c * x^exp) into ``out`` (exponent tuple ->
        coefficient; an int c gives ints) and return it; entries that cancel
        to zero are removed."""
        if g == "h":
            w = self.weight_of_monomial(exp)
            if w:
                add_term(out, exp, c * w)
            return out
        if g not in self._shifts:
            raise ValueError(f"unknown generator {g!r}")
        for i, terms in self._shifts[g]:
            p = exp[i]
            if not p:
                continue
            pc = p * c
            # add_term inlined: this loop runs once per image term
            for shift, coeff in terms:
                key = tuple(map(add, exp, shift))
                s = out.get(key, 0) + pc * coeff
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def apply(self, g: str, x: GradedPoly) -> GradedPoly:
        """Apply e, f, or h to a polynomial: the monomial kernel summed over
        its terms, on int numerators over the lcm of their denominators; each
        output coefficient becomes a Fraction once."""
        if x.ring is not self.ring:
            raise ValueError("polynomial from a different ring")
        terms = x.terms
        den = lcm(*[c.denominator for c in terms.values()])
        out: dict = {}
        for exp, c in terms.items():
            self.derive_monomial(g, exp, c.numerator * (den // c.denominator),
                                 out)
        if out:
            den *= self.den[g]
            out = {exp: Fraction(n, den) for exp, n in out.items()}
        return GradedPoly(self.ring, out)


def base_spec(ring: PolyRing = E_RING) -> Sl2ActionSpec:
    """The action on the symmetric-polynomial base ring (E1, E2 generators)."""
    E1, E2 = ring.gen("E1"), ring.gen("E2")
    e_images = {"E1": ring.const(-2), "E2": -E1}
    f_images = {"E1": E1 * E1 - 2 * E2, "E2": E1 * E2}
    h_weights = {"E1": -2, "E2": -4}
    for name in ring.names:
        e_images.setdefault(name, ring.zero)
        f_images.setdefault(name, ring.zero)
        h_weights.setdefault(name, 0)
    return Sl2ActionSpec(ring, e_images, f_images, h_weights)


def lasagna_spec(ring: PolyRing = LASAGNA_RING) -> Sl2ActionSpec:
    """The action on Q[E1,E2][A0^{+-1},A1]; A0^{-1} images follow from the power rule."""
    E1, E2 = ring.gen("E1"), ring.gen("E2")
    A1, A0 = ring.gen("A1"), ring.gen("A0")
    half = Fraction(1, 2)
    return Sl2ActionSpec(
        ring,
        e_images={"E1": ring.const(-2), "E2": -E1, "A1": ring.zero, "A0": -A1},
        f_images={
            "E1": E1 * E1 - 2 * E2,
            "E2": E1 * E2,
            "A1": -half * E1 * A1,
            "A0": half * E1 * A0 - E2 * A1,
        },
        h_weights={"E1": -2, "E2": -4, "A1": 1, "A0": -1},
    )


def check_bracket(spec: Sl2ActionSpec, samples) -> list:
    """Verify [h,e]=2e, [h,f]=-2f, [e,f]=h on each sample; returns failures."""
    failures = []
    for x in samples:
        checks = [
            ("[h,e]=2e",
             spec.apply("h", spec.apply("e", x)) - spec.apply("e", spec.apply("h", x)),
             2 * spec.apply("e", x)),
            ("[h,f]=-2f",
             spec.apply("h", spec.apply("f", x)) - spec.apply("f", spec.apply("h", x)),
             -2 * spec.apply("f", x)),
            ("[e,f]=h",
             spec.apply("e", spec.apply("f", x)) - spec.apply("f", spec.apply("e", x)),
             spec.apply("h", x)),
        ]
        for label, lhs, rhs in checks:
            if lhs != rhs:
                failures.append({
                    "identity": label,
                    "sample": str(x),
                    "lhs": str(lhs),
                    "rhs": str(rhs),
                })
    return failures


def iterate_f(x: GradedPoly, r: int, spec: Sl2ActionSpec) -> GradedPoly:
    """f applied r times; iterate_f(x, 0) = x."""
    if r < 0:
        raise ValueError("r must be non-negative")
    for _ in range(r):
        x = spec.apply("f", x)
    return x


@dataclass(frozen=True)
class DtlParams:
    """The two free parameters of the sl2 action on cups and caps."""

    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)

    @classmethod
    def parse(cls, text: str) -> "DtlParams":
        a1, a2 = (Fraction(part.strip()) for part in text.split(","))
        return cls(a1, a2)


@dataclass(frozen=True)
class TwistData:
    """Rank-one twist by a*E1: f gains a*E1, h gains -2a on the object generator."""

    a: Fraction
    q_shift: int = 0

    def tau(self, g: str, ring: PolyRing = E_RING) -> GradedPoly:
        if g == "e":
            return ring.zero
        if g == "f":
            return Fraction(self.a) * ring.gen("E1")
        if g == "h":
            return ring.const(-2 * Fraction(self.a))
        raise ValueError(g)


def check_flat_twist(t: TwistData, spec: Sl2ActionSpec | None = None) -> bool:
    """Flatness of tau: tau([g1,g2]) = g1.tau(g2) - g2.tau(g1) for all brackets.

    Always true for the a*E1 family (e(a*E1) = -2a); kept as a regression guard.
    """
    spec = spec or base_spec()
    ring = spec.ring
    tau = {g: t.tau(g, ring) for g in GENERATORS}
    brackets = [  # ([g1,g2], g1, g2)
        (2 * tau["e"], "h", "e"),
        (-2 * tau["f"], "h", "f"),
        (tau["h"], "e", "f"),
    ]
    for lhs, g1, g2 in brackets:
        rhs = spec.apply(g1, tau[g2]) - spec.apply(g2, tau[g1])
        if lhs != rhs:
            return False
    return True


BASE_SPEC = base_spec()
LASAGNA_SPEC = lasagna_spec()
