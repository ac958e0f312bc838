"""Generic sl2 derivation machinery on graded polynomial rings.

An action spec records, for each ring generator, its images under e and f
and its integer h-weight.  The action extends to the whole ring as a
derivation (power rule handles Laurent exponents), which is exactly how the
triangular operators act on every coefficient ring in this package.

This module is the one place the action's formulas are stated: BASE_SPEC
(E1 and E2), LASAGNA_SPEC (BASE_SPEC plus the strand letters A1 and A0)
and the rank-one twist TwistData.tau; the other modules read them.  So
are the only derivation tables: each spec's shifts as Fractions
(shift_table), and BASE_SPEC's derivation on packed numerators
(derive_packed), which the matrix and word actions call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from .ring import (E_RING, LASAGNA_RING, GradedPoly, PolyRing, RingError,
                   numerators, pack_key, unpack_key)

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
    precomputes in ``shifts[g]``, for e and f and each generator i with
    g(x_i) != 0, the pair (i, terms of x^(-unit_i) * g(x_i)), each term an
    (exponent shift, int numerator) pair over one denominator ``den[g]``
    (1 for h); ``derive_monomial`` then adds each shift to p and never
    builds a ``GradedPoly``.  That skips the ring's negative-exponent guard
    on products, which is safe because the power rule only lowers an
    exponent p_i != 0 (p_i >= 1 when x_i is not invertible) and
    ``__init__`` rejects images with a negative power of a non-invertible
    generator.
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
        self.shifts = {}
        for g, images in (("e", self.e_images), ("f", self.f_images)):
            self.den[g], self.shifts[g] = self._derivation_shifts(images)

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

    def shift_table(self, g: str, names=None) -> dict:
        """{(generator name, shift): coefficient} of the g-shifts of the
        generators in names (default: all), each shift written as the
        (name, exponent) pairs of its nonzero exponents, so that the tables
        of different rings compare."""
        ring_names = self.ring.names
        return {(ring_names[i], tuple((n, e) for n, e in zip(ring_names, s)
                                      if e)): Fraction(c, self.den[g])
                for i, terms in self.shifts[g]
                if names is None or ring_names[i] in names for s, c in terms}

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
        if g not in self.shifts:
            raise ValueError(f"unknown generator {g!r}")
        for i, terms in self.shifts[g]:
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

    def derive(self, g: str, vec: dict) -> dict:
        """den[g] * g(vec) for an int vector {exponent tuple: int}."""
        out: dict = {}
        for exp, c in vec.items():
            self.derive_monomial(g, exp, c, out)
        return out

    def apply(self, g: str, x: GradedPoly) -> GradedPoly:
        """Apply e, f, or h to a polynomial: ``derive`` on its numerators
        over their lcm; each output coefficient becomes a Fraction once."""
        if x.ring is not self.ring:
            raise ValueError("polynomial from a different ring")
        den, vec = numerators(x.terms)
        out = self.derive(g, vec)
        if out:
            den *= self.den[g]
            out = {exp: Fraction(n, den) for exp, n in out.items()}
        return GradedPoly(self.ring, out)


def base_spec() -> Sl2ActionSpec:
    """The action on the symmetric-polynomial base ring Q[E1,E2]."""
    E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
    return Sl2ActionSpec(
        E_RING,
        e_images={"E1": E_RING.const(-2), "E2": -E1},
        f_images={"E1": E1 * E1 - 2 * E2, "E2": E1 * E2},
        h_weights={"E1": -2, "E2": -4},
    )


BASE_SPEC = base_spec()


def _packed_derivation() -> dict:
    """BASE_SPEC's derivation on packed keys (ring.pack): for each
    generator, the terms (packed exponent shift, factor of the E1 exponent,
    factor of the E2 exponent), equal shifts merged.  h is the zero shift
    with the h-weights as factors."""
    out = {"h": ((0, BASE_SPEC.h_weights["E1"], BASE_SPEC.h_weights["E2"]),)}
    for g in ("e", "f"):
        merged: dict = {}
        for i, terms in BASE_SPEC.shifts[g]:
            for (d1, d2), num in terms:
                factors = merged.setdefault(pack_key(d1, d2), [0, 0])
                factors[i] += num
        out[g] = tuple((shift, *f) for shift, f in merged.items())
    return out


_DERIVATION = _packed_derivation()


def derive_packed(g: str, terms: dict, scale: int, out: dict) -> None:
    """Add scale * BASE_SPEC.den[g] * g(terms) into out, on packed
    numerators: c E1^a E2^b gives (fa*a + fb*b)*c at each shift of
    _DERIVATION[g].  Numerators that cancel stay, as zeros."""
    derivation = _DERIVATION[g]
    for key, c in terms.items():
        a, b = unpack_key(key)
        c *= scale
        for shift, fa, fb in derivation:
            n = fa * a + fb * b
            if n:
                e = key + shift
                out[e] = out.get(e, 0) + n * c


def lasagna_spec() -> Sl2ActionSpec:
    """The action on Q[E1,E2][A0^{+-1},A1]: BASE_SPEC's images of E1 and E2
    and those of the strand letters A1 and A0; A0^{-1} images follow from
    the power rule."""
    ring, base = LASAGNA_RING, BASE_SPEC
    E1, E2 = ring.gen("E1"), ring.gen("E2")
    A1, A0 = ring.gen("A1"), ring.gen("A0")
    half = Fraction(1, 2)

    def lift(images):  # Q[E1,E2] images as elements of ring
        return {name: sum((c * E1 ** a * E2 ** b
                           for (a, b), c in p.terms.items()), ring.zero)
                for name, p in images.items()}

    return Sl2ActionSpec(
        ring,
        e_images={**lift(base.e_images), "A1": ring.zero, "A0": -A1},
        f_images={**lift(base.f_images), "A1": -half * E1 * A1,
                  "A0": half * E1 * A0 - E2 * A1},
        h_weights={**base.h_weights, "A1": 1, "A0": -1},
    )


LASAGNA_SPEC = lasagna_spec()


@dataclass(frozen=True)
class DtlParams:
    """The two free parameters of the sl2 action on cups and caps, stored
    as Fractions: DtlParams(1, 0) == DtlParams(Fraction(1), 0)."""

    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a1", Fraction(self.a1))
        object.__setattr__(self, "a2", Fraction(self.a2))

    @classmethod
    def parse(cls, text: str) -> "DtlParams":
        a1, a2 = (Fraction(part.strip()) for part in text.split(","))
        return cls(a1, a2)


@dataclass(frozen=True)
class TwistData:
    """Rank-one twist by a*E1: f gains a*E1, h gains -2a on the object generator."""

    a: Fraction
    q_shift: int = 0

    def tau(self, g: str) -> GradedPoly:
        if g == "e":
            return E_RING.zero
        if g == "f":
            return Fraction(self.a) * E_RING.gen("E1")
        if g == "h":
            return E_RING.const(-2 * Fraction(self.a))
        raise ValueError(g)

