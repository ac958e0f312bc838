"""Derivation specs for the base and Laurent rings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dottedtl.ring import (E_RING, LASAGNA_RING, GradedPoly, RingError, delta,
                           pack, unpack)
from dottedtl.sl2 import (
    BASE_SPEC,
    GENERATORS,
    LASAGNA_SPEC,
    Sl2ActionSpec,
    derive_packed,
)

ORACLE_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                           max_examples=150)


def leibniz_apply(spec, g, x):
    """Reference action: one GradedPoly product per (term, generator) by the
    power rule d(x_i^p) = p * x_i^(p-1) * d(x_i); h by the weight."""
    if g == "h":
        return GradedPoly(spec.ring, {
            e: c * spec.weight_of_monomial(e) for e, c in x.terms.items()
        })
    images = spec.e_images if g == "e" else spec.f_images
    out = spec.ring.zero
    for exp, c in x.terms.items():
        for i, name in enumerate(spec.ring.names):
            p = exp[i]
            if p == 0 or images[name].is_zero():
                continue
            rest = list(exp)
            rest[i] = p - 1
            out = out + (c * p) * GradedPoly(
                spec.ring, {tuple(rest): Fraction(1)}) * images[name]
    return out


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


def _random_monomials(spec, rng, count=100):
    out = []
    for _ in range(count):
        # A0 is invertible in the Laurent ring
        exp = tuple(rng.randint(-2 if n == "A0" else 0, 3)
                    for n in spec.ring.names)
        out.append(GradedPoly(spec.ring,
                              {exp: Fraction(rng.randint(-5, 5) or 1)}))
    return out


def test_base_spec_brackets_on_generators():
    gens = [E_RING.gen(n) for n in E_RING.names]
    assert check_bracket(BASE_SPEC, gens) == []


def test_lasagna_spec_brackets_on_generators():
    gens = [LASAGNA_RING.gen(n) for n in LASAGNA_RING.names]
    assert check_bracket(LASAGNA_SPEC, gens) == []


def test_brackets_on_random_monomials():
    rng = random.Random(7)
    assert check_bracket(BASE_SPEC, _random_monomials(BASE_SPEC, rng)) == []
    rng = random.Random(8)
    assert check_bracket(
        LASAGNA_SPEC, _random_monomials(LASAGNA_SPEC, rng)) == []


def test_base_images():
    E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
    assert BASE_SPEC.apply("e", E1) == E_RING.const(-2)
    assert BASE_SPEC.apply("e", E2) == -E1
    assert BASE_SPEC.apply("f", E1) == E1 * E1 - 2 * E2
    assert BASE_SPEC.apply("f", E2) == E1 * E2
    assert BASE_SPEC.apply("h", E1) == -2 * E1
    assert BASE_SPEC.apply("h", E2) == -4 * E2
    # the packed derivation of statespace reads these as exact ints
    assert BASE_SPEC.den == {"e": 1, "f": 1, "h": 1}
    # the strand letters, whose images statespace reads as V_1's action
    E1, E2, A1, A0 = (LASAGNA_RING.gen(n) for n in ("E1", "E2", "A1", "A0"))
    assert LASAGNA_SPEC.apply("e", A1).is_zero()
    assert LASAGNA_SPEC.apply("e", A0) == -A1
    assert LASAGNA_SPEC.apply("f", A1) == -Fraction(1, 2) * E1 * A1
    assert LASAGNA_SPEC.apply("f", A0) == Fraction(1, 2) * E1 * A0 - E2 * A1
    assert LASAGNA_SPEC.apply("h", A1) == A1
    assert LASAGNA_SPEC.apply("h", A0) == -A0


def test_inverse_letter_images():
    """The power rule gives A0^-1 its images, and g(A0 * A0^-1) = 0."""
    E1, E2, A1, A0 = (LASAGNA_RING.gen(n) for n in ("E1", "E2", "A1", "A0"))
    inv = LASAGNA_RING.gen("A0", -1)
    assert LASAGNA_SPEC.apply("e", inv) == A1 * inv * inv
    assert LASAGNA_SPEC.apply("f", inv) \
        == E2 * A1 * inv * inv - Fraction(1, 2) * E1 * inv
    assert LASAGNA_SPEC.apply("h", inv) == inv
    for g in GENERATORS:
        assert LASAGNA_SPEC.apply(g, A0 * inv).is_zero()


def test_weights_are_degrees():
    E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
    p = E1 ** 2 * E2
    assert BASE_SPEC.apply("h", p) == -8 * p


# -- the monomial kernel against the Leibniz oracle ---------------------------

coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                   st.sampled_from([1, 2, 3, 7, 12]))


@st.composite
def polys(draw, spec):
    """Sparse polynomials with Fraction coefficients; negative A0 powers in
    the Laurent ring; now and then a factor killed by e, so that the terms
    of e(x) cancel."""
    ring = spec.ring
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exp = tuple(draw(st.integers(-3 if inv else 0, 4))
                    for inv in ring.invertible)
        terms[exp] = draw(coeffs)
    x = GradedPoly(ring, terms)
    if draw(st.booleans()):
        kernel = delta(ring)
        if "A0" in ring.names:
            kernel = kernel * (ring.gen("A0")
                               - Fraction(1, 2) * ring.gen("E1") * ring.gen("A1"))
        x = x * kernel
    return x


SPECS = {"base": BASE_SPEC, "lasagna": LASAGNA_SPEC}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_apply_matches_leibniz_oracle(name):
    spec = SPECS[name]

    @ORACLE_SETTINGS
    @given(polys(spec))
    def check(x):
        for g in GENERATORS:
            got = spec.apply(g, x)
            want = leibniz_apply(spec, g, x)
            assert got == want
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(type(c) is Fraction for c in got.terms.values())

    check()


def test_apply_cancels_to_zero():
    """e kills the discriminant and v = A0 - E1*A1/2 term by term only after
    cancellation; nothing is stored for a cancelled term."""
    for ring, spec in ((E_RING, BASE_SPEC), (LASAGNA_RING, LASAGNA_SPEC)):
        d = delta(ring)
        assert spec.apply("e", d).terms == {}
        assert leibniz_apply(spec, "e", d).is_zero()
    v = LASAGNA_RING.gen("A0") - Fraction(1, 2) * LASAGNA_RING.gen("E1") \
        * LASAGNA_RING.gen("A1")
    x = Fraction(3, 7) * LASAGNA_RING.gen("A0", -2) * v * v
    assert LASAGNA_SPEC.apply("e", x) == leibniz_apply(LASAGNA_SPEC, "e", x)
    weight_zero = 5 * LASAGNA_RING.gen("A1") * LASAGNA_RING.gen("A0")
    assert LASAGNA_SPEC.apply("h", weight_zero).terms == {}


def test_derive_monomial_accumulates():
    out = {}
    BASE_SPEC.derive_monomial("e", (1, 0), Fraction(1), out)
    assert out == {(0, 0): Fraction(-2)}
    BASE_SPEC.derive_monomial("e", (1, 0), Fraction(1), out)
    assert out == {(0, 0): Fraction(-4)}
    BASE_SPEC.derive_monomial("e", (1, 0), Fraction(-2), out)
    assert out == {}
    with pytest.raises(ValueError):
        BASE_SPEC.derive_monomial("x", (1, 0), Fraction(1), out)


def test_packed_derivation_matches_apply():
    """derive_packed on pack's numerators, scaled and accumulated into out,
    is BASE_SPEC.apply on random polynomials of Q[E1, E2]."""
    rng = random.Random(11)
    for _ in range(40):
        p = GradedPoly(E_RING, {
            (rng.randint(0, 4), rng.randint(0, 3)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)})
        den, num = pack(p)
        for g in GENERATORS:
            out = {}
            derive_packed(g, num, 3, out)
            derive_packed(g, num, -1, out)
            assert unpack(out, 2 * den * BASE_SPEC.den[g]) \
                == BASE_SPEC.apply(g, p), (g, p)


def test_negative_non_invertible_image_is_rejected():
    """The kernel skips the ring's product guard, so an image with a negative
    power of a non-invertible generator is refused when the spec is built."""
    bad = GradedPoly(E_RING, {(-1, 1): Fraction(1)})
    with pytest.raises(RingError, match="non-invertible"):
        Sl2ActionSpec(E_RING, {"E1": E_RING.zero, "E2": bad},
                      dict(BASE_SPEC.f_images), dict(BASE_SPEC.h_weights))
    # a negative power of the invertible A0 is accepted
    Sl2ActionSpec(LASAGNA_RING, dict(LASAGNA_SPEC.e_images),
                  {**LASAGNA_SPEC.f_images,
                   "A1": LASAGNA_RING.gen("A0", -1)},
                  dict(LASAGNA_SPEC.h_weights))
