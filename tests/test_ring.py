"""Base ring arithmetic and the packed polynomial format."""

import random
from fractions import Fraction

import pytest

from dottedtl.expr import parse_expr
from dottedtl.ring import (
    E_RING,
    LASAGNA_RING,
    GradedPoly,
    RingError,
    delta,
    numerators,
    pack,
    pack_key,
    packed_mul,
    unpack,
    unpack_key,
)
from dottedtl.statespace import PolyMatrix

E1 = E_RING.gen("E1")
E2 = E_RING.gen("E2")


def test_ring_basics():
    p = E1 * E1 - 4 * E2
    assert p == -delta()
    assert (p - p).is_zero()
    assert E_RING.one.is_constant()
    assert E_RING.one.constant_value() == 1


def test_grading():
    assert E_RING.degrees == (2, 4)
    assert E1.monomial_degree((2, 1)) == 8
    # terms print by degree, ties by exponent
    assert str(E1 * E1 + E2 - E1) == "-E1 + E2 + E1^2"


def test_str_parse_roundtrip():
    rng = random.Random(2024)
    for _ in range(50):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = (rng.randint(0, 3), rng.randint(0, 2))
            terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = GradedPoly(E_RING, terms)
        # the expression parser reads the printed form as p times the
        # empty diagram
        assert parse_expr(str(p)).evaluate() == PolyMatrix(0, 0, {(0, 0): p})


def test_negative_power_raises():
    with pytest.raises(RingError):
        (E1 + E2) ** -1
    with pytest.raises(RingError):
        LASAGNA_RING.gen("A0") ** -1


def test_negative_powers_only_on_invertible_gens():
    with pytest.raises(RingError):
        E_RING.gen("E1", -1)
    a0inv = LASAGNA_RING.gen("A0", -1)
    assert (a0inv * LASAGNA_RING.gen("A0")) == LASAGNA_RING.one


def test_pack_round_trips_and_multiplies():
    """pack is unpack's inverse over its default or a given common
    denominator, its numerators are those of numerators(), and packed_mul
    multiplies like GradedPoly."""
    p = Fraction(3, 4) * E1 * E1 - Fraction(1, 6) * E2 + 5
    q = E1 * E2 - Fraction(2, 3)
    den, terms = pack(p)
    assert den == 12 and unpack(terms, den) == p
    assert terms[pack_key(2, 0)] == 9 and terms[pack_key(0, 1)] == -2
    assert numerators(p.terms)[1] == {unpack_key(e): c
                                      for e, c in terms.items()}
    den24, terms24 = pack(p, 24)
    assert den24 == 24 and unpack(terms24, 24) == p
    dq, tq = pack(q)
    assert unpack(packed_mul(terms, tq), den * dq) == p * q
    assert numerators({}) == (1, {})


def test_packed_keys_add_like_exponent_pairs():
    """unpack_key inverts pack_key, and a packed shift with a negative
    exponent, added to a key, moves both exponents."""
    for e1, e2 in ((0, 0), (3, 0), (0, 5), (7, 2)):
        assert unpack_key(pack_key(e1, e2)) == (e1, e2)
    for d1, d2 in ((-1, 1), (1, -1), (-2, -1), (2, 3)):
        assert unpack_key(pack_key(4, 5) + pack_key(d1, d2)) \
            == (4 + d1, 5 + d2)


def test_pack_refuses_exponents_that_would_carry():
    """An exponent of 2^31 or more is refused, in either generator, so no
    packed product carries one generator's exponent into the other's;
    2^31 - 1 still packs and round-trips."""
    top = 2 ** 31 - 1
    for e1, e2 in ((top, 0), (0, top), (top, top)):
        p = E_RING.gen("E1", e1) * E_RING.gen("E2", e2)
        assert unpack(pack(p)[1], 1) == p
    for e1, e2 in ((top + 1, 0), (0, top + 1), (0, 2 ** 32), (5, 2 ** 40)):
        p = 3 + E_RING.gen("E1", e1) * E_RING.gen("E2", e2)
        with pytest.raises(RingError, match="too large to pack"):
            pack(p)
