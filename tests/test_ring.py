"""Base ring arithmetic and quantum integers."""

import random
from fractions import Fraction

import pytest

from dottedtl.expr import parse_expr
from dottedtl.ring import (
    E_RING,
    LASAGNA_RING,
    GradedPoly,
    QLaurent,
    RingError,
    delta,
    qbinom,
    qfact,
    qint,
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


def test_qint_values():
    assert qint(0).is_zero()
    assert qint(1) == QLaurent.const(1)
    assert qint(2) == QLaurent({1: 1}) + QLaurent({-1: 1})
    assert qint(-3) == -qint(3)


def test_qbinom_integrality_and_symmetry():
    for m in range(9):
        for a in range(m + 1):
            b = qbinom(m, a)
            assert b == qbinom(m, m - a)
    # Pascal-type product identity
    for m in range(-8, 9):
        for a in range(5):
            prod = QLaurent.const(1)
            for i in range(a):
                prod = prod * qint(m - i)
            assert qbinom(m, a) * qfact(a) == prod


def test_qbinom_negative_upper():
    for m in range(1, 8):
        for a in range(5):
            assert qbinom(-m, a) == qbinom(m + a - 1, a) * (-1) ** a
