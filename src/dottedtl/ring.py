"""Exact scalar arithmetic: graded polynomial rings over Q, and the one
packed integer format of Q[E1,E2] that every kernel computes in (pack_key,
unpack_key, pack, pack_coefficient, pack_terms, unpack, packed_str,
numerators, packed_add, packed_mul, divide_content, check_exponents).

Everything downstream is linear algebra over these rings, so all operations
are exact: Fraction coefficients or int numerators over one denominator,
no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Iterable, Mapping


class RingError(Exception):
    pass


class GenSpec:
    __slots__ = ("name", "degree", "invertible")

    def __init__(self, name: str, degree: int, invertible: bool = False):
        self.name = name
        self.degree = degree
        self.invertible = invertible

    def __repr__(self):
        inv = ", invertible" if self.invertible else ""
        return f"GenSpec({self.name}, deg={self.degree}{inv})"


class PolyRing:
    """A graded polynomial ring over Q with a fixed, ordered generator table.

    Generators flagged invertible admit negative (Laurent) exponents; the
    others do not, and arithmetic raises if a negative power would appear.
    """

    def __init__(self, gens: Iterable[GenSpec]):
        self.gens = tuple(gens)
        self.names = tuple(g.name for g in self.gens)
        self.index = {g.name: i for i, g in enumerate(self.gens)}
        if len(self.index) != len(self.gens):
            raise RingError("duplicate generator names")
        self.degrees = tuple(g.degree for g in self.gens)
        self.invertible = tuple(g.invertible for g in self.gens)
        self._zero_exp = (0,) * len(self.gens)

    def const(self, c) -> "GradedPoly":
        c = Fraction(c)
        if c == 0:
            return GradedPoly(self, {})
        return GradedPoly(self, {self._zero_exp: c})

    @property
    def zero(self) -> "GradedPoly":
        return GradedPoly(self, {})

    @property
    def one(self) -> "GradedPoly":
        return self.const(1)

    def gen(self, name: str, power: int = 1) -> "GradedPoly":
        i = self.index[name]
        if power < 0 and not self.invertible[i]:
            raise RingError(f"negative power of non-invertible generator {name}")
        exp = [0] * len(self.gens)
        exp[i] = power
        return GradedPoly(self, {tuple(exp): Fraction(1)})

    def coerce(self, x) -> "GradedPoly":
        if isinstance(x, GradedPoly):
            if x.ring is not self:
                raise RingError("mixed rings")
            return x
        return self.const(x)

    def monomial_degree(self, exp: tuple) -> int:
        return sum(p * d for p, d in zip(exp, self.degrees))

    def __repr__(self):
        return "PolyRing(" + ", ".join(self.names) + ")"


def mul_terms(p: Mapping, q: Mapping) -> dict:
    """p * q for sparse polynomials {exponent tuple: int or Fraction}."""
    terms: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = terms.get(e, 0) + c1 * c2
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return terms


class GradedPoly:
    """Sparse exact polynomial: dict from exponent tuple to nonzero Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple, Fraction]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self.ring.coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return GradedPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self.ring.coerce(other))

    def __rsub__(self, other):
        return self.ring.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, GradedPoly):
            c = Fraction(other)
            if not c:
                return self.ring.zero
            return GradedPoly(self.ring, {e: c * v for e, v in self.terms.items()})
        if other.ring is not self.ring:
            raise RingError("mixed rings")
        terms = mul_terms(self.terms, other.terms)
        for e in terms:
            for i, p in enumerate(e):
                if p < 0 and not self.ring.invertible[i]:
                    raise RingError(
                        f"negative power of {self.ring.names[i]} in product"
                    )
        return GradedPoly(self.ring, terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / Fraction(other))

    def __pow__(self, n: int):
        if n < 0:
            raise RingError("negative power of a polynomial")
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, GradedPoly):
            return self.ring is other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == self.ring._zero_exp for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise RingError("not a constant")
        return self.terms[self.ring._zero_exp]

    def monomial_degree(self, exp: tuple) -> int:
        return self.ring.monomial_degree(exp)

    # -- printing -----------------------------------------------------------

    def __str__(self):
        return _format(self.ring, {e: (c.numerator, c.denominator)
                                   for e, c in self.terms.items()})

    __repr__ = __str__


def _format(ring: PolyRing, terms: dict) -> str:
    """The text of {exponents: (numerator, denominator) in lowest terms}."""
    out = ""
    for e in sorted(terms, key=lambda e: (ring.monomial_degree(e), e)):
        n, d = terms[e]
        mono = "*".join(name if p == 1 else f"{name}^{p}"
                        for name, p in zip(ring.names, e) if p)
        c = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
        body = mono if mono and c == "1" else f"{c}*{mono}" if mono else c
        out += ("-" if n < 0 else "") + body if not out else \
            f" {'-' if n < 0 else '+'} {body}"
    return out or "0"


# -- standard rings ---------------------------------------------------------

# Base graded ring of the diagram category: deg E1 = 2, deg E2 = 4.
E_RING = PolyRing([GenSpec("E1", 2), GenSpec("E2", 4)])

E1 = E_RING.gen("E1")
E2 = E_RING.gen("E2")


def delta(ring: PolyRing | None = None) -> GradedPoly:
    """The discriminant 4*E2 - E1^2 (homogeneous of degree 4)."""
    if ring is None:
        return 4 * E2 - E1 * E1
    return 4 * ring.gen("E2") - ring.gen("E1") * ring.gen("E1")


# Q[E1,E2][A0^{+-1}, A1]: the coefficient ring of the B^2 x S^2 module.
LASAGNA_RING = PolyRing([GenSpec("E1", 2), GenSpec("E2", 4), GenSpec("A1", -2),
                         GenSpec("A0", 0, invertible=True)])


# -- packed polynomials -----------------------------------------------------

# The kernels' coefficient format: int numerators over one positive den,
# {pack_key(e1, e2): numerator}.  Keys add like exponent pairs, as E1 and E2
# are not invertible and no exponent reaches 2^_EXP_BITS: pack refuses an
# exponent of 2^(_EXP_BITS - 1) or more, which leaves the kernels' products
# room to add exponents.  Only this section reads or writes a key's layout
# (pack_key, unpack_key, pack, unpack); other modules only add keys.
_EXP_BITS = 32
_EXP_MASK = (1 << _EXP_BITS) - 1
_EXP_LIMIT = 1 << (_EXP_BITS - 1)
# the bits of a key whose E1 or E2 exponent is _EXP_LIMIT or more
_EXP_OVERFLOW = -_EXP_LIMIT << _EXP_BITS | _EXP_LIMIT


def pack_key(e1: int, e2: int) -> int:
    """The packed key of E1^e1 E2^e2; of negative e1 or e2, the shift that,
    added to a key, adds (e1, e2) to its exponents."""
    return (e1 << _EXP_BITS) + e2


def unpack_key(key: int) -> tuple:
    """The exponent pair (e1, e2) of a packed key."""
    return key >> _EXP_BITS, key & _EXP_MASK


def numerators(coeffs: Mapping) -> tuple:
    """(den, {key: int}) with coeffs = {key: int / den}, den their lcm."""
    den = lcm(*(c.denominator for c in coeffs.values()))
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in coeffs.items()}


def pack(poly: GradedPoly, den: int | None = None) -> tuple:
    """A polynomial of E_RING in packed form: numerators of its terms, as
    from numerators, keyed by packed exponents, in one pass."""
    if poly.terms and max(map(max, poly.terms)) >= _EXP_LIMIT:
        raise RingError(f"exponent too large to pack: {poly}")
    if den is None:
        den = lcm(*(c.denominator for c in poly.terms.values()))
    return den, {e1 << _EXP_BITS | e2: c.numerator * (den // c.denominator)
                 for (e1, e2), c in poly.terms.items()}


def pack_coefficient(c) -> tuple:
    """(den, packed numerators) of a GradedPoly of E_RING (as pack gives
    it), a rational (an int builds no Fraction) or such a pair itself."""
    if isinstance(c, tuple):
        return c
    if isinstance(c, GradedPoly):
        return pack(E_RING.coerce(c))
    if not isinstance(c, int):
        c = Fraction(c)
    return c.denominator, {0: c.numerator} if c else {}


def pack_terms(coeffs: Mapping) -> tuple:
    """(den, {key: packed numerators}) of {key: coefficient} (as for
    pack_coefficient) over the lcm of their denominators, so gcd(den,
    every numerator) = 1; zero coefficients are left out."""
    packed = [(k, pack_coefficient(c)) for k, c in coeffs.items()]
    den = lcm(1, *(d for _, (d, _) in packed))
    return den, {k: {e: c * (den // d) for e, c in t.items()}
                 for k, (d, t) in packed if t}


def divide_content(den: int, table: dict) -> tuple:
    """(den, table) of packed numerators {key: {key: int}} over den, divided
    by the gcd of den and every numerator."""
    content = gcd(den, *(c for t in table.values() for c in t.values()))
    if content == 1:
        return den, table
    return den // content, {k: {e: c // content for e, c in t.items()}
                            for k, t in table.items()}


def unpack(terms: dict, den: int) -> GradedPoly:
    """The GradedPoly of packed terms over den."""
    return GradedPoly(E_RING, {(e >> _EXP_BITS, e & _EXP_MASK):
                               Fraction(c, den) for e, c in terms.items()})


def packed_str(terms: dict, den: int) -> str:
    """str(unpack(terms, den)), built without a GradedPoly or a Fraction."""
    return _format(E_RING, {unpack_key(e): (c // g, den // g) for e, c in
                            terms.items() for g in (gcd(c, den),)})


def check_exponents(den: int, polys) -> None:
    """Refuse, as pack does, packed numerators over den with an exponent of
    2^(_EXP_BITS - 1) or more, which a product could carry into E1's."""
    for t in polys:
        if reduce(or_, t, 0) & _EXP_OVERFLOW:
            raise RingError(f"exponent too large to pack: {unpack(t, den)}")


def packed_add(acc: dict, q: dict) -> dict:
    """acc += q, in place, for packed numerators over one denominator; the
    keys that cancel are dropped.  Returns acc."""
    for e, c in q.items():
        c += acc.get(e, 0)
        if c:
            acc[e] = c
        else:
            acc.pop(e, None)
    return acc


def packed_mul(p: dict, q: dict) -> dict:
    """The product of two packed polynomials' numerators; zero numerators
    are kept."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return out
