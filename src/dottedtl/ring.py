"""Exact scalar arithmetic: rationals, graded polynomial rings, q-Laurent polynomials.

Everything downstream is linear algebra over these rings, so all operations
are exact (Fraction coefficients, no floats anywhere).
"""

from __future__ import annotations

from fractions import Fraction
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

    def poly(self, terms: Mapping[tuple, Fraction]) -> "GradedPoly":
        return GradedPoly(self, terms)

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

    def monomial(self, coeff, **powers) -> "GradedPoly":
        exp = [0] * len(self.gens)
        for name, p in powers.items():
            i = self.index[name]
            if p < 0 and not self.invertible[i]:
                raise RingError(f"negative power of non-invertible generator {name}")
            exp[i] = p
        c = Fraction(coeff)
        return GradedPoly(self, {tuple(exp): c} if c else {})

    def coerce(self, x) -> "GradedPoly":
        if isinstance(x, GradedPoly):
            if x.ring is not self:
                raise RingError("mixed rings")
            return x
        return self.const(x)

    def __repr__(self):
        return "PolyRing(" + ", ".join(self.names) + ")"


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
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
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
        return sum(p * d for p, d in zip(exp, self.ring.degrees))

    def is_homogeneous(self) -> bool:
        degs = {self.monomial_degree(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """Degree if homogeneous and nonzero, else raises."""
        degs = {self.monomial_degree(e) for e in self.terms}
        if len(degs) != 1:
            raise RingError("not homogeneous or zero")
        return degs.pop()

    def substitute(self, values: Mapping[str, Fraction]) -> "GradedPoly":
        """Replace named generators by rational constants; others are kept."""
        idx = {self.ring.index[n]: Fraction(v) for n, v in values.items()}
        terms: dict = {}
        for e, c in self.terms.items():
            coeff = c
            new = list(e)
            for i, v in idx.items():
                p = new[i]
                if p:
                    if v == 0 and p < 0:
                        raise RingError("substituting 0 into a negative power")
                    coeff = coeff * v ** p
                    new[i] = 0
                if not coeff:
                    break
            if not coeff:
                continue
            key = tuple(new)
            s = terms.get(key, 0) + coeff
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
        return GradedPoly(self.ring, terms)

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        out = self.substitute(values)
        return out.constant_value()

    # -- printing -----------------------------------------------------------

    def _sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda ec: (self.monomial_degree(ec[0]), ec[0])
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            factors = []
            for name, p in zip(self.ring.names, e):
                if p == 1:
                    factors.append(name)
                elif p:
                    factors.append(f"{name}^{p}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first = parts[0]
        out = ("-" if first_sign == "-" else "") + first
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__


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


# -- q-Laurent polynomials --------------------------------------------------

class QLaurent:
    """Laurent polynomial in q over Q: dict from integer exponent to Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, Fraction]):
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    @classmethod
    def const(cls, c) -> "QLaurent":
        return cls({0: Fraction(c)})

    @classmethod
    def q(cls, n: int = 1) -> "QLaurent":
        return cls({n: Fraction(1)})

    def __add__(self, other):
        other = other if isinstance(other, QLaurent) else QLaurent.const(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return QLaurent(terms)

    __radd__ = __add__

    def __neg__(self):
        return QLaurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = other if isinstance(other, QLaurent) else QLaurent.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, QLaurent):
            return QLaurent({e: c * Fraction(other) for e, c in self.terms.items()})
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                s = terms.get(e1 + e2, 0) + c1 * c2
                if s:
                    terms[e1 + e2] = s
                else:
                    terms.pop(e1 + e2, None)
        return QLaurent(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = other if isinstance(other, QLaurent) else QLaurent.const(other)
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def exact_div(self, other: "QLaurent") -> "QLaurent":
        """Exact division; raises RingError if the quotient is not a Laurent polynomial."""
        if other.is_zero():
            raise RingError("division by zero")
        rem = dict(self.terms)
        lead = max(other.terms)
        lead_c = other.terms[lead]
        quot: dict = {}
        while rem:
            top = max(rem)
            e = top - lead
            c = rem[top] / lead_c
            quot[e] = quot.get(e, 0) + c
            for oe, oc in other.terms.items():
                k = oe + e
                s = rem.get(k, 0) - oc * c
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return QLaurent(quot)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                body = str(abs(c))
            else:
                qpow = "q" if e == 1 else f"q^{e}"
                body = qpow if abs(c) == 1 else f"{abs(c)}*{qpow}"
            parts.append(("-" if c < 0 else "+", body))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    __repr__ = __str__


def qint(n: int) -> QLaurent:
    """Balanced quantum integer [n] = (q^n - q^-n)/(q - q^-1)."""
    if n == 0:
        return QLaurent({})
    if n < 0:
        return -qint(-n)
    return QLaurent({n - 1 - 2 * i: Fraction(1) for i in range(n)})


def qfact(k: int) -> QLaurent:
    """Quantum factorial [k]!."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = QLaurent.const(1)
    for j in range(1, k + 1):
        out = out * qint(j)
    return out


def qbinom(m: int, a: int) -> QLaurent:
    """Quantum binomial: product over i=1..a of [m+1-i]/[i], exact division."""
    if a < 0:
        raise ValueError("a must be non-negative")
    out = QLaurent.const(1)
    for i in range(1, a + 1):
        out = (out * qint(m + 1 - i)).exact_div(qint(i))
    return out
