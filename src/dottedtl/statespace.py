"""Concrete model of the diagram category: V_n = V_1^{tensor n} over Q[E1,E2].

Each strand carries a rank-2 free module with basis A1 (cup) and A0 (dotted
cup); dot acts as multiplication by a root of x^2 - E1*x + E2.  Matrices over
the base ring are the semantic values of diagrams and the equality oracle.

Basis convention: words over {A1, A0}, A1 < A0, lexicographic; index bit 0 is
A1 and bit 1 is A0, with the first strand in the most significant position.

PolyMatrix entries are GradedPoly values with canonical Fraction
coefficients.  The product kernel reads each operand once into an integer
form (one common denominator per matrix, int numerators, each exponent pair
(e1, e2) packed into the int e1 << 32 | e2), accumulates in ints and
normalises each output coefficient once.  Packed keys add like exponent
pairs because E1 and E2 are not invertible, so no exponent is negative.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .ring import E_RING, GradedPoly, RingError
from .sl2 import GENERATORS, DtlParams, TwistData

E1 = E_RING.gen("E1")
E2 = E_RING.gen("E2")

A1, A0 = 0, 1  # bit values of the two basis letters

# packed exponent keys of the product kernel: e1 << _EXP_BITS | e2
_EXP_BITS = 32
_EXP_MASK = (1 << _EXP_BITS) - 1


def basis_weight(index: int, n: int) -> int:
    """h-weight of a basis word: (#A1) - (#A0)."""
    ones = bin(index).count("1")
    return n - 2 * ones


def basis_qdegree(index: int, n: int) -> int:
    """q-degree of a basis word: (#A0) - (#A1)."""
    return -basis_weight(index, n)


def _pack_poly(poly: GradedPoly):
    """A polynomial in packed form: (den, [(e1 << 32 | e2, numerator)]),
    den the lcm of its coefficients' denominators, numerators ints."""
    den = lcm(*(c.denominator for c in poly.terms.values()))
    return den, [((e1 << _EXP_BITS) | e2, c.numerator * (den // c.denominator))
                 for (e1, e2), c in poly.terms.items()]


def _unpack_column(acc: dict, den: int) -> dict:
    """{row: {packed exponent: int numerator over den}} as a matrix column
    of GradedPoly entries, each coefficient normalised once; zero
    coefficients and zero entries are dropped."""
    col = {}
    for i, tacc in acc.items():
        terms = {(e >> _EXP_BITS, e & _EXP_MASK): Fraction(c, den)
                 for e, c in tacc.items() if c}
        if terms:
            col[i] = GradedPoly(E_RING, terms)
    return col


class PolyMatrix:
    """Sparse rectangular matrix over Q[E1,E2], indexed by state bases.

    Shape is recorded in strand counts: a map V_{n_in} -> V_{n_out} has
    2^{n_out} rows and 2^{n_in} columns.  Entries are stored column-major
    (cols[j][i]) and zero entries are never stored.
    """

    __slots__ = ("n_out", "n_in", "cols")

    def __init__(self, n_out: int, n_in: int, entries=None):
        self.n_out = n_out
        self.n_in = n_in
        self.cols: dict = {}
        if entries:
            for (i, j), v in entries.items():
                self[i, j] = v

    @property
    def nrows(self):
        return 2 ** self.n_out

    @property
    def ncols(self):
        return 2 ** self.n_in

    def __setitem__(self, key, value):
        i, j = key
        v = E_RING.coerce(value)
        col = self.cols.setdefault(j, {})
        if v.is_zero():
            col.pop(i, None)
            if not col:
                del self.cols[j]
        else:
            col[i] = v

    def __getitem__(self, key):
        i, j = key
        return self.cols.get(j, {}).get(i, E_RING.zero)

    def entries(self):
        for j, col in self.cols.items():
            for i, v in col.items():
                yield (i, j), v

    def nnz(self):
        return sum(len(col) for col in self.cols.values())

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        m = cls(n, n)
        one = E_RING.one
        for i in range(2 ** n):
            m.cols[i] = {i: one}
        return m

    @classmethod
    def zero(cls, n_out: int, n_in: int) -> "PolyMatrix":
        return cls(n_out, n_in)

    def copy(self) -> "PolyMatrix":
        m = PolyMatrix(self.n_out, self.n_in)
        m.cols = {j: dict(col) for j, col in self.cols.items()}
        return m

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.n_out, self.n_in) != (other.n_out, other.n_in):
            raise ValueError("shape mismatch")
        m = self.copy()
        for j, col in other.cols.items():
            mc = m.cols.setdefault(j, {})
            for i, v in col.items():
                s = mc.get(i, E_RING.zero) + v
                if s.is_zero():
                    mc.pop(i, None)
                else:
                    mc[i] = s
            if not mc:
                del m.cols[j]
        return m

    def __neg__(self) -> "PolyMatrix":
        m = PolyMatrix(self.n_out, self.n_in)
        m.cols = {j: {i: -v for i, v in col.items()} for j, col in self.cols.items()}
        return m

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (-other)

    def scale(self, c) -> "PolyMatrix":
        c = E_RING.coerce(c)
        m = PolyMatrix(self.n_out, self.n_in)
        if c.is_zero():
            return m
        if len(c.terms) > 1:
            m.cols = {j: {i: v * c for i, v in col.items()}
                      for j, col in self.cols.items()}
            return m
        # a monomial c = x * E1^s1 E2^s2 shifts exponents and scales by x
        ((s1, s2), x), = c.terms.items()
        m.cols = {
            j: {i: GradedPoly(E_RING, {(e1 + s1, e2 + s2): y * x
                                       for (e1, e2), y in v.terms.items()})
                for i, v in col.items()}
            for j, col in self.cols.items()
        }
        return m

    def _packed(self):
        """The matrix over one common denominator, for the product kernel.

        Returns (den, cols) with cols[j][i] a list of (key, numerator) pairs:
        den is the lcm of every coefficient's denominator, each numerator is
        an int over den, and each exponent pair (e1, e2) is packed into the
        int key e1 << 32 | e2.
        """
        den = 1
        for col in self.cols.values():
            for v in col.values():
                for c in v.terms.values():
                    d = c.denominator
                    if den % d:
                        den = lcm(den, d)
        cols = {}
        for j, col in self.cols.items():
            cols[j] = {
                i: [((e1 << _EXP_BITS) | e2, c.numerator * (den // c.denominator))
                    for (e1, e2), c in v.terms.items()]
                for i, v in col.items()
            }
        return den, cols

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Composition self o other (apply other first).

        The inner loop runs on ints: each operand is read once into its
        _packed form, numerator products accumulate as ints under packed
        exponent keys, and each output coefficient is normalised once, as
        Fraction(sum, den_self * den_other).  Adding packed keys adds the
        exponent pairs, because E1 and E2 are not invertible (exponents are
        never negative) and no exponent reaches 2^32.
        """
        if self.n_in != other.n_out:
            raise ValueError("shape mismatch in product")
        m = PolyMatrix(self.n_out, other.n_in)
        if not self.cols or not other.cols:
            return m
        den_s, scols = self._packed()
        den_o, ocols = other._packed()
        den = den_s * den_o
        for j, ocol in ocols.items():
            # raw term dicts per output row, keyed by packed exponents
            acc: dict = {}
            for k, vt in ocol.items():
                scol = scols.get(k)
                if not scol:
                    continue
                for i, wt in scol.items():
                    tacc = acc.get(i)
                    if tacc is None:
                        tacc = acc[i] = {}
                    for e1, c1 in wt:
                        for e2, c2 in vt:
                            e = e1 + e2
                            c = tacc.get(e)
                            tacc[e] = c1 * c2 if c is None else c + c1 * c2
            col = _unpack_column(acc, den)
            if col:
                m.cols[j] = col
        return m

    def tensor(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product; self occupies the leading strands."""
        m = PolyMatrix(self.n_out + other.n_out, self.n_in + other.n_in)
        ro, co = 2 ** other.n_out, 2 ** other.n_in
        for j1, col1 in self.cols.items():
            for j2, col2 in other.cols.items():
                j = j1 * co + j2
                acc = m.cols.setdefault(j, {})
                for i1, v1 in col1.items():
                    for i2, v2 in col2.items():
                        acc[i1 * ro + i2] = v1 * v2
        return m

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        # structural: no zero entry and no empty column is ever stored
        return (self.n_out, self.n_in) == (other.n_out, other.n_in) \
            and self.cols == other.cols

    def __hash__(self):
        raise TypeError("PolyMatrix is unhashable")

    def is_zero(self) -> bool:
        return not self.cols

    def map_entries(self, fn) -> "PolyMatrix":
        m = PolyMatrix(self.n_out, self.n_in)
        for (i, j), v in self.entries():
            m[i, j] = fn(v)
        return m

    def substitute(self, values) -> "PolyMatrix":
        return self.map_entries(lambda p: p.substitute(values))

    def qdegree(self):
        """q-degree if homogeneous (deg entry + deg(row) - deg(col) uniform), else None."""
        degs = set()
        for (i, j), v in self.entries():
            if not v.is_homogeneous():
                return None
            degs.add(
                v.homogeneous_degree()
                + basis_qdegree(i, self.n_out)
                - basis_qdegree(j, self.n_in)
            )
            if len(degs) > 1:
                return None
        return degs.pop() if degs else 0

    def __repr__(self):
        return f"PolyMatrix({self.n_out}<-{self.n_in}, nnz={self.nnz()})"


# -- generator matrices -----------------------------------------------------

def _dot_matrix() -> PolyMatrix:
    m = PolyMatrix(1, 1)
    m[1, 0] = 1          # dot(A1) = A0
    m[1, 1] = E1         # dot(A0) = E1*A0 - E2*A1
    m[0, 1] = -E2
    return m

def _cup_matrix() -> PolyMatrix:
    m = PolyMatrix(2, 0)
    m[0b01, 0] = 1       # A1 (x) A0
    m[0b10, 0] = 1       # A0 (x) A1
    m[0b00, 0] = -E1     # -E1 * A1 (x) A1
    return m

def _cap_matrix() -> PolyMatrix:
    m = PolyMatrix(0, 2)
    m[0, 0b01] = 1
    m[0, 0b10] = 1
    m[0, 0b11] = E1
    return m


PRIM_MATRICES = {
    "id": PolyMatrix.identity(1),
    "dot": _dot_matrix(),
    "cup": _cup_matrix(),
    "cap": _cap_matrix(),
}

PRIM_ARITY = {"id": (1, 1), "dot": (1, 1), "cup": (0, 2), "cap": (2, 0)}


def generator_matrix(gen: str, position: int, n: int) -> PolyMatrix:
    """Matrix of one primitive at a strand position inside n ambient strands.

    For dot/id, position indexes the strand acted on (0-based, < n).  For
    cup, position is the insertion point into n strands (0..n).  For cap,
    position indexes the first of two adjacent strands removed (0..n-2).
    """
    if gen not in PRIM_ARITY:
        raise ValueError(f"unknown generator {gen!r}")
    a_in, _ = PRIM_ARITY[gen]
    max_pos = n if gen == "cup" else n - a_in
    if position < 0 or position > max_pos:
        raise ValueError(f"invalid position {position} for {gen} at n={n}")
    left = PolyMatrix.identity(position)
    right = PolyMatrix.identity(n - position - a_in)
    return left.tensor(PRIM_MATRICES[gen]).tensor(right)


# -- intrinsic sl2 action ---------------------------------------------------

# Images of the basis letters under the module action (5.3.1 conventions):
#   e(A1)=0, f(A1)=-1/2*E1*A1, h(A1)=+1*A1
#   e(A0)=-A1, f(A0)=1/2*E1*A0 - E2*A1, h(A0)=-1*A0
_HALF = Fraction(1, 2)
LETTER_IMAGES = {
    "e": {A1: [], A0: [(A1, E_RING.const(-1))]},
    "f": {A1: [(A1, -_HALF * E1)], A0: [(A0, _HALF * E1), (A1, -E2)]},
    "h": {A1: [(A1, E_RING.one)], A0: [(A0, E_RING.const(-1))]},
}


def apply_intrinsic(g: str, vec: dict, n: int) -> dict:
    """Apply e/f/h to a vector {index: GradedPoly} in V_n: the action on the
    map V_0 -> V_n with that column, where it is G_n plus the derivation."""
    F = PolyMatrix(n, 0)
    if vec:
        F.cols[0] = dict(vec)
    return commutator_star(g, F).cols.get(0, {})


# -- the sl2 action on morphisms ---------------------------------------------

ZERO_TWIST = TwistData(Fraction(0))
_E1_KEY = 1 << _EXP_BITS  # packed key of E1


def _strand_operator(g: str, params: DtlParams) -> PolyMatrix:
    """How g acts on one strand: the letter images, plus -(a1/2) dot -
    (a2/2) E1 for f and (a1 + 2 a2)/2 for h."""
    m = PolyMatrix(1, 1)
    for bit, images in LETTER_IMAGES[g].items():
        for new_bit, img in images:
            m[new_bit, bit] = img
    a1, a2 = Fraction(params.a1), Fraction(params.a2)
    one = PolyMatrix.identity(1)
    if g == "f":
        m = m + PRIM_MATRICES["dot"].scale(E_RING.const(-a1 / 2)) \
            + one.scale(-a2 / 2 * E1)
    elif g == "h":
        m = m + one.scale(E_RING.const((a1 + 2 * a2) / 2))
    return m


@lru_cache(maxsize=256)
def _object_operator(g: str, n: int, params: DtlParams, a: Fraction):
    """G_n in _packed form: the strand operator on each of the n strands
    plus the object's twist term (a*E1 for f, -2a for h).

    Built one basis index at a time: column j gets, for each strand, the
    strand operator's column at that strand's bit of j, written into the
    row with that bit replaced by the image letter's; the twist term sits
    on the diagonal.  Numerators accumulate as ints over one denominator,
    which is then reduced to the lowest one, as _packed gives it.
    """
    den_s, strand = _strand_operator(g, params)._packed()
    tau = TwistData(a).tau(g).terms
    den = lcm(den_s, *(c.denominator for c in tau.values()))
    ms = den // den_s
    diag = {(e1 << _EXP_BITS) | e2: c.numerator * (den // c.denominator)
            for (e1, e2), c in tau.items()}
    cols = {}
    content = den  # gcd of den and every numerator
    for j in range(2 ** n):
        acc = {j: dict(diag)} if diag else {}
        for shift in range(n):
            bit = j >> shift & 1
            for new_bit, terms in strand.get(bit, {}).items():
                tacc = acc.setdefault(j ^ (bit ^ new_bit) << shift, {})
                for e, c in terms:
                    tacc[e] = tacc.get(e, 0) + c * ms
        col = {}
        for i, tacc in acc.items():
            terms = [(e, c) for e, c in tacc.items() if c]
            if terms:
                col[i] = terms
                content = gcd(content, *(c for _, c in terms))
        if col:
            cols[j] = col
    if content > 1:
        den //= content
        cols = {j: {i: [(e, c // content) for e, c in terms]
                    for i, terms in col.items()}
                for j, col in cols.items()}
    return den, cols


def _derive(g: str, terms) -> list:
    """The base derivation on packed terms, in closed form: e sends E1 -> -2
    and E2 -> -E1, f sends E1 -> E1^2 - 2E2 and E2 -> E1E2, and h has
    weights -2 and -4."""
    out = []
    for key, c in terms:
        a, b = key >> _EXP_BITS, key & _EXP_MASK
        if g == "h":
            out.append((key, (-2 * a - 4 * b) * c))
        elif g == "e":
            if a:
                out.append((key - _E1_KEY, -2 * a * c))
            if b:
                out.append((key + _E1_KEY - 1, -b * c))
        else:
            out.append((key + _E1_KEY, (a + b) * c))
            if a:
                out.append((key - _E1_KEY + 1, -2 * a * c))
    return out


def commutator_star(
    g: str,
    F: PolyMatrix,
    source_twist: TwistData = ZERO_TWIST,
    target_twist: TwistData = ZERO_TWIST,
    params: DtlParams = DtlParams(),
) -> PolyMatrix:
    """The sl2 action on morphisms: g*F = G_out F - F G_in + d_g(F).

    d_g is the base derivation on F's entries.  G_n acts on V_n strand by
    strand (LETTER_IMAGES plus the parameter terms of _strand_operator)
    and adds the object's twist: a*E1 for f and -2a for h.  The word action
    and the twisted star action are both this map: for every parameter
    pair, act(g, x, params).evaluate() equals
    commutator_star(g, x.evaluate(), params=params).

    One pass over the _packed integer forms of F and of the two G_n, as in
    PolyMatrix.__mul__; d_g acts on packed exponents in closed form.
    """
    if g not in GENERATORS:
        raise ValueError(g)
    den_f, fcols = F._packed()
    den_o, gout = _object_operator(g, F.n_out, params,
                                   Fraction(target_twist.a))
    den_i, gin = _object_operator(g, F.n_in, params,
                                  Fraction(source_twist.a))
    den = lcm(den_o, den_i)
    mo, mi = den // den_o, den // den_i  # bring both G_n over den
    full = den * den_f
    out = PolyMatrix(F.n_out, F.n_in)
    for j in range(2 ** F.n_in):
        acc: dict = {}
        for k, ft in fcols.get(j, {}).items():
            # G_out F
            for i, gt in gout.get(k, {}).items():
                tacc = acc.get(i)
                if tacc is None:
                    tacc = acc[i] = {}
                for e1, c1 in gt:
                    c1 *= mo
                    for e2, c2 in ft:
                        e = e1 + e2
                        tacc[e] = tacc.get(e, 0) + c1 * c2
            # d_g(F), brought from den_f to the full denominator
            tacc = acc.get(k)
            if tacc is None:
                tacc = acc[k] = {}
            for e, c in _derive(g, ft):
                tacc[e] = tacc.get(e, 0) + c * den
        # - F G_in
        for k, gt in gin.get(j, {}).items():
            for i, ft in fcols.get(k, {}).items():
                tacc = acc.get(i)
                if tacc is None:
                    tacc = acc[i] = {}
                for e1, c1 in gt:
                    c1 *= mi
                    for e2, c2 in ft:
                        e = e1 + e2
                        tacc[e] = tacc.get(e, 0) - c1 * c2
        col = _unpack_column(acc, full)
        if col:
            out.cols[j] = col
    return out
