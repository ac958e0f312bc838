"""Concrete model of the diagram category: V_n = V_1^{tensor n} over Q[E1,E2].

Each strand carries a rank-2 free module with basis A1 (cup) and A0 (dotted
cup); dot acts as multiplication by a root of x^2 - E1*x + E2.  Matrices over
the base ring are the semantic values of diagrams and the equality oracle.

Basis convention: words over {A1, A0}, A1 < A0, lexicographic; index bit 0 is
A1 and bit 1 is A0, with the first strand in the most significant position.

A PolyMatrix is stored in packed integer form: one common denominator den
and a table {col: {row: {e1 << 32 | e2: int numerator}}}, each exponent pair
(e1, e2) packed into one int key.  Packed keys add like exponent pairs
because E1 and E2 are not invertible, so no exponent is negative.  The
table is canonical: no zero numerator, no empty entry or column, and
gcd(den, every numerator) = 1, so equal matrices have equal (den, table).
Every kernel (product, tensor, sums, scaling, the sl2 action) reads and
writes tables and ends in one normalisation, from_packed.  GradedPoly
entries with Fraction coefficients are built only at the API boundary:
m[i, j], entries() and cols.
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

# packed exponent keys: e1 << _EXP_BITS | e2
_EXP_BITS = 32
_EXP_MASK = (1 << _EXP_BITS) - 1
_E1_KEY = 1 << _EXP_BITS  # packed key of E1


def basis_weight(index: int, n: int) -> int:
    """h-weight of a basis word: (#A1) - (#A0)."""
    ones = bin(index).count("1")
    return n - 2 * ones


def basis_qdegree(index: int, n: int) -> int:
    """q-degree of a basis word: (#A0) - (#A1)."""
    return -basis_weight(index, n)


def _pack_poly(poly: GradedPoly, den: int | None = None):
    """A polynomial in packed form: (den, {e1 << 32 | e2: numerator}) with
    int numerators.  den defaults to the lcm of the coefficients'
    denominators; a given den must be a multiple of each of them."""
    if den is None:
        den = lcm(*(c.denominator for c in poly.terms.values()))
    return den, {(e1 << _EXP_BITS) | e2: c.numerator * (den // c.denominator)
                 for (e1, e2), c in poly.terms.items()}


def _unpack_poly(terms: dict, den: int) -> GradedPoly:
    """The GradedPoly of packed terms over den."""
    return GradedPoly(E_RING, {(e >> _EXP_BITS, e & _EXP_MASK): Fraction(c, den)
                               for e, c in terms.items()})


def _pack_cols(cols: dict):
    """(den, table) of a {col: {row: GradedPoly}} dict; zero entries and
    empty columns are skipped.  den is the lcm of every coefficient's
    denominator, so gcd(den, every numerator) = 1."""
    den = 1
    for col in cols.values():
        for v in col.values():
            for c in v.terms.values():
                d = c.denominator
                if den % d:
                    den = lcm(den, d)
    table = {}
    for j, col in cols.items():
        tcol = {}
        for i, v in col.items():
            if v.terms:
                tcol[i] = _pack_poly(v, den)[1]
        if tcol:
            table[j] = tcol
    return den, table


def _packed_mul(p: dict, q: dict) -> dict:
    """Product of two packed polynomials {e1 << 32 | e2: int numerator}."""
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _strip(acc: dict, content: int):
    """An accumulated column {row: {key: numerator}} without zero numerators
    or empty entries, and gcd(content, its numerators)."""
    col = {}
    for i, t in acc.items():
        if not t or 0 in t.values():
            t = {e: c for e, c in t.items() if c}
            if not t:
                continue
        col[i] = t
        if content != 1:
            content = gcd(content, *t.values())
    return col, content


def _canonical(n_out: int, n_in: int, den: int, table: dict,
               content: int) -> "PolyMatrix":
    """The matrix of a table over den with no zero numerator and no empty
    entry or column, content = gcd(den, every numerator) divided out."""
    if content != 1:
        den //= content
        table = {j: {i: {e: c // content for e, c in t.items()}
                     for i, t in col.items()}
                 for j, col in table.items()}
    m = PolyMatrix.__new__(PolyMatrix)
    m.n_out, m.n_in = n_out, n_in
    m._den, m._table, m._cols = den, table, None
    return m


class PolyMatrix:
    """Sparse rectangular matrix over Q[E1,E2], indexed by state bases.

    Shape is recorded in strand counts: a map V_{n_in} -> V_{n_out} has
    2^{n_out} rows and 2^{n_in} columns.  Entries are stored column-major
    in the canonical packed table of the module docstring; tables are never
    changed once built, so matrices may share them.

    cols is the public, mutable {col: {row: GradedPoly}} view.  Reading it
    builds that dict once and makes it the matrix's storage: the table is
    dropped, because the caller may change the dict, and _packed() packs
    the dict again on each call.
    """

    __slots__ = ("n_out", "n_in", "_den", "_table", "_cols")

    def __init__(self, n_out: int, n_in: int, entries=None):
        self.n_out = n_out
        self.n_in = n_in
        self._cols = None
        cols: dict = {}
        if entries:
            for (i, j), v in entries.items():
                v = E_RING.coerce(v)
                if v.terms:
                    cols.setdefault(j, {})[i] = v
        self._den, self._table = _pack_cols(cols)

    @classmethod
    def from_packed(cls, n_out: int, n_in: int, den: int,
                    acc: dict) -> "PolyMatrix":
        """The matrix with entries acc[col][row] = {e1 << 32 | e2: int
        numerator} over the positive int den.  Zero numerators, empty
        entries and empty columns are dropped and the content is divided
        out: the one normalisation every kernel ends in.  The dicts of acc
        may become the matrix's table, so the caller must not change them
        afterwards."""
        table = {}
        content = den
        for j, col in acc.items():
            col, content = _strip(col, content)
            if col:
                table[j] = col
        return _canonical(n_out, n_in, den, table, content)

    def _packed(self):
        """(den, table): the stored table, or the cols dict packed afresh."""
        if self._table is not None:
            return self._den, self._table
        return _pack_cols(self._cols)

    @property
    def cols(self) -> dict:
        if self._cols is None:
            den = self._den
            self._cols = {j: {i: _unpack_poly(t, den) for i, t in col.items()}
                          for j, col in self._table.items()}
            self._table = None
        return self._cols

    def __getitem__(self, key):
        i, j = key
        if self._table is None:
            return self._cols.get(j, {}).get(i, E_RING.zero)
        t = self._table.get(j, {}).get(i)
        return E_RING.zero if t is None else _unpack_poly(t, self._den)

    def entries(self):
        if self._table is None:
            for j, col in self._cols.items():
                for i, v in col.items():
                    yield (i, j), v
            return
        den = self._den
        for j, col in self._table.items():
            for i, t in col.items():
                yield (i, j), _unpack_poly(t, den)

    def nnz(self):
        return sum(len(col) for col in self._packed()[1].values())

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        one = {0: 1}
        return _canonical(n, n, 1, {i: {i: one} for i in range(2 ** n)}, 1)

    def _combine(self, other: "PolyMatrix", sign: int) -> "PolyMatrix":
        """self + sign * other over the lcm of the two denominators."""
        if (self.n_out, self.n_in) != (other.n_out, other.n_in):
            raise ValueError("shape mismatch")
        da, ta = self._packed()
        db, tb = other._packed()
        den = lcm(da, db)
        ma, mb = den // da, sign * (den // db)
        acc = {j: {i: {e: c * ma for e, c in t.items()}
                   for i, t in col.items()}
               for j, col in ta.items()}
        for j, col in tb.items():
            acc_j = acc.setdefault(j, {})
            for i, t in col.items():
                tacc = acc_j.get(i)
                if tacc is None:
                    acc_j[i] = {e: c * mb for e, c in t.items()}
                else:
                    for e, c in t.items():
                        tacc[e] = tacc.get(e, 0) + c * mb
        return PolyMatrix.from_packed(self.n_out, self.n_in, den, acc)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "PolyMatrix":
        den, table = self._packed()
        return _canonical(self.n_out, self.n_in, den,
                          {j: {i: {e: -c for e, c in t.items()}
                               for i, t in col.items()}
                           for j, col in table.items()}, 1)

    def scale(self, c) -> "PolyMatrix":
        """c times the matrix, for c a GradedPoly or a rational."""
        if isinstance(c, GradedPoly):
            den_c, ct = _pack_poly(E_RING.coerce(c))
        else:
            c = Fraction(c)
            den_c, ct = c.denominator, {0: c.numerator} if c else {}
        den, table = self._packed()
        acc = {j: {i: _packed_mul(t, ct) for i, t in col.items()}
               for j, col in table.items()} if ct else {}
        return PolyMatrix.from_packed(self.n_out, self.n_in, den * den_c, acc)

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Composition self o other (apply other first).

        The inner loop runs on the two int tables: numerator products
        accumulate under packed exponent keys over den_self * den_other,
        and each output column is stripped of zeros as soon as it is
        complete, keeping a running gcd of the numerators, so that only a
        result whose content exceeds 1 gets a second pass.  Adding
        packed keys adds the exponent pairs, because E1 and E2 are not
        invertible (exponents are never negative) and no exponent reaches
        2^32.
        """
        if self.n_in != other.n_out:
            raise ValueError("shape mismatch in product")
        den_s, scols = self._packed()
        den_o, ocols = other._packed()
        content = den = den_s * den_o
        table = {}
        for j, ocol in ocols.items():
            # raw term dicts per output row, keyed by packed exponents
            acc: dict = {}
            for k, vt in ocol.items():
                scol = scols.get(k)
                if not scol:
                    continue
                vt = vt.items()
                for i, wt in scol.items():
                    tacc = acc.get(i)
                    if tacc is None:
                        tacc = acc[i] = {}
                    for e1, c1 in wt.items():
                        for e2, c2 in vt:
                            e = e1 + e2
                            tacc[e] = tacc.get(e, 0) + c1 * c2
            col, content = _strip(acc, content)
            if col:
                table[j] = col
        return _canonical(self.n_out, other.n_in, den, table, content)

    def tensor(self, other: "PolyMatrix") -> "PolyMatrix":
        """Kronecker product; self occupies the leading strands."""
        da, ta = self._packed()
        db, tb = other._packed()
        ro, co = 2 ** other.n_out, 2 ** other.n_in
        acc = {}
        for j1, col1 in ta.items():
            for j2, col2 in tb.items():
                acc[j1 * co + j2] = {i1 * ro + i2: _packed_mul(t1, t2)
                                     for i1, t1 in col1.items()
                                     for i2, t2 in col2.items()}
        return PolyMatrix.from_packed(self.n_out + other.n_out,
                                      self.n_in + other.n_in, da * db, acc)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        # structural: the packed tables are canonical
        return (self.n_out, self.n_in) == (other.n_out, other.n_in) \
            and self._packed() == other._packed()

    def __hash__(self):
        raise TypeError("PolyMatrix is unhashable")

    def is_zero(self) -> bool:
        return not self._packed()[1]

    def substitute(self, values) -> "PolyMatrix":
        """Replace E1 and/or E2 ({name: rational}) by constants.

        In ints: a value p/q at a generator whose top exponent is t turns
        a term of exponent a into p^a q^(t-a) over a denominator grown by
        q^t."""
        den, table = self._packed()
        subs = []
        for name, v in values.items():
            v = Fraction(v)
            shift = _EXP_BITS if E_RING.index[name] == 0 else 0
            top = max((e >> shift & _EXP_MASK for col in table.values()
                       for t in col.values() for e in t), default=0)
            subs.append((shift, v.numerator, v.denominator, top))
            den *= v.denominator ** top
        acc = {}
        for j, col in table.items():
            acc_j = acc[j] = {}
            for i, t in col.items():
                out = acc_j[i] = {}
                for e, c in t.items():
                    for shift, p, q, top in subs:
                        a = e >> shift & _EXP_MASK
                        c *= p ** a * q ** (top - a)
                        e -= a << shift
                    out[e] = out.get(e, 0) + c
        return PolyMatrix.from_packed(self.n_out, self.n_in, den, acc)

    def qdegree(self):
        """q-degree if homogeneous (deg entry + deg(row) - deg(col) uniform), else None."""
        d1, d2 = E_RING.degrees
        deg = None
        for j, col in self._packed()[1].items():
            dj = basis_qdegree(j, self.n_in)
            for i, t in col.items():
                ds = {d1 * (e >> _EXP_BITS) + d2 * (e & _EXP_MASK) for e in t}
                if len(ds) > 1:
                    return None
                d = ds.pop() + basis_qdegree(i, self.n_out) - dj
                if deg is None:
                    deg = d
                elif d != deg:
                    return None
        return 0 if deg is None else deg

    def __repr__(self):
        return f"PolyMatrix({self.n_out}<-{self.n_in}, nnz={self.nnz()})"


# -- generator matrices -----------------------------------------------------

def _dot_matrix() -> PolyMatrix:
    # dot(A1) = A0, dot(A0) = E1*A0 - E2*A1
    return PolyMatrix(1, 1, {(1, 0): 1, (1, 1): E1, (0, 1): -E2})

def _cup_matrix() -> PolyMatrix:
    # A1 (x) A0 + A0 (x) A1 - E1 * A1 (x) A1
    return PolyMatrix(2, 0, {(0b01, 0): 1, (0b10, 0): 1, (0b00, 0): -E1})

def _cap_matrix() -> PolyMatrix:
    return PolyMatrix(0, 2, {(0, 0b01): 1, (0, 0b10): 1, (0, 0b11): E1})


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


# -- the sl2 action on morphisms ---------------------------------------------

ZERO_TWIST = TwistData(Fraction(0))


def _strand_operator(g: str, params: DtlParams) -> PolyMatrix:
    """How g acts on one strand: the letter images, plus -(a1/2) dot -
    (a2/2) E1 for f and (a1 + 2 a2)/2 for h."""
    m = PolyMatrix(1, 1, {(new_bit, bit): img
                          for bit, images in LETTER_IMAGES[g].items()
                          for new_bit, img in images})
    a1, a2 = Fraction(params.a1), Fraction(params.a2)
    one = PRIM_MATRICES["id"]
    if g == "f":
        m = m - PRIM_MATRICES["dot"].scale(a1 / 2) + one.scale(-a2 / 2 * E1)
    elif g == "h":
        m = m + one.scale((a1 + 2 * a2) / 2)
    return m


@lru_cache(maxsize=256)
def _object_operator(g: str, n: int, params: DtlParams, a: Fraction):
    """G_n in _packed form: the strand operator on each of the n strands
    plus the object's twist term TwistData(a).tau(g) (a*E1 for f, -2a for
    h).

    Built one basis index at a time: column j gets, for each strand, the
    strand operator's column at that strand's bit of j, written into the
    row with that bit replaced by the image letter's; the twist term sits
    on the diagonal.  Numerators accumulate as ints over one denominator;
    from_packed reduces it to the lowest one.
    """
    den_s, strand = _strand_operator(g, params)._packed()
    tau = TwistData(a).tau(g)
    den = lcm(den_s, *(c.denominator for c in tau.terms.values()))
    ms = den // den_s
    diag = _pack_poly(tau, den)[1]
    cols = {}
    for j in range(2 ** n):
        acc = {j: dict(diag)} if diag else {}
        for shift in range(n):
            bit = j >> shift & 1
            for new_bit, terms in strand.get(bit, {}).items():
                tacc = acc.setdefault(j ^ (bit ^ new_bit) << shift, {})
                for e, c in terms.items():
                    tacc[e] = tacc.get(e, 0) + c * ms
        cols[j] = acc
    return PolyMatrix.from_packed(n, n, den, cols)._packed()


def _derive(g: str, terms: dict) -> list:
    """The base derivation on packed terms, in closed form: e sends E1 -> -2
    and E2 -> -E1, f sends E1 -> E1^2 - 2E2 and E2 -> E1E2, and h has
    weights -2 and -4."""
    out = []
    for key, c in terms.items():
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

    One pass over the packed tables of F and of the two G_n, as in
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
    content = full = den * den_f
    table = {}
    for j in range(2 ** F.n_in):
        acc: dict = {}
        for k, ft in fcols.get(j, {}).items():
            # G_out F
            for i, gt in gout.get(k, {}).items():
                tacc = acc.get(i)
                if tacc is None:
                    tacc = acc[i] = {}
                for e1, c1 in gt.items():
                    c1 *= mo
                    for e, c in ft.items():
                        e += e1
                        tacc[e] = tacc.get(e, 0) + c1 * c
            # d_g(F), brought from den_f to the full denominator
            tacc = acc.get(k)
            if tacc is None:
                tacc = acc[k] = {}
            for e, c in _derive(g, ft):
                tacc[e] = tacc.get(e, 0) + c * den
        # - F G_in
        for k, gt in gin.get(j, {}).items():
            for e1, c1 in gt.items():
                c1 *= -mi
                for i, ft in fcols.get(k, {}).items():
                    tacc = acc.get(i)
                    if tacc is None:
                        acc[i] = {e1 + e2: c1 * c2 for e2, c2 in ft.items()}
                        continue
                    for e2, c2 in ft.items():
                        e = e1 + e2
                        tacc[e] = tacc.get(e, 0) + c1 * c2
        col, content = _strip(acc, content)
        if col:
            table[j] = col
    return _canonical(F.n_out, F.n_in, full, table, content)
