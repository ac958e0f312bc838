"""Concrete model of the diagram category: V_n = V_1^{tensor n} over Q[E1,E2].

Each strand carries a rank-2 free module with basis A1 (cup) and A0 (dotted
cup); dot acts as multiplication by a root of x^2 - E1*x + E2.  Matrices over
the base ring are the semantic values of diagrams and the equality oracle.

Basis convention: words over {A1, A0}, A1 < A0, lexicographic; index bit 0 is
A1 and bit 1 is A0, with the first strand in the most significant position.

A PolyMatrix is stored as one denominator den and a canonical table
{col: {row: packed numerators}} (ring's format): no zero numerator, no
empty entry or column, gcd(den, every numerator) = 1, so equal matrices
have equal (den, table).  Every kernel reads and writes tables and ends
in ring's canonical form, ring.strip column by column and then
ring.divide_content, so a result exponent past the packed format raises
RingError; GradedPolys are built only by m[i, j] and cols.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .ring import (E1, E2, E_RING, LASAGNA_RING, GradedPoly, divide_content,
                   pack, pack_coefficient, pack_terms, packed_mul, strip, unpack,
                   unpack_key)
from .sl2 import GENERATORS, LASAGNA_SPEC, DtlParams, TwistData, derive_packed

A1, A0 = 0, 1  # bit values of the two basis letters


def basis_weight(index: int, n: int) -> int:
    """h-weight of a basis word: (#A1) - (#A0); on the core side -1 - m,
    m - 2k for u_k (b = A1 and v = A0 - (E1/2) A1 are homogeneous)."""
    if n < 0:
        return core_side(n) - 2 * index
    return n - 2 * bin(index).count("1")


def basis_qdegree(index: int, n: int) -> int:
    """q-degree of a basis word or core basis vector: (#A0) - (#A1)."""
    return -basis_weight(index, n)


def _pack_cols(cells: dict):
    """(den, table) of {(row, col): coefficient}: ring.pack_terms, grouped
    by column."""
    den, packed = pack_terms(cells)
    table: dict = {}
    for (i, j), t in packed.items():
        table.setdefault(j, {})[i] = t
    return den, table


def _product_column(acc: dict, left: dict, right_col: dict,
                    scale: int) -> None:
    """The product kernel of __mul__ and commutator_star: add scale * (left
    o right_col) into the column acc, left being a table; packed keys add
    like exponent pairs (ring's packed format)."""
    for k, vt in right_col.items():
        lcol = left.get(k)
        if not lcol:
            continue
        if scale != 1:
            vt = {e: c * scale for e, c in vt.items()}
        vt = vt.items()
        for i, wt in lcol.items():
            tacc = acc.get(i)
            if tacc is None:
                tacc = acc[i] = {}
            for e1, c1 in wt.items():
                for e2, c2 in vt:
                    e = e1 + e2
                    tacc[e] = tacc.get(e, 0) + c1 * c2


def _canonical(n_out: int, n_in: int, den: int, table: dict,
               content: int) -> "PolyMatrix":
    """The matrix of a table over den whose columns ring.strip made, content
    being gcd(den, every numerator): ring.divide_content divides it out of
    each column."""
    if content != 1:
        table = {j: divide_content(den, col, content)[1]
                 for j, col in table.items()}
    m = PolyMatrix.__new__(PolyMatrix)
    m.n_out, m.n_in = n_out, n_in
    m._den, m._table, m._cols = den // content, table, None
    return m


class PolyMatrix:
    """Sparse rectangular matrix over Q[E1,E2], indexed by state bases.

    Shape is recorded in strand counts: a map V_{n_in} -> V_{n_out} has
    2^{n_out} rows and 2^{n_in} columns; a core's side, core_side(n) =
    -1 - n, has n + 1.  Products and sums compare sides, so mixing the
    kinds raises.  Entries are stored column-major in the
    canonical packed table of the module docstring; tables are never
    changed once built, so matrices may share them.

    cols is the public, mutable {col: {row: GradedPoly}} view.  Reading it
    builds that dict once and makes it the matrix's storage: the table is
    dropped, because the caller may change the dict, and _packed() packs
    the dict again on each call.
    """

    __slots__ = ("n_out", "n_in", "_den", "_table", "_cols")

    def __init__(self, n_out: int, n_in: int, entries=None):
        self.n_out, self.n_in, self._cols = n_out, n_in, None
        self._den, self._table = _pack_cols(entries or {})

    @classmethod
    def from_packed(cls, n_out: int, n_in: int, den: int,
                    acc: dict) -> "PolyMatrix":
        """The matrix with entries acc[col][row], packed numerators (ring's
        format) over the positive int den, each column put through
        ring.strip and the content divided out.  The dicts of acc
        may become the matrix's table, so the caller must not change them
        afterwards.  A column dict under several keys is stripped once."""
        table, stripped, content = {}, {}, den
        for j, col in acc.items():
            if id(col) not in stripped:  # acc holds col: its id is unique
                stripped[id(col)], content = strip(col, den, content)
            if stripped[id(col)]:
                table[j] = stripped[id(col)]
        return _canonical(n_out, n_in, den, table, content)

    def _packed(self):
        """(den, table): the stored table, or the cols dict packed afresh."""
        if self._table is not None:
            return self._den, self._table
        return _pack_cols({(i, j): v for j, col in self._cols.items()
                           for i, v in col.items()})

    @property
    def cols(self) -> dict:
        if self._cols is None:
            den = self._den
            self._cols = {j: {i: unpack(t, den) for i, t in col.items()}
                          for j, col in self._table.items()}
            self._table = None
        return self._cols

    def __getitem__(self, key):
        i, j = key
        if self._table is None:
            return self._cols.get(j, {}).get(i, E_RING.zero)
        t = self._table.get(j, {}).get(i)
        return E_RING.zero if t is None else unpack(t, self._den)

    def nnz(self):
        return sum(len(col) for col in self._packed()[1].values())

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        """The identity on a side: n strands, or a core side."""
        one = {0: 1}
        return _canonical(n, n, 1, {i: {i: one} for i in range(side_size(n))},
                          1)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        return linear_combination(self.n_out, self.n_in, ((1, self), (1, other)))

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return linear_combination(self.n_out, self.n_in, ((1, self), (-1, other)))

    def __neg__(self) -> "PolyMatrix":
        return linear_combination(self.n_out, self.n_in, ((-1, self),))

    def scale(self, c) -> "PolyMatrix":
        """c times the matrix, for c a GradedPoly or a rational."""
        return linear_combination(self.n_out, self.n_in, ((c, self),))

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Composition self o other (apply other first).

        Each output column is one _product_column over den_self *
        den_other, put through ring.strip as soon as it is complete, which
        keeps a running gcd of the numerators, so that only a result whose
        content exceeds 1 gets a second pass.
        """
        if self.n_in != other.n_out:
            raise ValueError("shape mismatch in product")
        den_s, scols = self._packed()
        den_o, ocols = other._packed()
        content = den = den_s * den_o
        table = {}
        for j, ocol in ocols.items():
            acc: dict = {}
            _product_column(acc, scols, ocol, 1)
            col, content = strip(acc, den, content)
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
                acc[j1 * co + j2] = {i1 * ro + i2: packed_mul(t1, t2)
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

    def is_zero(self) -> bool:
        return not self._packed()[1]

    def constant_terms(self) -> "PolyMatrix":
        """The matrix at E1 = E2 = 0: each entry's constant term."""
        den, table = self._packed()
        return PolyMatrix.from_packed(
            self.n_out, self.n_in, den,
            {j: {i: {0: t[0]} for i, t in col.items() if 0 in t}
             for j, col in table.items()})

    def qdegree(self):
        """q-degree if homogeneous (deg entry + deg(row) - deg(col) uniform), else None."""
        d1, d2 = E_RING.degrees
        deg = None
        for j, col in self._packed()[1].items():
            dj = basis_qdegree(j, self.n_in)
            for i, t in col.items():
                ds = {d1 * a + d2 * b for a, b in map(unpack_key, t)}
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


def core_side(n: int) -> int:
    """A core's side at level n: negative, so it equals no strand count.
    It is its own inverse: core_side(core_side(n)) = n."""
    return -1 - n


def side_size(n: int) -> int:
    """The basis size of a side: 2^n for n strands, n + 1 for the core side
    -1 - n of level n."""
    return 2 ** n if n >= 0 else -n


def linear_combination(n_out: int, n_in: int, terms) -> PolyMatrix:
    """The linear-combination kernel of +, -, negation, scale and
    Combo.evaluate: the sum of c * m over the (c, m) pairs of terms, c as
    ring.pack_coefficient takes it (Combo.evaluate's come packed) and each
    m of shape n_out <- n_in, over the lcm of the terms' denominators.  A
    constant c keeps each packed key object as it is, where e + 0 would
    allocate a new int per term."""
    packed = []
    for c, m in terms:
        if (m.n_out, m.n_in) != (n_out, n_in):
            raise ValueError("shape mismatch")
        den_c, ct = pack_coefficient(c)
        den_m, table = m._packed()
        if ct and table:
            packed.append((den_c * den_m, ct, table))
    den = lcm(1, *(d for d, _, _ in packed))
    acc: dict = {}
    for d, ct, table in packed:
        mult = den // d
        ct = {e: x * mult for e, x in ct.items()}
        const = ct[0] if len(ct) == 1 and 0 in ct else None
        for j, col in table.items():
            acc_j = acc.setdefault(j, {})
            for i, t in col.items():
                tacc = acc_j.get(i)
                if tacc is None:
                    acc_j[i] = (packed_mul(t, ct) if const is None else
                                {e: c * const for e, c in t.items()})
                elif const is not None:
                    for e, c in t.items():
                        tacc[e] = tacc.get(e, 0) + c * const
                else:
                    for e1, c1 in t.items():
                        for e2, c2 in ct.items():
                            e = e1 + e2
                            tacc[e] = tacc.get(e, 0) + c1 * c2
    return PolyMatrix.from_packed(n_out, n_in, den, acc)


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

# (T, T^-1): T's columns are the strand basis b = A1, v = A0 - (E1/2) A1
STRAND_BASIS = tuple(
    PolyMatrix(1, 1, {(A1, A1): 1, (A1, A0): c * E1, (A0, A0): 1})
    for c in (Fraction(-1, 2), Fraction(1, 2)))


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


# -- the sl2 action on morphisms ---------------------------------------------

ZERO_TWIST = TwistData(Fraction(0))


def _strand_operator(g: str, params: DtlParams) -> PolyMatrix:
    """How g acts on one strand V_1, the A-linear part of LASAGNA_RING:
    column A1 or A0 holds LASAGNA_SPEC's image of that letter, its terms'
    E1 and E2 exponents read by name; plus -(a1/2) dot - (a2/2) E1 for f
    and (a1 + 2 a2)/2 for h."""
    ix, den = LASAGNA_RING.index, LASAGNA_SPEC.den[g]
    entries: dict = {}
    for bit, name in ((A1, "A1"), (A0, "A0")):
        letter = tuple(int(n == name) for n in LASAGNA_RING.names)
        for exp, c in LASAGNA_SPEC.derive_monomial(g, letter, 1, {}).items():
            terms = entries.setdefault((A0 if exp[ix["A0"]] else A1, bit), {})
            terms[exp[ix["E1"]], exp[ix["E2"]]] = Fraction(c, den)
    m = PolyMatrix(1, 1, {k: GradedPoly(E_RING, t)
                          for k, t in entries.items()})
    a1, a2 = params.a1, params.a2
    one = PRIM_MATRICES["id"]
    if g == "f":
        m = m - PRIM_MATRICES["dot"].scale(a1 / 2) + one.scale(-a2 / 2 * E1)
    elif g == "h":
        m = m + one.scale((a1 + 2 * a2) / 2)
    return m


@lru_cache(maxsize=256)
def _object_operator(g: str, n: int, params: DtlParams, a: Fraction):
    """G_n in _packed form: the strand operator on each of the n strands
    plus the object's twist term TwistData(a).tau(g).

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
    diag = pack(tau, den)[1]
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


@lru_cache(maxsize=64)
def _strand_level(g: str, params: DtlParams):
    """(l_b, l_v): L_1(g) = T^-1 (G_1 T + d_g T), G_1 being _strand_operator
    and T the strand basis, read once per (g, params) on 2 x 2 matrices
    as T^-1 (g*T) + G_1 (g*T = G_1 T - T G_1 + d_g T, commutator_star),
    and checked exactly to be diag(l_b, l_v).  At a1 != 0, L_1(f) is not,
    as f's dot term sends b to v + (E1/2) b, and f on cores is refused."""
    t, ti = STRAND_BASIS
    level = ti * commutator_star(g, t, params=params) \
        + _strand_operator(g, params)
    l_b, l_v = level[A1, A1], level[A0, A0]
    if level != PolyMatrix(1, 1, {(A1, A1): l_b, (A0, A0): l_v}):
        raise ValueError("the star action on cores needs a1 = 0: "
                         f"L_1({g}) is not diagonal on b, v")
    return l_b, l_v


@lru_cache(maxsize=256)
def _core_operator(g: str, n: int, params: DtlParams, a: Fraction):
    """G on the core side -1 - n, in _packed form: L_n(g) = diag_k((n - k)
    l_b + k l_v), how G_n acts on p_n's image in the basis B_n of
    projectors, plus the twist term TwistData(a).tau(g), with l_b and l_v
    from _strand_level.

    For every n: G_n is the sum of the strand operators and d_g is a
    derivation, so G_n T^(x)n + d_g T^(x)n = T^(x)n D with D diagonal on
    words, l_b per b-letter and l_v per v-letter.  Column k of B_n =
    T^(x)n U sums words with k v-letters, so G_n B_n + d_g B_n = B_n
    L_n(g): p_n's image is g-stable.  As T is invertible, G_1 T + d_g T =
    T L_1(g) also reads T^-1 G_1 - d_g T^-1 = L_1(g) T^-1, so B_n^+ G_n -
    d_g B_n^+ = L_n(g) B_n^+: p_n's kernel is g-stable.  The twist term is
    a scalar on every side.
    """
    l_b, l_v = _strand_level(g, params)
    tau, side = TwistData(a).tau(g), core_side(n)
    return PolyMatrix(side, side, {(k, k): l_b * (n - k) + l_v * k + tau
                                   for k in range(n + 1)})._packed()


def _side_operator(g: str, side: int, params: DtlParams, a: Fraction):
    """G on one side of a matrix, in _packed form: n strands or a core."""
    if side >= 0:
        return _object_operator(g, side, params, a)
    return _core_operator(g, core_side(side), params, a)


def commutator_star(
    g: str,
    F: PolyMatrix,
    source_twist: TwistData = ZERO_TWIST,
    target_twist: TwistData = ZERO_TWIST,
    params: DtlParams = DtlParams(),
) -> PolyMatrix:
    """The sl2 action on morphisms: g*F = G_out F - F G_in + d_g(F).

    d_g is the base derivation on F's entries.  G_n acts on V_n strand by
    strand (_strand_operator: the letters' images and the parameter terms)
    and adds the object's twist term TwistData.tau.  The word action
    and the twisted star action are both this map: for every parameter
    pair, act(g, x, params).evaluate() equals
    commutator_star(g, x.evaluate(), params=params).

    On a core C of F = p_m F p_n the same formula gives the core of g*F:
    on the core side of level n, G is _core_operator, L_n, how G_n acts
    on p_n's image in the basis B_n; p_n's image and kernel are g-stable,
    so g*F = B_m (L_m C - C L_n + d_g C) B_n^+.  f on cores needs a1 = 0.

    One pass over the columns of F: G_out F and -F G_in are each one
    _product_column, the product kernel of PolyMatrix.__mul__, and d_g
    acts on packed exponents by sl2.derive_packed in between.
    """
    if g not in GENERATORS:
        raise ValueError(g)
    den_f, fcols = F._packed()
    den_o, gout = _side_operator(g, F.n_out, params,
                                 Fraction(target_twist.a))
    den_i, gin = _side_operator(g, F.n_in, params, Fraction(source_twist.a))
    den = lcm(den_o, den_i)
    mo, mi = den // den_o, den // den_i  # bring both G_n over den
    content = full = den * den_f
    table = {}
    for j in range(side_size(F.n_in)):
        acc: dict = {}
        fcol = fcols.get(j, {})
        _product_column(acc, gout, fcol, mo)
        for k, ft in fcol.items():  # d_g(F), over the full denominator
            derive_packed(g, ft, den, acc.setdefault(k, {}))
        _product_column(acc, fcols, gin.get(j, {}), -mi)
        col, content = strip(acc, full, content)
        if col:
            table[j] = col
    return _canonical(F.n_out, F.n_in, full, table, content)
