"""Formal diagram words in the dotted planar calculus.

A word is a stack of slices, each slice a horizontal tensor of primitives
(id, dot, cup, cap), composed bottom to top.  A Combo, a formal linear
combination of words, stores ring's packed numerators over one den; its
arithmetic and the sl2 action (the Leibniz rule on one packed table of
primitive images per (generator, parameters)) compute on them, and a
GradedPoly is built only where coefficients come in or terms is read.
Evaluations are compared in the state-space matrices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import lcm

from .ring import (E1, E2, E_RING, check_exponents, divide_content, pack,
                   pack_coefficient, pack_terms, packed_add, packed_mul,
                   packed_str, unpack)
from .sl2 import BASE_SPEC, GENERATORS, DtlParams, derive_packed
from .statespace import (PRIM_ARITY, PRIM_MATRICES, PolyMatrix,
                         linear_combination)


class WordError(Exception):
    pass


class Word:
    """An immutable stack of slices with validated strand counts."""

    __slots__ = ("slices", "counts", "_hash")

    def __init__(self, slices):
        slices = tuple(tuple(s) for s in slices)
        if not slices:
            raise WordError("a word needs at least one slice (use identity_word)")
        self.slices, self.counts = slices, _strand_counts(slices)
        self._hash = hash(slices)

    @classmethod
    def _spliced(cls, slices: tuple, counts: tuple) -> "Word":
        """A word from slices whose strand counts the caller has checked."""
        w = object.__new__(cls)
        w.slices, w.counts, w._hash = slices, counts, hash(slices)
        return w

    @property
    def n_in(self):
        return self.counts[0]

    @property
    def n_out(self):
        return self.counts[-1]

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Word) and self.slices == other.slices

    def __repr__(self):
        return " ; ".join("|".join(s) if s else "()" for s in self.slices)


def _strand_counts(slices: tuple) -> tuple:
    """The strand counts below the first slice and above each slice;
    raises WordError on an unknown primitive or a strand mismatch."""
    counts, cur = [], None
    for k, sl in enumerate(slices):
        for p in sl:
            if p not in PRIM_ARITY:
                raise WordError(f"unknown primitive {p!r}")
        n_in = sum(PRIM_ARITY[p][0] for p in sl)
        if cur is None:
            counts.append(n_in)
        elif n_in != cur:
            raise WordError(f"strand mismatch at slice {k}: {n_in} != {cur}")
        cur = sum(PRIM_ARITY[p][1] for p in sl)
        counts.append(cur)
    return tuple(counts)


def identity_word(n: int) -> Word:
    return Word((("id",) * n,))


class Combo:
    """Formal linear combination of words over Q[E1, E2], stored as a
    PolyMatrix is: den and a canonical table {word: packed numerators}, so
    == is structural.  Entries are never changed, so tables share them.
    terms is the mutable {word: GradedPoly} view, as PolyMatrix.cols is.
    Combo(terms), Combo.of and _add take GradedPolys or rationals."""

    __slots__ = ("n_in", "n_out", "_den", "_table", "_terms")

    def __init__(self, terms=None, n_in=None, n_out=None):
        self.n_in, self.n_out = n_in, n_out
        self._den, self._table, self._terms = 1, {}, None
        for w, c in (terms or {}).items():
            self._add(w, c)

    @classmethod
    def of(cls, word: Word, coeff=1) -> "Combo":
        den, t = pack_coefficient(coeff)
        return cls._of_packed(word.n_in, word.n_out, den, {word: t})

    @classmethod
    def zero(cls, n_in, n_out) -> "Combo":
        return cls(None, n_in, n_out)

    @classmethod
    def _of_packed(cls, n_in, n_out, den: int, acc: dict) -> "Combo":
        """The combination of acc, {word: packed numerators over den}, made
        canonical; an exponent past the packed format raises RingError.
        acc's dicts may become the table: the caller leaves them be."""
        table = {}
        for w, t in acc.items():
            if 0 in t.values():
                t = {e: c for e, c in t.items() if c}
            if t:
                table[w] = t
        check_exponents(den, table.values())
        out = cls(None, n_in, n_out)
        out._den, out._table = divide_content(den, table)
        return out

    def _packed(self):
        """(den, table): the stored table, or the terms dict packed afresh."""
        if self._terms is None:
            return self._den, self._table
        return pack_terms(self._terms)

    @property
    def terms(self) -> dict:
        if self._terms is None:
            self._terms = {w: unpack(t, self._den)
                           for w, t in self._table.items()}
        return self._terms

    def _add(self, w: Word, c):
        """Add c, a GradedPoly or a rational, to the coefficient of w."""
        out = self + Combo.of(w, c)
        self.n_in, self.n_out = out.n_in, out.n_out
        self._den, self._table, self._terms = out._den, out._table, None

    def _sum(self, other: "Combo", sign: int) -> "Combo":
        """self + sign * other, sign being 1 or -1."""
        if None not in (self.n_in, other.n_in) and \
                (other.n_in, other.n_out) != (self.n_in, self.n_out):
            raise WordError("shape mismatch")
        (da, ta), (db, tb) = self._packed(), other._packed()
        den = lcm(da, db)
        acc = {w: _times(t, den // da) for w, t in ta.items()}
        for w, t in tb.items():
            t = _times(t, sign * (den // db))
            acc[w] = packed_add(dict(acc[w]), t) if w in acc else t
        shape = other if self.n_in is None else self
        return Combo._of_packed(shape.n_in, shape.n_out, den, acc)

    def __add__(self, other: "Combo") -> "Combo":
        return self._sum(other, 1)

    def __sub__(self, other: "Combo") -> "Combo":
        return self._sum(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Combo":
        """c times the combination, for c a GradedPoly or a rational."""
        (dc, ct), (den, table) = pack_coefficient(c), self._packed()
        return Combo._of_packed(self.n_in, self.n_out, den * dc, {
            w: packed_mul(t, ct) for w, t in table.items()})

    def _product(self, other: "Combo", join, n_in, n_out) -> "Combo":
        """The kernel of then and tensor: the sum over term pairs of
        join(w1, w2) times the product of their coefficients."""
        (da, ta), (db, tb) = self._packed(), other._packed()
        acc: dict = {}
        for w1, t1 in ta.items():
            for w2, t2 in tb.items():
                w, p = join(w1, w2), packed_mul(t1, t2)
                acc[w] = packed_add(acc[w], p) if w in acc else p
        return Combo._of_packed(n_in, n_out, da * db, acc)

    def then(self, other: "Combo") -> "Combo":
        """Stack: self applied first, then other."""
        if self.n_out != other.n_in:
            raise WordError(
                f"cannot stack: {self.n_out} output strands vs {other.n_in} inputs"
            )
        return self._product(other, lambda w1, w2: Word._spliced(
            w1.slices + w2.slices, w1.counts + w2.counts[1:]),
            self.n_in, other.n_out)

    def tensor(self, other: "Combo") -> "Combo":
        return self._product(other, _tensor_words, self.n_in + other.n_in,
                             self.n_out + other.n_out)

    def evaluate(self) -> PolyMatrix:
        """The state-space matrix, sum of coeff * evaluate_word(w), by
        statespace.linear_combination on the packed coefficients."""
        den, table = self._packed()
        return linear_combination(self.n_out, self.n_in, [
            ((den, t), evaluate_word(w)) for w, t in table.items()])

    def __eq__(self, other):
        return isinstance(other, Combo) and (self.n_in, self.n_out) == (
            other.n_in, other.n_out) and self._packed() == other._packed()

    def is_empty(self) -> bool:
        return not self._packed()[1]

    def __repr__(self):
        den, table = self._packed()
        return " + ".join(f"({packed_str(t, den)})*[{w!r}]"
                          for w, t in table.items()) or "0"


def _times(t: dict, m: int) -> dict:
    """The packed numerators t times the int m; t itself when m is 1."""
    return t if m == 1 else {e: c * m for e, c in t.items()}


def _tensor_words(w1: Word, w2: Word) -> Word:
    h = max(len(w1.slices), len(w2.slices))
    s1 = list(w1.slices) + [("id",) * w1.n_out] * (h - len(w1.slices))
    s2 = list(w2.slices) + [("id",) * w2.n_out] * (h - len(w2.slices))
    return Word(tuple(a + b for a, b in zip(s1, s2)))


# -- evaluation -------------------------------------------------------------

_slice_cache: dict = {}
_word_cache: dict = {}


def _slice_matrix(sl: tuple) -> PolyMatrix:
    m = _slice_cache.get(sl)
    if m is None:
        m = PolyMatrix.identity(0)
        for p in sl:
            m = m.tensor(PRIM_MATRICES[p])
        _slice_cache[sl] = m
    return m


def evaluate_word(w: Word) -> PolyMatrix:
    m = _word_cache.get(w)
    if m is None:
        m = PolyMatrix.identity(w.n_in)
        for sl in w.slices:
            m = _slice_matrix(sl) * m
        _word_cache[w] = m
    return m


# -- the parameterized sl2 action -------------------------------------------

def _prim_images(g: str, prim: str, p: DtlParams):
    """Image of one primitive as [(coefficient, local slices)], empty if zero."""
    a1, a2, c = p.a1, p.a2, p.a1 + 2 * p.a2
    images = {("e", "dot"): [(-1, (("id",),))],
              ("f", "dot"): [(1, (("dot",), ("dot",)))],
              ("h", "dot"): [(-2, (("dot",),))],
              ("f", "cup"): [(-a1, (("cup",), ("dot", "id"))),
                             (-a2 * E1, (("cup",),))],
              ("h", "cup"): [(c, (("cup",),))],
              ("f", "cap"): [(a1, (("dot", "id"), ("cap",))),
                             (a2 * E1, (("cap",),))],
              ("h", "cap"): [(-c, (("cap",),))]}
    return [(E_RING.coerce(k), local)
            for k, local in images.get((g, prim), []) if k]


def _splice(w: Word, si: int, pi: int, local: tuple, counts: tuple) -> Word:
    """w with primitive pi of slice si replaced by the local slices, padded
    with identities; counts are their strand counts, checked once by
    _image_table."""
    sl = w.slices[si]
    before, after = sl[:pi], sl[pi + 1:]
    ob = sum(PRIM_ARITY[p][1] for p in before)
    oa = w.counts[si + 1] - ob - counts[-1]
    new = (before + local[0] + after,) + tuple(
        ("id",) * ob + ls + ("id",) * oa for ls in local[1:])
    counts = tuple(ob + oa + c for c in counts[1:])
    return Word._spliced(w.slices[:si] + new + w.slices[si + 1:],
                         w.counts[:si + 1] + counts + w.counts[si + 2:])


@lru_cache(maxsize=128)
def _image_table(g: str, params: DtlParams, rule) -> tuple:
    """(den, {prim: [(packed numerators over den, local slices or None for
    the primitive itself, strand counts)]}) of rule's images; id has none.
    den is a multiple of BASE_SPEC.den[g]."""
    images = {p: rule(g, p, params) for p in ("dot", "cup", "cap")}
    den = lcm(BASE_SPEC.den[g], *(c.denominator for rows in images.values()
                                  for poly, _ in rows
                                  for c in poly.terms.values()))
    table = {p: [] for p in PRIM_ARITY}
    for p, rows in images.items():
        for poly, local in rows:
            counts = _strand_counts(local)
            if (counts[0], counts[-1]) != PRIM_ARITY[p]:
                raise WordError(f"image of {p!r} maps {counts[0]} to "
                                f"{counts[-1]} strands")
            table[p].append((pack(poly, den)[1],
                             None if local == ((p,),) else local, counts))
    return den, table


def act(g: str, x, params: DtlParams = DtlParams()) -> Combo:
    """Apply e, f, or h to a word or combination by the full Leibniz rule: one
    term per primitive occurrence plus the base-coefficient derivative
    (sl2.derive_packed), on packed tables.  Each primitive type's
    _image_table rows are multiplied by a word's coefficient once; an image
    that is the primitive itself adds onto the word, the others are spliced
    in.  The accumulator becomes the result's table."""
    if g not in GENERATORS:
        raise WordError(f"unknown sl2 generator {g!r}")
    if isinstance(x, Word):
        x = Combo.of(x)
    den, table = _image_table(g, params, _prim_images)
    dscale = den // BASE_SPEC.den[g]
    xden, xtable = x._packed()
    acc: dict = {}
    for w, num in xtable.items():
        if len(num) > 1 or 0 not in num:  # d_g of a constant is zero
            derive_packed(g, num, dscale, acc.setdefault(w, {}))
        scaled: dict = {}
        for si, sl in enumerate(w.slices):
            for pi, prim in enumerate(sl):
                rows = scaled.get(prim)
                if rows is None:
                    rows = scaled[prim] = [(packed_mul(num, c), local, cs)
                                           for c, local, cs in table[prim]]
                for poly, local, cs in rows:
                    packed_add(acc.setdefault(
                        w if local is None else _splice(w, si, pi, local, cs),
                        {}), poly)
    return Combo._of_packed(x.n_in, x.n_out, den * xden, acc)


# -- handy combos -----------------------------------------------------------

def primitive_combo(prim: str, position: int = 0, n: int | None = None) -> Combo:
    """One primitive inside an ambient identity context."""
    a_in, _ = PRIM_ARITY[prim]
    if n is None:
        n = position + a_in
    sl = ("id",) * position + (prim,) + ("id",) * (n - position - a_in)
    return Combo.of(Word((sl,)))


def cupcap_combo(i: int = 0, n: int = 2) -> Combo:
    """The turnback e_i = cap then cup on strands i, i+1 (0-based)."""
    cap = primitive_combo("cap", i, n)
    cup = primitive_combo("cup", i, n - 2)
    return cap.then(cup)


def crossing_combo(i: int = 1, n: int = 2) -> Combo:
    """Symmetric-group image s_i = id - e_i (1-based i, as in s_1..s_{n-1})."""
    if not 1 <= i <= n - 1:
        raise WordError(f"s_{i} needs 1 <= i <= n-1")
    return Combo.of(identity_word(n)) - cupcap_combo(i - 1, n)


def zn_combo(n: int) -> Combo:
    """Alternating sum of single dots: sum_i (-1)^(i-1) dot_i."""
    if n < 0:
        raise WordError("n must be non-negative")
    return Combo({Word((("id",) * i + ("dot",) + ("id",) * (n - 1 - i),)):
                  (-1) ** i for i in range(n)}, n, n)


def ambient(combo: Combo, left: int, right: int) -> Combo:
    """id^left (x) combo (x) id^right."""
    if left:
        combo = Combo.of(identity_word(left)).tensor(combo)
    if right:
        combo = combo.tensor(Combo.of(identity_word(right)))
    return combo


# -- defining relations -----------------------------------------------------

def _relations(n_max: int):
    """Each defining relation at its own width, with the (name, left,
    right) of its instances inside ambient identity contexts of at most
    n_max strands: (lhs, rhs, instances)."""
    # relation 1 lives on 0 strands: cup then cap closes a circle
    yield (Combo.of(Word((("cup",), ("cap",)))),
           Combo.of(identity_word(0)).scale(2), [("circle=2", 0, 0)])
    # dot^2 = E1*dot - E2*id on one strand; the dot slide on two
    capdot = Combo.of(Word((("dot", "id"), ("cap",), ("cup",))))
    cupdot = Combo.of(Word((("cap",), ("cup",), ("dot", "id"))))
    for name, k, lhs, rhs in (
            ("dot2", 1, Combo.of(Word((("dot",), ("dot",)))),
             primitive_combo("dot").scale(E1)
             - Combo.of(identity_word(1)).scale(E2)),
            ("dotslide", 2,
             primitive_combo("dot", 0, 2) + primitive_combo("dot", 1, 2),
             Combo.of(identity_word(2)).scale(E1)
             - cupcap_combo(0, 2).scale(E1) + capdot + cupdot)):
        yield lhs, rhs, [(f"{name}[{left}+{k}+{right}]", left, right)
                         for left in range(n_max - k + 1)
                         for right in range(n_max - k + 1 - left)]


def relation_instances(n_max: int = 4):
    """The three defining relations at every position inside ambient
    identity contexts of at most n_max strands, as (name, lhs, rhs)."""
    for lhs, rhs, instances in _relations(n_max):
        for name, left, right in instances:
            yield (name, ambient(lhs, left, right), ambient(rhs, left, right))


# the widest ambient context verify_relations pads a relation to, a report
# bound: padded instances are compared as combinations, not matrices
RELATION_WIDTH_BOUND = 10


def verify_relations(params: DtlParams, n_max: int = 4) -> dict:
    """Check each defining relation and its e/f/h images in the matrix model:
    each relation X and its images are evaluated once, on its own 0, 1 or 2
    strands.  Evaluation is monoidal, so an instance id^l (x) X (x) id^r
    holds if X does and its difference and, under each g, act(g, instance)
    equal ambient(X's difference, l, r) and ambient(act(g, X), l, r) as
    packed combinations."""
    if n_max < 0:
        raise WordError(f"ambient width must be non-negative, got {n_max}")
    if n_max > RELATION_WIDTH_BOUND:
        raise WordError(f"ambient width must be at most "
                        f"{RELATION_WIDTH_BOUND}, got {n_max}")
    results = []
    padded_instances = relation_instances(n_max)
    for lhs, rhs, instances in _relations(n_max):
        diff = lhs - rhs
        images = {None: diff, **{g: act(g, diff, params) for g in GENERATORS}}
        holds = {g: x.evaluate().is_zero() for g, x in images.items()}
        for _, left, right in instances:  # relation_instances' next ones
            name, padded_lhs, padded_rhs = next(padded_instances)
            padded = padded_lhs - padded_rhs
            for g, x in images.items():
                same = ambient(x, left, right) == (
                    act(g, padded, params) if g else padded)
                results.append({"relation": name, "generator": g,
                                "status": "pass" if holds[g] and same
                                else "fail"})
    return {"params": [str(params.a1), str(params.a2)],
            "ok": all(r["status"] == "pass" for r in results),
            "checks": results}


# -- crossingless matchings and the spanning set ----------------------------

def noncrossing_matchings(n_bot: int, n_top: int | None = None):
    """Planar (n_bot, n_top)-diagrams as matchings of boundary points.

    Points are ('b', i) for bottom and ('t', j) for top, both left to right.
    Returns each matching as a sorted tuple of sorted point pairs.
    """
    if n_top is None:
        n_top = n_bot
    if (n_bot + n_top) % 2:
        return []
    # circular order: bottom left-to-right, then top right-to-left
    seq = [("b", i) for i in range(n_bot)] + \
        [("t", n_top - 1 - j) for j in range(n_top)]

    def rec(points):
        if not points:
            return [[]]
        return [[tuple(sorted((points[0], points[k])))] + mi + mo
                for k in range(1, len(points), 2)
                for mi in rec(points[1:k]) for mo in rec(points[k + 1:])]

    return [tuple(sorted(m)) for m in rec(seq)]


def _dot_powers(d_max: int) -> list:
    """dot^0, ..., dot^d_max, each as (den, {in bit: {out bit: packed}})."""
    den_dot, dot = PRIM_MATRICES["dot"]._packed()
    powers = [(1, {0: {0: {0: 1}}, 1: {1: {0: 1}}})]
    for _ in range(d_max):
        den, prev = powers[-1]
        nxt = {}
        for b, col in prev.items():
            acc: dict = {}
            for y, p in col.items():
                for z, q in dot.get(y, {}).items():
                    packed_add(acc.setdefault(z, {}), packed_mul(p, q))
            nxt[b] = {z: p for z, p in acc.items() if p}
        powers.append((den * den_dot, nxt))
    return powers


def _check_matching(matching, dots, n_bot: int, n_top: int):
    if n_bot < 0 or n_top < 0:
        raise WordError(f"negative boundary width {n_bot} -> {n_top}")
    if len(dots) != len(matching):
        raise WordError(
            f"{len(dots)} dot counts for a matching of {len(matching)} arcs")
    if not all(isinstance(d, int) and d >= 0 for d in dots):
        raise WordError(f"dot counts must be non-negative integers: {dots}")
    points = [p for arc in matching for p in arc]
    boundary = {("b", i) for i in range(n_bot)} | \
        {("t", j) for j in range(n_top)}
    if not all(len(arc) == 2 for arc in matching) \
            or len(points) != len(boundary) or set(points) != boundary:
        raise WordError(
            f"matching does not pair up the {n_bot} -> {n_top} boundary points")
    # planar iff the arcs nest in the circular order of noncrossing_matchings
    # (bottom left to right, then top right to left)
    pos = {("b", i): i for i in range(n_bot)}
    pos.update({("t", j): n_bot + n_top - 1 - j for j in range(n_top)})
    partner = {}
    for p, q in matching:
        partner[pos[p]], partner[pos[q]] = pos[q], pos[p]
    open_arcs = []
    for x in range(n_bot + n_top):
        if partner[x] > x:
            open_arcs.append(x)
        elif open_arcs.pop() != partner[x]:
            raise WordError("matching is not planar")


def matching_matrix(matching, dots, n_bot: int,
                    n_top: int | None = None) -> PolyMatrix:
    """Evaluate a dotted crossingless matching directly by the state-space
    rules, independently of the word machinery (it reads PRIM_MATRICES only).
    dots: dots per arc, aligned with the matching; a dot on a cap or cup arc
    sits at its first listed point.

    Each arc gets one table of (input bits, output bits, packed value) from
    the packed tables of cup, cap and dot^d.  Arcs cover disjoint boundary
    points, so an entry is the product of one value per arc, normalised
    once by PolyMatrix.from_packed.
    """
    if n_top is None:
        n_top = n_bot
    _check_matching(matching, dots, n_bot, n_top)
    den_cup, cup = PRIM_MATRICES["cup"]._packed()
    den_cap, cap = PRIM_MATRICES["cap"]._packed()
    powers = _dot_powers(max(dots, default=0))

    def bit_in(b, i):
        return b << (n_bot - 1 - i)

    def bit_out(b, j):
        return b << (n_top - 1 - j)

    den = 1
    entries = [(0, 0, {0: 1})]  # (column bits, row bits, packed value)
    for arc, d in zip(matching, dots):
        (s1, i1), (s2, i2) = arc
        den_d, dm = powers[d]
        table: dict = {}
        if s1 == "b" and s2 == "b":
            # cap o (dot^d (x) id) on the two input letters
            den *= den_cap * den_d
            for b1, col in dm.items():
                for y, v in col.items():
                    for b2 in (0, 1):
                        w = cap.get(2 * y + b2, {}).get(0)
                        if w:
                            x = bit_in(b1, i1) | bit_in(b2, i2)
                            packed_add(table.setdefault((x, 0), {}),
                                       packed_mul(v, w))
        elif s1 == "t" and s2 == "t":
            # (dot^d (x) id) o cup on the two output letters
            den *= den_cup * den_d
            for y, v in cup.get(0, {}).items():
                b1, b2 = y >> 1, y & 1
                for z, w in dm[b1].items():
                    packed_add(table.setdefault(
                        (0, bit_out(z, i1) | bit_out(b2, i2)), {}),
                        packed_mul(v, w))
        else:
            bi, tj = (i1, i2) if s1 == "b" else (i2, i1)
            den *= den_d
            for b, col in dm.items():
                for y, v in col.items():
                    packed_add(table.setdefault(
                        (bit_in(b, bi), bit_out(y, tj)), {}), v)
        entries = [(x | xa, y | ya, packed_mul(p, v))
                   for (xa, ya), v in table.items() if v
                   for x, y, p in entries]
    cols: dict = {}
    for x, y, p in entries:
        cols.setdefault(x, {})[y] = p
    return PolyMatrix.from_packed(n_top, n_bot, den, cols)


def dotted_spanning_set(n_bot: int, n_top: int | None = None):
    """Crossingless matchings with at most one dot per arc: (matching, dots)."""
    return [(m, dots) for m in noncrossing_matchings(n_bot, n_top)
            for dots in itertools.product((0, 1), repeat=len(m))]


def _peel_arcs(arcs: dict, width: int) -> list:
    """(k, width, dots) for each arc (i, j): dots of arcs, innermost first:
    the arc joins points k and k + 1 of the width points still left, which
    peeling it removes (an innermost arc's endpoints are adjacent)."""
    cur, pending, out = list(range(width)), dict(arcs), []
    while pending:
        for k in range(len(cur) - 1):
            key = (cur[k], cur[k + 1])
            if key in pending:
                out.append((k, len(cur), pending.pop(key)))
                del cur[k:k + 2]
                break
    return out


def matching_to_word(matching, dots, n_bot: int,
                     n_top: int | None = None) -> Word:
    """A word (caps, then dots on through strands, then cups) evaluating to
    the given dotted crossingless matching.  The matching is validated as
    in matching_matrix, so a non-planar one raises WordError."""
    if n_top is None:
        n_top = n_bot
    _check_matching(matching, dots, n_bot, n_top)
    bottom, top, through = {}, {}, []
    for arc, d in zip(matching, dots):
        (s1, i1), (s2, i2) = arc
        if s1 == "b" and s2 == "b":
            bottom[(min(i1, i2), max(i1, i2))] = d
        elif s1 == "t" and s2 == "t":
            top[(min(i1, i2), max(i1, i2))] = d
        else:
            bi = i1 if s1 == "b" else i2
            tj = i2 if s2 == "t" else i1
            through.append((bi, tj, d))

    def dot_slice(k, width):
        return ("id",) * k + ("dot",) + ("id",) * (width - 1 - k)

    slices = []
    # caps, innermost first, each after its dots
    for k, width, d in _peel_arcs(bottom, n_bot):
        slices.extend([dot_slice(k, width)] * d)
        slices.append(("id",) * k + ("cap",) + ("id",) * (width - 2 - k))
    # dots on through strands (order preserved by planarity)
    through.sort()
    for k, (_, _, d) in enumerate(through):
        slices.extend([dot_slice(k, len(through))] * d)
    # cups: the top arcs peeled as caps of the flipped diagram, reversed
    for k, width, d in reversed(_peel_arcs(top, n_top)):
        slices.append(("id",) * k + ("cup",) + ("id",) * (width - 2 - k))
        slices.extend([dot_slice(k, width)] * d)
    if not slices:
        return identity_word(n_bot)
    return Word(slices)


# -- random words for property testing --------------------------------------

def random_word(rng, max_strands: int = 4, max_slices: int = 4) -> Word:
    """A random composable word with every intermediate count <= max_strands."""
    slices, cur = [], rng.randint(0, max_strands)
    for _ in range(rng.randint(1, max_slices)):
        sl, remaining, produced = [], cur, 0
        while remaining > 0 or (not sl and remaining == 0):
            choices = ["id", "dot"] if remaining else []
            if remaining >= 2:
                choices.append("cap")
            if produced + remaining + 2 <= max_strands:
                choices.append("cup")
            if not choices:
                break
            p = rng.choice(choices)
            sl.append(p)
            a_in, a_out = PRIM_ARITY[p]
            remaining -= a_in
            produced += a_out
        slices.append(tuple(sl))
        cur = produced
    return Word(slices)
