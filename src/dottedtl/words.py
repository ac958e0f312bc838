"""Formal diagram words in the dotted planar calculus.

A word is a stack of slices, each slice a horizontal tensor of primitives
(id, dot, cup, cap), composed bottom to top.  Formal linear combinations
with polynomial coefficients carry the parameterized sl2 action by the
Leibniz rule, read off one packed-integer table of primitive images per
(generator, parameters), the coefficients differentiated in ring's packed
format; equality testing happens in the state-space matrices.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import lcm

from .ring import E_RING, pack, packed_add, packed_mul, unpack
from .sl2 import BASE_SPEC, GENERATORS, DtlParams, derive_packed
from .statespace import (PRIM_ARITY, PRIM_MATRICES, PolyMatrix,
                         linear_combination)

E1 = E_RING.gen("E1")
E2 = E_RING.gen("E2")


class WordError(Exception):
    pass


class Word:
    """An immutable stack of slices with validated strand counts."""

    __slots__ = ("slices", "counts", "_hash")

    def __init__(self, slices):
        slices = tuple(tuple(s) for s in slices)
        if not slices:
            raise WordError("a word needs at least one slice (use identity_word)")
        self.slices = slices
        self.counts = _strand_counts(slices)
        self._hash = hash(slices)

    @classmethod
    def _spliced(cls, slices: tuple, counts: tuple) -> "Word":
        """A word from slices whose strand counts the caller has checked."""
        w = object.__new__(cls)
        w.slices = slices
        w.counts = counts
        w._hash = hash(slices)
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
    """Formal linear combination of words with GradedPoly coefficients."""

    __slots__ = ("terms", "n_in", "n_out")

    def __init__(self, terms=None, n_in=None, n_out=None):
        self.terms: dict = {}
        self.n_in = n_in
        self.n_out = n_out
        if terms:
            for w, c in terms.items():
                self._add(w, c)

    @classmethod
    def of(cls, word: Word, coeff=1) -> "Combo":
        return cls({word: E_RING.coerce(coeff)}, word.n_in, word.n_out)

    @classmethod
    def zero(cls, n_in, n_out) -> "Combo":
        return cls(None, n_in, n_out)

    def _add(self, w: Word, c):
        c = E_RING.coerce(c)
        if self.n_in is None:
            self.n_in, self.n_out = w.n_in, w.n_out
        elif (w.n_in, w.n_out) != (self.n_in, self.n_out):
            raise WordError("adding words of different shapes")
        s = self.terms.get(w)
        s = c if s is None else s + c
        if s.is_zero():
            self.terms.pop(w, None)
        else:
            self.terms[w] = s

    @classmethod
    def _of_terms(cls, terms: dict, n_in, n_out) -> "Combo":
        """A combination owning terms, a dict of nonzero GradedPoly
        coefficients on words of shape (n_in, n_out)."""
        out = cls(None, n_in, n_out)
        out.terms = terms
        return out

    def __add__(self, other: "Combo") -> "Combo":
        if other.n_in is not None and self.n_in is not None and \
                (other.n_in, other.n_out) != (self.n_in, self.n_out):
            raise WordError("shape mismatch")
        out = Combo._of_terms(dict(self.terms), self.n_in, self.n_out)
        for w, c in other.terms.items():
            out._add(w, c)
        if out.n_in is None:
            out.n_in, out.n_out = other.n_in, other.n_out
        return out

    def __neg__(self):
        return Combo._of_terms({w: -c for w, c in self.terms.items()},
                               self.n_in, self.n_out)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Combo":
        c = E_RING.coerce(c)
        if c.is_zero():
            return Combo.zero(self.n_in, self.n_out)
        # Q[E1, E2] has no zero divisors, so no product vanishes
        return Combo._of_terms({w: v * c for w, v in self.terms.items()},
                               self.n_in, self.n_out)

    def then(self, other: "Combo") -> "Combo":
        """Stack: self applied first, then other."""
        if self.n_out != other.n_in:
            raise WordError(
                f"cannot stack: {self.n_out} output strands vs {other.n_in} inputs"
            )
        out = Combo.zero(self.n_in, other.n_out)
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out._add(Word._spliced(w1.slices + w2.slices,
                                       w1.counts + w2.counts[1:]), c1 * c2)
        return out

    def tensor(self, other: "Combo") -> "Combo":
        out = Combo.zero(self.n_in + other.n_in, self.n_out + other.n_out)
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out._add(_tensor_words(w1, w2), c1 * c2)
        return out

    def evaluate(self) -> PolyMatrix:
        """The state-space matrix, sum of coeff * evaluate_word(w), by
        statespace.linear_combination."""
        return linear_combination(
            self.n_out, self.n_in,
            [(c, evaluate_word(w)) for w, c in self.terms.items()])

    def is_empty(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*[{w!r}]" for w, c in self.terms.items())


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
    a1, a2 = p.a1, p.a2
    if prim == "id":
        return []
    if prim == "dot":
        if g == "e":
            return [(E_RING.const(-1), (("id",),))]
        if g == "f":
            return [(E_RING.one, (("dot",), ("dot",)))]
        return [(E_RING.const(-2), (("dot",),))]
    if prim == "cup":
        if g == "e":
            return []
        if g == "f":
            out = []
            if a1:
                out.append((E_RING.const(-a1), (("cup",), ("dot", "id"))))
            if a2:
                out.append((-a2 * E1, (("cup",),)))
            return out
        c = a1 + 2 * a2
        return [(E_RING.const(c), (("cup",),))] if c else []
    if prim == "cap":
        if g == "e":
            return []
        if g == "f":
            out = []
            if a1:
                out.append((E_RING.const(a1), (("dot", "id"), ("cap",))))
            if a2:
                out.append((a2 * E1, (("cap",),)))
            return out
        c = -a1 - 2 * a2
        return [(E_RING.const(c), (("cap",),))] if c else []
    raise WordError(prim)


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
    table = {"id": []}
    for p, rows in images.items():
        table[p] = []
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
    (sl2.derive_packed), on packed int numerators over one denominator.  Each
    primitive type's _image_table rows are multiplied by a word's coefficient
    once; an image that is the primitive itself adds onto the word, the others
    are spliced in.  Each output GradedPoly is built once, at the end."""
    if g not in GENERATORS:
        raise WordError(f"unknown sl2 generator {g!r}")
    if isinstance(x, Word):
        x = Combo.of(x)
    den, table = _image_table(g, params, _prim_images)
    dscale = den // BASE_SPEC.den[g]
    xden = lcm(*(c.denominator for coeff in x.terms.values()
                 for c in coeff.terms.values()))
    acc: dict = {}
    for w, coeff in x.terms.items():
        num = pack(coeff, xden)[1]
        if not coeff.is_constant():  # d_g of a constant is zero
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
    terms = {w: unpack(poly, den * xden)
             for w, poly in acc.items() if any(poly.values())}
    return Combo._of_terms(terms, x.n_in, x.n_out)


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
    out = combo
    if left:
        out = Combo.of(identity_word(left)).tensor(out)
    if right:
        out = out.tensor(Combo.of(identity_word(right)))
    return out


# -- defining relations -----------------------------------------------------

def relation_instances(n_max: int = 4):
    """The three defining relations, instantiated at every position inside
    ambient identity contexts with at most n_max strands.  Yields
    (name, lhs, rhs) combos."""
    # relation 1 lives on 0 strands: cup then cap closes a circle
    r1_l = Combo.of(Word((("cup",), ("cap",))))
    r1_r = Combo.of(identity_word(0)).scale(2)
    yield ("circle=2", r1_l, r1_r)
    # relation 2: dot^2 = E1*dot - E2*id, on one strand
    dd = Combo.of(Word((("dot",), ("dot",))))
    r2_r = primitive_combo("dot").scale(E1) - Combo.of(identity_word(1)).scale(E2)
    for left in range(n_max):
        for right in range(n_max - left):
            yield (f"dot2[{left}+1+{right}]", ambient(dd, left, right),
                   ambient(r2_r, left, right))
    # relation 3 on two adjacent strands
    two = Combo.of(identity_word(2))
    dots = primitive_combo("dot", 0, 2) + primitive_combo("dot", 1, 2)
    cupcap = cupcap_combo(0, 2)
    capdot = Combo.of(Word((("dot", "id"), ("cap",), ("cup",))))
    cupdot = Combo.of(Word((("cap",), ("cup",), ("dot", "id"))))
    r3_r = two.scale(E1) - cupcap.scale(E1) + capdot + cupdot
    for left in range(n_max - 1):
        for right in range(n_max - 1 - left):
            yield (f"dotslide[{left}+2+{right}]", ambient(dots, left, right),
                   ambient(r3_r, left, right))


# the widest ambient context verify_relations evaluates in: its state
# spaces have 2^n_max states
RELATION_WIDTH_BOUND = 10


def verify_relations(params: DtlParams, n_max: int = 4) -> dict:
    """Check each defining relation and its e/f/h images in the matrix model."""
    if n_max < 0:
        raise WordError(f"ambient width must be non-negative, got {n_max}")
    if n_max > RELATION_WIDTH_BOUND:
        raise WordError(f"ambient width must be at most "
                        f"{RELATION_WIDTH_BOUND}, got {n_max}")
    results = []
    ok = True
    for name, lhs, rhs in relation_instances(n_max):
        diff = lhs - rhs
        row = {"relation": name, "generator": None,
               "status": "pass" if diff.evaluate().is_zero() else "fail"}
        results.append(row)
        ok = ok and row["status"] == "pass"
        for g in GENERATORS:
            gdiff = act(g, diff, params)
            status = "pass" if gdiff.evaluate().is_zero() else "fail"
            results.append({"relation": name, "generator": g, "status": status})
            ok = ok and status == "pass"
    return {"params": [str(params.a1), str(params.a2)], "ok": ok,
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
        out = []
        first = points[0]
        for k in range(1, len(points), 2):
            inner = points[1:k]
            outer = points[k + 1:]
            for mi in rec(inner):
                for mo in rec(outer):
                    out.append([tuple(sorted((first, points[k])))] + mi + mo)
        return out

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

    dots: number of dots per arc, aligned with the matching tuple.  A dot
    on a cap or cup arc sits at its first listed point.

    Each arc gets one table of (input bits, output bits, value), built once
    per call from the packed int tables of cup, cap and dot^d: a cap arc a
    value for each input bit pair, a cup arc its output bit pairs, a through
    arc its output bits for each input bit.  Arcs cover disjoint boundary
    points, so the matrix entries are the products of one value per arc,
    multiplied as packed int polynomials and normalised once by
    PolyMatrix.from_packed.
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
    out = []
    for m in noncrossing_matchings(n_bot, n_top):
        for dots in itertools.product((0, 1), repeat=len(m)):
            out.append((m, dots))
    return out


def _peel_arcs(arcs: dict, width: int) -> list:
    """(k, width, dots) for each arc (i, j): dots of arcs, innermost first:
    the arc joins points k and k + 1 of the width points still left, which
    peeling it removes (an innermost arc's endpoints are adjacent)."""
    cur = list(range(width))
    pending = dict(arcs)
    out = []
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
    bottom: dict = {}
    top: dict = {}
    through = []
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
    n = rng.randint(0, max_strands)
    slices = []
    cur = n
    for _ in range(rng.randint(1, max_slices)):
        sl = []
        remaining = cur
        produced = 0
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
