"""Text DSL for diagram expressions.

Grammar, loosest to tightest binding:

    expr   := ['-'] stack (('+' | '-') stack)*
    stack  := tens (';' tens)*           left operand applied first
    tens   := factor ('|' factor)*
    factor := unit (('*' | '/') unit)*   at most one diagram per chain
    unit   := INT | E1 | E2 | E1^INT | E2^INT
            | id | dot | cup | cap
            | jw(n) | z(n) | u(n) | d(n) | s(i,n)
            | '(' expr ')'

Scalars and diagrams mix freely under '*'; '/' needs a constant divisor.
A pure-scalar expression denotes that multiple of the empty diagram.
Parsed scalars are GradedPolys until they scale a combination; combos,
their printing and their rewriting read packed tables (words.Combo).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from . import exactla, projectors, statespace, words
from .ring import (E_RING, GradedPoly, pack_key, packed_add, packed_mul,
                   packed_str, unpack_key)
from .words import (
    Combo,
    Word,
    WordError,
    crossing_combo,
    identity_word,
    primitive_combo,
    zn_combo,
)

PRIMS = ("id", "dot", "cup", "cap")
MACROS = ("jw", "z", "u", "d", "s")

NORMALIZE_STRAND_BOUND = 10


def _macro_bound(name: str) -> int:
    """The largest argument of a macro.  jw(n), u(n) and d(n) are
    normalised on their 2n, 2n + 2 and 2n - 2 boundary strands, within
    NORMALIZE_STRAND_BOUND; z(n) and s(i, n) reach JW_TRACKED_BOUND."""
    extra = {"jw": 0, "u": 2, "d": -2}.get(name)
    if extra is None:
        return projectors.JW_TRACKED_BOUND
    return (NORMALIZE_STRAND_BOUND - extra) // 2


class ExprError(Exception):
    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^|;(),]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            rest = text[pos:].strip()
            if not rest:
                break
            raise ExprError(f"unexpected character {rest[0]!r}", pos)
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def _macro(name: str, args, pos):
    bound = _macro_bound(name)
    if name == "s":
        if len(args) != 2:
            raise ExprError("s takes two arguments: s(i, n)", pos)
        i, n = args
        if n > bound:
            raise ExprError(f"macro argument too large: s(..., {n}) > {bound}", pos)
        try:
            return crossing_combo(i, n)
        except WordError as exc:
            raise ExprError(str(exc), pos)
    if len(args) != 1:
        raise ExprError(f"{name} takes one argument", pos)
    (n,) = args
    if n < 0 or n > bound:
        raise ExprError(f"macro argument out of range: {name}({n})", pos)
    if name == "z":
        return zn_combo(n)
    if name == "d" and n < 2:
        raise ExprError("d(n) needs n >= 2", pos)
    try:
        if name == "jw":
            return _jw_combo(n)
        if name == "u":
            return combo_from_matrix(projectors.un(n).mat, n, n + 2)
        return combo_from_matrix(projectors.dn(n).mat, n, n - 2)
    except projectors.ProjectorError as exc:
        raise ExprError(str(exc), pos)


def _jw_combo(n: int) -> Combo:
    """The projector as a compact combination of matching words, recovered
    from its matrix rather than by the word-level recursion (whose term
    count explodes)."""
    return combo_from_matrix(projectors.jw(n), n, n)


class _Parser:
    """Recursive descent over the token list; values are (scalar, combo|None)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, sym):
        kind, val, pos = self.take()
        if kind != "sym" or val != sym:
            raise ExprError(f"expected {sym!r}, found {val!r}", pos)

    def parse(self):
        val = self.expr()
        kind, v, pos = self.peek()
        if kind is not None:
            raise ExprError(f"trailing input {v!r}", pos)
        return val

    def expr(self):
        kind, v, pos = self.peek()
        neg = False
        if kind == "sym" and v == "-":
            self.take()
            neg = True
        acc = self.stack()
        if neg:
            acc = _negate(acc)
        while True:
            kind, v, pos = self.peek()
            if kind == "sym" and v in "+-":
                self.take()
                rhs = self.stack()
                if v == "-":
                    rhs = _negate(rhs)
                acc = _add(acc, rhs, pos)
            else:
                return acc

    def stack(self):
        acc = self.tens()
        while True:
            kind, v, pos = self.peek()
            if kind == "sym" and v == ";":
                self.take()
                rhs = self.tens()
                a, b = _materialize(acc), _materialize(rhs)
                try:
                    acc = (E_RING.one, a.then(b))
                except WordError as exc:
                    raise ExprError(str(exc), pos)
            else:
                return acc

    def tens(self):
        acc = self.factor()
        while True:
            kind, v, pos = self.peek()
            if kind == "sym" and v == "|":
                self.take()
                rhs = self.factor()
                acc = (E_RING.one, _materialize(acc).tensor(_materialize(rhs)))
            else:
                return acc

    def factor(self):
        scalar, combo = self.unit()
        while True:
            kind, v, pos = self.peek()
            if kind == "sym" and v in "*/":
                self.take()
                s2, c2 = self.unit()
                if v == "/":
                    if c2 is not None or not s2.is_constant():
                        raise ExprError("divisor must be a constant scalar", pos)
                    cv = s2.constant_value()
                    if cv == 0:
                        raise ExprError("division by zero", pos)
                    scalar = scalar * (Fraction(1) / cv)
                else:
                    scalar = scalar * s2
                    if c2 is not None:
                        if combo is not None:
                            raise ExprError(
                                "cannot '*' two diagrams; use ';' or '|'", pos
                            )
                        combo = c2
            else:
                return (scalar, combo)

    def unit(self):
        kind, v, pos = self.take()
        if kind == "int":
            return (E_RING.const(Fraction(v)), None)
        if kind == "sym" and v == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "sym" and v == "-":
            return _negate(self.unit())
        if kind != "name":
            raise ExprError(f"unexpected token {v!r}", pos)
        if v in E_RING.names:
            k2, v2, _ = self.peek()
            if k2 == "sym" and v2 == "^":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "int":
                    raise ExprError("exponent must be an integer", p3)
                return (E_RING.gen(v, int(v3)), None)
            return (E_RING.gen(v), None)
        if v in PRIMS:
            return (E_RING.one, primitive_combo(v))
        if v in MACROS:
            self.expect("(")
            args = []
            while True:
                k2, v2, p2 = self.take()
                if k2 != "int":
                    raise ExprError("macro arguments must be integers", p2)
                args.append(int(v2))
                k3, v3, p3 = self.take()
                if k3 == "sym" and v3 == ")":
                    break
                if not (k3 == "sym" and v3 == ","):
                    raise ExprError("expected ',' or ')'", p3)
            return (E_RING.one, _macro(v, args, pos))
        raise ExprError(f"unknown name {v!r}", pos)


def _materialize(val) -> Combo:
    scalar, combo = val
    if combo is None:
        combo = Combo.of(identity_word(0))
    return combo.scale(scalar)


def _negate(val):
    scalar, combo = val
    return (-scalar, combo)


def _add(a, b, pos):
    if a[1] is None and b[1] is None:
        return (a[0] + b[0], None)
    ca, cb = _materialize(a), _materialize(b)
    try:
        return (E_RING.one, ca + cb)
    except WordError as exc:
        raise ExprError(str(exc), pos)


def parse_expr(text: str) -> Combo:
    return _materialize(_Parser(text).parse())


# -- printing ---------------------------------------------------------------

def print_word(w: Word) -> str:
    parts = ["|".join(sl) for sl in w.slices if sl]
    if not parts:
        return "1"
    return " ; ".join(parts)


def print_combo(combo: Combo) -> str:
    den, table = combo._packed()
    if not table:
        return "0"
    pieces = []
    for w in sorted(table, key=lambda w: (len(w.slices), repr(w))):
        ws = print_word(w)
        c = packed_str(table[w], den)
        if ws == "1":
            pieces.append(f"({c})")
        elif c == "1":
            pieces.append(f"({ws})")
        else:
            pieces.append(f"({c})*({ws})")
    return " + ".join(pieces)


def _check_normalize_bound(n_in: int, n_out: int) -> None:
    if n_in + n_out > NORMALIZE_STRAND_BOUND:
        raise ExprError(
            f"normalization bound exceeded: {n_in}+{n_out} boundary strands"
        )


@lru_cache(maxsize=64)
def _degree_system(n_in: int, n_out: int, deg: int):
    """The linear system of normalize_matrix at one structural degree, in
    integers: (unknowns, row_index, columns).

    Unknown j = (i, mu, den) is outer_dot_basis element i times the
    monomial mu = (e1, e2) of degree deg - 2 * (its dots), den the
    denominator of its matching_matrix table.  row_index numbers each
    (row, col, packed exponent) an unknown reaches; columns, an
    exactla.System, has columns[j] = {row number: int numerator over den}.
    It is built once per (n_in, n_out, deg), spanning rows included, and
    shared by every call; callers only read it.
    """
    unknowns = []
    row_index: dict = {}
    columns = []
    for i, (m, d) in enumerate(outer_dot_basis(n_in, n_out)):
        rem = deg - 2 * sum(d)
        if rem < 0 or rem % 2:
            continue
        den, table = words.matching_matrix(m, d, n_in, n_out)._packed()
        for b in range(rem // 4 + 1):
            mu = ((rem - 4 * b) // 2, b)
            shift = pack_key(*mu)
            unknowns.append((i, mu, den))
            columns.append({
                row_index.setdefault((r, c, e + shift), len(row_index)): v
                for c, tcol in table.items()
                for r, t in tcol.items() for e, v in t.items()})
    return unknowns, row_index, exactla.System(columns)


def normalize_matrix(mat, n_in: int, n_out: int):
    """The normal form of a state-space matrix over the outer-dot basis,
    with polynomial coefficients: rewrite_combo's result for any
    combination that evaluates to mat.

    Returns [(coefficient, matching, dots)] in outer_dot_basis order.  The
    target is split by structural degree straight from its packed table,
    and each degree is one exactla.solve against the cached _degree_system
    of (n_in, n_out, degree), whose columns are independent, so the
    solution is unique.  A target off the span raises ExprError.
    """
    _check_normalize_bound(n_in, n_out)
    den, table = mat._packed()
    targets: dict = {}
    for c, tcol in table.items():
        qc = statespace.basis_qdegree(c, n_in)
        for r, t in tcol.items():
            q = statespace.basis_qdegree(r, n_out) - qc
            for e, v in t.items():
                a, b = unpack_key(e)
                targets.setdefault(q + 2 * a + 4 * b, {})[(r, c, e)] = v

    coeffs: dict = {}
    for deg, target in sorted(targets.items()):
        unknowns, row_index, columns = _degree_system(n_in, n_out, deg)
        # a key that no unknown reaches is its own label, on no column
        y = exactla.solve(columns, {row_index.get(key, key): v
                                    for key, v in target.items()})
        if y is None:
            raise ExprError("evaluation is outside the diagram span")
        # unknown j's matrix is columns[j] / den_j and the target is over
        # den, so its coefficient is y[j] * den_j / den
        for j, v in y.items():
            i, mu, den_j = unknowns[j]
            coeffs.setdefault(i, {})[mu] = v * den_j / den
    span = outer_dot_basis(n_in, n_out)
    return [(GradedPoly(E_RING, terms), *span[i])
            for i, terms in sorted(coeffs.items())]


def combo_from_matrix(mat, n_in: int, n_out: int) -> Combo:
    """A combination of matching words with the given evaluation."""
    out = Combo(n_in=n_in, n_out=n_out)
    for poly, m, d in normalize_matrix(mat, n_in, n_out):
        out._add(words.matching_to_word(m, d, n_in, n_out), poly)
    return out


def normalize_combo(combo: Combo) -> Combo:
    """The combination rewritten into the outer-dot basis (rewrite_combo),
    as a combination of matching words, built from the packed coefficients."""
    n_in, n_out = combo.n_in, combo.n_out
    if n_in is None:
        raise ExprError("cannot normalize an empty combination of no shape")
    _check_normalize_bound(n_in, n_out)
    den, terms = rewrite_combo(combo)
    return Combo._of_packed(n_in, n_out, den, {
        words.matching_to_word(m, d, n_in, n_out): t for t, m, d in terms})


# -- normal forms by rewriting ------------------------------------------------
#
# A dotted matching on N boundary points is a sorted tuple of arcs (x, y, d):
# x < y positions in noncrossing_matchings' circular order (bottom left to
# right, then top right to left), d in {0, 1} dots.  Only this order enters
# the rewriting, so its tables are shared by every shape of N points.

_ONE, _E1, _E2 = pack_key(0, 0), pack_key(1, 0), pack_key(0, 1)
# the rewriter's constants, packed
_CIRCLE = ({_ONE: 2}, {_E1: 1})      # the circle and the dotted circle
_DOT_SQUARE = ({_E1: 1}, {_E2: -1})  # dot^2 = E1*dot - E2
# The dot slide, for arc A = (a1, a2) directly inside B = (b1, b2):
#   x_A M = E1 M - x_B M - E1 M' + x_(b1,a1) M' + x_(a2,b2) M',
# M' being M with A and B replaced by (b1, a1) and (a2, b2), B's dots on
# (b1, a1).  Rows: (coefficient, in M', the point whose arc gets a dot).
_SLIDE = (({_E1: 1}, False, None), ({_ONE: -1}, False, "b1"),
          ({_E1: -1}, True, None), ({_ONE: 1}, True, "b1"),
          ({_ONE: 1}, True, "a2"))


def _dot_power(k: int) -> tuple:
    """(a, b), packed, with dot^k = a*dot + b."""
    a, b = {}, {_ONE: 1}
    for _ in range(k):
        a, b = packed_add(packed_mul(a, _DOT_SQUARE[0]), b), \
            packed_mul(a, _DOT_SQUARE[1])
    return a, b


def _add_reduced(acc: dict, arcs: dict, coeff: dict) -> None:
    """acc += coeff * the matching {(x, y): dot count}, each arc's dots
    reduced to at most one by _DOT_SQUARE."""
    terms = [((), coeff)]
    for (x, y), k in sorted(arcs.items()):
        a, b = _dot_power(k)
        terms = [(elem + ((x, y, d),), packed_mul(c, p))
                 for elem, c in terms for d, p in ((1, a), (0, b)) if p]
    for elem, c in terms:
        packed_add(acc.setdefault(elem, {}), c)


def _nested_dot(elem: tuple):
    """A dotted arc of elem inside another arc, with the arc directly
    around it; None if only outer arcs carry dots."""
    for a1, a2, d in elem:
        around = [(b1, b2) for b1, b2, _ in elem if b1 < a1 and a2 < b2]
        if d and around:
            return (a1, a2), max(around)
    return None


# every dotted matching of at most NORMALIZE_STRAND_BOUND points fits
@lru_cache(maxsize=2048)
def _outward(elem: tuple) -> dict:
    """{outer-dot matching: packed coefficient} equal to elem, by moving its
    dots outward with _SLIDE.  Each step either moves a dot to a less nested
    arc or cuts A and B, which lowers the total nesting depth, so the
    recursion ends."""
    found = _nested_dot(elem)
    if found is None:
        return {elem: {_ONE: 1}}
    (a1, a2), (b1, b2) = found
    arcs = {(x, y): d for x, y, d in elem}
    db = arcs.pop((b1, b2))
    del arcs[(a1, a2)]
    terms: dict = {}
    for coeff, cut, at in _SLIDE:
        new = dict(arcs)
        if cut:
            new.update({(b1, a1): db, (a2, b2): 0})
        else:
            new.update({(a1, a2): 0, (b1, b2): db})
        if at:
            p = b1 if at == "b1" else a2
            arc = next(arc for arc in new if p in arc)
            new[arc] += 1
        _add_reduced(terms, new, coeff)
    out: dict = {}
    for elem2, c in terms.items():
        for basis, c2 in _outward(elem2).items():
            packed_add(out.setdefault(basis, {}), packed_mul(c, c2))
    return {basis: c for basis, c in out.items() if c}


def _contract(w: Word) -> tuple:
    """({(x, y): dots} of the word's arcs, [dots of each closed loop]), by
    union-find over its strand segments."""
    n_in = w.n_in
    parent, dots = list(range(n_in)), [0] * n_in

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    cur = list(range(n_in))
    for sl in w.slices:
        nxt, k = [], 0
        for p in sl:
            if p == "cup":
                parent.append(len(parent))
                dots.append(0)
                nxt += [len(parent) - 1] * 2
            elif p == "cap":
                parent[find(cur[k])] = find(cur[k + 1])
                k += 2
            else:
                if p == "dot":
                    dots[cur[k]] += 1
                nxt.append(cur[k])
                k += 1
        cur = nxt
    ends: dict = {}
    for x, node in enumerate(list(range(n_in)) + cur[::-1]):
        ends.setdefault(find(node), []).append(x)
    total: dict = {}
    for node, d in enumerate(dots):
        r = find(node)
        total[r] = total.get(r, 0) + d
    arcs = {tuple(xs): total[r] for r, xs in ends.items()}
    loops = [d for r, d in total.items() if r not in ends]
    return arcs, loops


def _circular(m, d, n_in: int, n_out: int) -> tuple:
    """The dotted matching (m, d) of noncrossing_matchings as arcs (x, y, d)."""
    pos = {("b", i): i for i in range(n_in)}
    pos.update({("t", j): n_in + n_out - 1 - j for j in range(n_out)})
    return tuple(sorted((*sorted((pos[p], pos[q])), k)
                        for (p, q), k in zip(m, d)))


@lru_cache(maxsize=64)
def outer_dot_basis(n_in: int, n_out: int) -> list:
    """The dotted matchings (matching, dots) whose dots are all on outer
    arcs, in dotted_spanning_set order: C(N, N/2) of them on N points, a
    basis of the span (rewrite_combo reaches every element of the span)."""
    return [(m, d) for m, d in words.dotted_spanning_set(n_in, n_out)
            if _nested_dot(_circular(m, d, n_in, n_out)) is None]


def rewrite_combo(combo: Combo) -> tuple:
    """The normal form of normalize_matrix(combo.evaluate()), found by the
    diagram relations on the combination's packed table: each word is
    contracted to one dotted matching times its loop values (_CIRCLE), dots
    reduced by _DOT_SQUARE, then moved out by _outward.  No matrix is
    built.  Returns (den, [(packed coefficient over den, matching, dots)])
    in outer_dot_basis order."""
    n_in, n_out = combo.n_in, combo.n_out
    den, table = combo._packed()
    coeffs: dict = {}
    for w, coeff in table.items():
        arcs, loops = _contract(w)
        for k in loops:
            a, b = _dot_power(k)
            coeff = packed_mul(coeff, packed_add(packed_mul(a, _CIRCLE[1]),
                                                 packed_mul(b, _CIRCLE[0])))
        reduced: dict = {}
        _add_reduced(reduced, arcs, coeff)
        for elem, c in reduced.items():
            for basis, c2 in _outward(elem).items():
                packed_add(coeffs.setdefault(basis, {}), packed_mul(c, c2))
    return den, [(t, m, d) for m, d in outer_dot_basis(n_in, n_out)
                 if (t := coeffs.get(_circular(m, d, n_in, n_out)))]


def normalized_string(combo: Combo) -> str:
    return print_combo(normalize_combo(combo))


def roundtrip_equal(combo: Combo) -> bool:
    back = parse_expr(print_combo(combo))
    if combo.is_empty() and back.is_empty():
        return True
    return (combo - back).evaluate().is_zero()
