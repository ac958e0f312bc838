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
"""

from __future__ import annotations

import re
from fractions import Fraction

from .projectors import JW_TRACKED_BOUND
from .ring import E_RING, GradedPoly
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
    """The largest argument of a macro: jw(n) and d(n) are normalised on
    2n boundary strands and u(n) on 2(n + 2), within
    NORMALIZE_STRAND_BOUND; z(n) and s(i, n) reach JW_TRACKED_BOUND."""
    if name in ("jw", "d"):
        return NORMALIZE_STRAND_BOUND // 2
    if name == "u":
        return NORMALIZE_STRAND_BOUND // 2 - 2
    return JW_TRACKED_BOUND


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
    from . import projectors

    try:
        if name == "jw":
            return _jw_combo(n)
        if name == "u":
            # projector-sandwiched dotted cup
            mid = Combo.of(identity_word(n)).tensor(
                Combo.of(Word((("cup",), ("dot", "id"))))
            )
            return _jw_combo(n).then(mid).then(_jw_combo(n + 2))
        if name == "d":
            if n < 2:
                raise ExprError("d(n) needs n >= 2", pos)
            mid = Combo.of(identity_word(n - 2)).tensor(
                Combo.of(Word((("dot", "id"), ("cap",))))
            )
            return (
                _jw_combo(n)
                .then(mid)
                .then(_jw_combo(n - 2))
                .scale(Fraction(n * (n - 1)))
            )
    except projectors.ProjectorError as exc:
        raise ExprError(str(exc), pos)
    raise ExprError(f"unknown macro {name!r}", pos)


_jw_combo_cache: dict = {}


def _jw_combo(n: int) -> Combo:
    """The projector as a compact combination of matching words, recovered
    from its matrix rather than by the word-level recursion (whose term
    count explodes)."""
    got = _jw_combo_cache.get(n)
    if got is None:
        from . import projectors

        got = combo_from_matrix(projectors.jw(n), n, n)
        _jw_combo_cache[n] = got
    return got


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
            gen = E_RING.gen(v)
            k2, v2, _ = self.peek()
            if k2 == "sym" and v2 == "^":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "int":
                    raise ExprError("exponent must be an integer", p3)
                return (gen ** int(v3), None)
            return (gen, None)
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
    if not combo.terms:
        return "0"
    pieces = []
    for w in sorted(combo.terms, key=lambda w: (len(w.slices), repr(w))):
        c = combo.terms[w]
        ws = print_word(w)
        if ws == "1":
            pieces.append(f"({c})")
        elif str(c) == "1":
            pieces.append(f"({ws})")
        else:
            pieces.append(f"({c})*({ws})")
    return " + ".join(pieces)


def normalize_matrix(mat, n_in: int, n_out: int):
    """The normal form of a state-space matrix over the dotted matching
    spanning set, with polynomial coefficients.

    Returns [(coefficient, matching, dots)].  The target is split by
    structural degree and each degree is solved once, as one exact linear
    system over all of its entries.  Where the spanning set is linearly
    dependent, the coefficients are the unique solution supported on the
    leftmost independent spanning-set columns (every other coefficient is
    zero).

    Each spanning-set matrix comes from words.matching_matrix, built at most
    once per call; each structural degree is one exactla.solve over dense
    rows that share one Fraction zero in their empty cells.
    """
    from . import exactla
    from .statespace import basis_qdegree
    from .words import dotted_spanning_set, matching_matrix

    if n_in + n_out > NORMALIZE_STRAND_BOUND:
        raise ExprError(
            f"normalization bound exceeded: {n_in}+{n_out} boundary strands"
        )
    span = dotted_spanning_set(n_in, n_out)
    zero = Fraction(0)
    mat_cache: dict = {}

    def span_matrix(i):
        got = mat_cache.get(i)
        if got is None:
            m, d = span[i]
            got = matching_matrix(m, d, n_in, n_out)
            mat_cache[i] = got
        return got

    def struct_degree(cell, exp, poly):
        return (poly.monomial_degree(exp)
                + basis_qdegree(cell[0], n_out)
                - basis_qdegree(cell[1], n_in))

    # split the target into structurally homogeneous components
    targets: dict = {}
    for cell, poly in mat.entries():
        for exp, c in poly.terms.items():
            targets.setdefault(
                struct_degree(cell, exp, poly), {}
            )[(cell, exp)] = c

    coeffs: dict = {}
    for deg, rhs_map in sorted(targets.items()):
        # one system per degree; a degree-(2 dots) diagram contributes with
        # coefficient monomials of degree deg - 2 dots only
        unknowns = []
        rowmap: dict = {}
        row_keys: list = []
        for i, (m, d) in enumerate(span):
            rem = deg - 2 * sum(d)
            if rem < 0 or rem % 2:
                continue
            monos = [
                (a, b) for b in range(rem // 4 + 1)
                for a in [(rem - 4 * b) // 2] if 2 * a + 4 * b == rem
            ]
            if not monos:
                continue
            dm = span_matrix(i)
            for mu in monos:
                j = len(unknowns)
                for cell, poly in dm.entries():
                    for exp, c in poly.terms.items():
                        k = (cell, (exp[0] + mu[0], exp[1] + mu[1]))
                        if k not in rowmap:
                            rowmap[k] = {}
                            row_keys.append(k)
                        # distinct (cell, exp) give distinct keys for one j
                        rowmap[k][j] = c
                unknowns.append((i, mu))
        for k in rhs_map:
            if k not in rowmap:
                rowmap[k] = {}
                row_keys.append(k)
        if not unknowns:
            raise ExprError("evaluation is outside the diagram span")
        ncols = len(unknowns)
        rows = [
            [rowmap[k].get(j, zero) for j in range(ncols)] for k in row_keys
        ]
        rhs = [rhs_map.get(k, zero) for k in row_keys]
        sol = exactla.solve(rows, rhs)
        if sol is None:
            raise ExprError("evaluation is outside the diagram span")
        for (i, mu), c in zip(unknowns, sol):
            if c:
                coeffs.setdefault(i, {})[mu] = c
    return [
        (GradedPoly(E_RING, terms), span[i][0], span[i][1])
        for i, terms in sorted(coeffs.items())
    ]


def combo_from_matrix(mat, n_in: int, n_out: int) -> Combo:
    """A combination of matching words with the given evaluation."""
    from .words import matching_to_word

    out = Combo(n_in=n_in, n_out=n_out)
    for poly, m, d in normalize_matrix(mat, n_in, n_out):
        out = out + Combo({matching_to_word(m, d, n_in, n_out): poly},
                          n_in=n_in, n_out=n_out)
    return out


def normalize_combo(combo: Combo) -> Combo:
    """normalize_matrix of the combination's evaluation, as a combination of
    matching words."""
    n_in, n_out = combo.n_in, combo.n_out
    if n_in is None:
        raise ExprError("cannot normalize an empty combination of no shape")
    return combo_from_matrix(combo.evaluate(), n_in, n_out)


def normalized_string(combo: Combo) -> str:
    return print_combo(normalize_combo(combo))


def roundtrip_equal(combo: Combo) -> bool:
    back = parse_expr(print_combo(combo))
    if combo.is_empty() and back.is_empty():
        return True
    return (combo - back).evaluate().is_zero()
