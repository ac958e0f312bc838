"""Exact linear algebra over Q, on sparse integer systems.

A system is given by its columns, ``[{row label: nonzero int}]``: column j
is the image of the j-th unknown, and a label is any hashable key.  A
right-hand side is ``{row label: int}``; a solution or a kernel vector is
``{column index: Fraction}``, its nonzero entries in column order.

``rref`` is the kernel that ``solve`` and ``nullspace`` call.  It takes
sparse integer rows ``{column: nonzero int}`` and eliminates fraction-free:
a row is reduced by ``row = (pv/g)*row - (f/g)*pivot_row`` with ``g =
gcd(pv, f)`` and then divided by the gcd of its entries, which keeps the
integers small.  The reduced row echelon form is unique, so each row,
divided by its pivot entry, is that of plain Gauss-Jordan elimination over
``Fraction``.

``solve`` is made for tall systems, with many more rows than unknowns: a
forward pass, sparsest rows first, picks rows that span the row space; the
augmented system is eliminated on those rows alone; and the solution is
checked exactly against every row, which also rejects a right-hand side on
a label that no column reaches; a ``System`` keeps its spanning rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive(vec: dict) -> dict:
    g = gcd(*vec.values())
    if g > 1:
        return {c: v // g for c, v in vec.items()}
    return vec


def _eliminate(vec: dict, prow: dict, c: int) -> dict:
    """vec with column c cleared by a multiple of prow, made primitive."""
    f, pv = vec[c], prow[c]
    g = gcd(f, pv)
    f, pv = f // g, pv // g
    out = {k: pv * v for k, v in vec.items()} if pv != 1 else dict(vec)
    for k, v in prow.items():
        nv = out.get(k, 0) - f * v
        if nv:
            out[k] = nv
        else:
            del out[k]
    return _primitive(out) if out else out


def _reduce_into(echelon: dict, vec: dict) -> bool:
    """The forward step: reduce the primitive vec by the pivot rows of
    echelon until its leading column is a new pivot, which it then holds.
    False if vec vanishes, i.e. lies in the span of echelon's rows."""
    while vec:
        c = min(vec)
        prow = echelon.get(c)
        if prow is None:
            echelon[c] = vec
            return True
        vec = _eliminate(vec, prow, c)
    return False


def rref(rows: list[dict]) -> dict:
    """The reduced row echelon form of the sparse integer rows, as {pivot
    column: row} in pivot order: each row primitive, its pivot its least
    column, and zero in every other pivot column."""
    echelon: dict = {}
    for row in rows:
        _reduce_into(echelon, _primitive(row))
    pivots = sorted(echelon)
    # backward pass: clear each pivot column above its pivot row, last
    # column first, so no cleared column is filled again
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        prow = echelon[c]
        for p in pivots[:i]:
            if c in echelon[p]:
                echelon[p] = _eliminate(echelon[p], prow, c)
    return {c: echelon[c] for c in pivots}


def _rows(columns: list[dict]) -> dict:
    """The system's rows, {label: {column index: int}}, labels in the order
    the columns first reach them."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for r, v in col.items():
            rows.setdefault(r, {})[j] = v
    return rows


def _spanning_rows(rows: dict) -> list:
    """Labels of rows that span the row space, as many as the rank: one
    forward pass, sparsest rows first (ties in label order), as sparse rows
    fill in the least."""
    echelon: dict = {}
    return [r for r in sorted(rows, key=lambda r: len(rows[r]))
            if _reduce_into(echelon, _primitive(rows[r]))]


def _satisfies(columns: list[dict], x: dict, rhs: dict) -> bool:
    """Whether sum_j x[j] * columns[j] equals rhs on every row, exactly, in
    integers over the lcm of x's denominators."""
    den = lcm(*(v.denominator for v in x.values()))
    acc: dict = {}
    for j, v in x.items():
        v = v.numerator * (den // v.denominator)
        for r, a in columns[j].items():
            acc[r] = acc.get(r, 0) + a * v
    return {r: v for r, v in acc.items() if v} == \
        {r: v * den for r, v in rhs.items() if v}


class System(list):
    """Columns with their (rows, spanning rows), found once, so a system
    solved for many right-hand sides pays the spanning-rows pass once."""

    __slots__ = ("spanned",)

    def __init__(self, columns):
        super().__init__(columns)
        rows = _rows(self)
        self.spanned = rows, _spanning_rows(rows)


def solve(columns: list[dict], rhs: dict):
    """The solution x of sum_j x[j] * columns[j] = rhs with every free
    unknown zero, or None if rhs is off the span of the columns."""
    if not isinstance(columns, System):
        columns = System(columns)
    rows, spanning = columns.spanned
    n = len(columns)
    aug = []
    for r in spanning:
        b = rhs.get(r)
        aug.append({**rows[r], n: b} if b else rows[r])
    # the rows are independent, so n is no pivot: every row's rhs entry is
    # its pivot unknown's value times its pivot entry
    x = {c: Fraction(row[n], row[c])
         for c, row in rref(aug).items() if n in row}
    return x if _satisfies(columns, x, rhs) else None


def nullspace(columns: list[dict]) -> list[dict]:
    """A basis of the kernel of the system: one vector per free column,
    that column's entry 1 and every other free column's entry zero."""
    echelon = rref(list(_rows(columns).values()))
    basis = []
    for fc in range(len(columns)):
        if fc not in echelon:
            # a pivot row holding fc has its pivot left of fc, so the
            # entries come in column order
            vec = {pc: Fraction(-row[fc], row[pc])
                   for pc, row in echelon.items() if fc in row}
            vec[fc] = Fraction(1)
            basis.append(vec)
    return basis
