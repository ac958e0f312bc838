"""Exact linear algebra over Q.

Matrices are dense lists of rows of ``Fraction`` entries.  ``rref``
eliminates on an integer kernel: each row is scaled to ``int`` numerators
over the lcm of its denominators and kept as a sparse ``{column: int}``
dict, so zero cells cost nothing.  Elimination is fraction-free: a row is
reduced by ``row = (pv/g)*row - (f/g)*pivot_row`` with ``g = gcd(pv, f)``
and then divided by the gcd of its entries, which keeps the integers
small.  Only the reduced rows are turned back into ``Fraction`` rows, once,
at the end.  The reduced row echelon form is unique, so the result equals
that of plain Gauss-Jordan elimination over ``Fraction``.  An ``int`` entry
is read like the equal ``Fraction``.

``row_basis`` takes its rows already sparse, as ``{column: int}`` dicts,
and runs only the forward pass: it picks rows that span the row space, so a
caller can solve on those rows alone and check the others afterwards.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _int_row(row) -> dict:
    """The row as a primitive sparse integer vector with the same span."""
    den = lcm(*(x.denominator for x in row if x))
    return _primitive({c: x.numerator * (den // x.denominator)
                       for c, x in enumerate(row) if x})


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


def row_basis(rows: list[dict]) -> list[int]:
    """Increasing indices of rows that span the row space of the sparse
    integer rows {column: nonzero int}; as many as the rank.

    One forward pass, sparsest rows first (ties by index), as sparse rows
    fill in the least.
    """
    echelon: dict = {}
    basis = []
    for r in sorted(range(len(rows)), key=lambda r: len(rows[r])):
        if _reduce_into(echelon, _primitive(rows[r])):
            basis.append(r)
    return sorted(basis)


def rref(rows: list[list[Fraction]]):
    """Reduced row echelon form in place; returns pivot column list.

    Row i < rank holds the pivot row of the i-th pivot column (pivot entry
    1); the rows past the rank are zero.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    echelon: dict = {}
    for row in rows:
        _reduce_into(echelon, _int_row(row))
    pivots = sorted(echelon)
    # backward pass: clear each pivot column above its pivot row, last
    # column first, so no cleared column is filled again
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        prow = echelon[c]
        for p in pivots[:i]:
            if c in echelon[p]:
                echelon[p] = _eliminate(echelon[p], prow, c)
    for r, c in enumerate(pivots):
        vec = echelon[c]
        pv = vec[c]
        out = [_ZERO] * ncols
        for k, v in vec.items():
            out[k] = Fraction(v, pv)
        rows[r] = out
    for r in range(len(pivots), len(rows)):
        rows[r] = [_ZERO] * ncols
    return pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix given by rows."""
    work = [list(r) for r in rows]
    pivots = rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


def solve(rows: list[list[Fraction]], rhs: list[Fraction]):
    """One solution of A x = b, or None if inconsistent.

    The solution is the one with every free variable zero: the unique
    solution supported on the pivot columns of A.
    """
    if not rows:
        return [] if all(v == 0 for v in rhs) else None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][ncols]
    return x
