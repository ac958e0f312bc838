"""Exact linear algebra: the sparse integer kernel against dense
Gauss-Jordan."""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from dottedtl import exactla

LA_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                       max_examples=150)


def dense_rref(rows):
    """Plain Gauss-Jordan over Fraction, the reference for exactla.rref."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


# negative entries and coprime or composite denominators; zero about half
# the time, so rows are sparse and rank deficiency is common
entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9),
              st.sampled_from([1, 2, 3, 5, 7, 12, 35])),
)


@st.composite
def matrices(draw, max_rows=7, max_cols=7):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    # repeat a combination of earlier rows now and then: rank deficiency
    # that zero rows alone would not give
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(entries), draw(entries)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    return rows


def _sparse_int_rows(rows):
    """Each row scaled by the lcm of its denominators, as {column: int}."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append({c: int(x * den) for c, x in enumerate(row) if x})
    return out


def _columns(rows):
    """The system of rows as columns [{row index: int}], each row scaled as
    by _sparse_int_rows, which changes neither kernel nor row space."""
    ncols = len(rows[0]) if rows else 0
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(_sparse_int_rows(rows)):
        for c, v in row.items():
            cols[c][i] = v
    return cols


def _apply(rows, vec):
    """The dense rows times the sparse vector {column: Fraction}."""
    return [sum((row[c] * v for c, v in vec.items()), Fraction(0))
            for row in rows]


def assert_same_rref(rows):
    ncols = len(rows[0]) if rows else 0
    ref = [list(r) for r in rows]
    pivots = dense_rref(ref)
    got = exactla.rref(_sparse_int_rows(rows))
    assert list(got) == pivots
    for p, row in got.items():
        assert min(row) == p and gcd(*row.values()) == 1
    assert [[Fraction(row.get(c, 0), row[p]) for c in range(ncols)]
            for p, row in got.items()] == ref[:len(pivots)]


@LA_SETTINGS
@given(matrices())
def test_rref_matches_dense(rows):
    assert_same_rref(rows)


@LA_SETTINGS
@given(matrices(max_rows=12, max_cols=4))
def test_rref_more_rows_than_columns(rows):
    assert_same_rref(rows)


def test_rref_edge_shapes():
    F = Fraction
    assert exactla.rref([]) == {}
    assert exactla.rref([{}, {}]) == {}
    for rows in (
        [[]],
        [[], []],
        [[F(0)] * 3, [F(0)] * 3],
        [[F(0), F(2, 3)], [F(0), F(-4, 9)], [F(0), F(0)]],
        [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)], [F(-1, 35), F(3)]],
        [[F(2), F(4), F(6)], [F(1), F(2), F(3)], [F(-3), F(-6), F(-9)]],
    ):
        assert_same_rref(rows)
    assert exactla.rref([{0: 3, 1: 2}, {0: 6, 1: 4}]) == {0: {0: 3, 1: 2}}


@LA_SETTINGS
@given(matrices(), st.data())
def test_solve(rows, data):
    ncols = len(rows[0]) if rows else 0
    x = {c: data.draw(entries) for c in range(ncols)}
    rhs = _apply(rows, x)
    # the augmented system's columns: the unknowns' and then the rhs
    aug = _columns([row + [b] for row, b in zip(rows, rhs)]) or [{}]
    sol = exactla.solve(aug[:-1], aug[-1])
    assert sol is not None
    assert _apply(rows, sol) == rhs
    assert all(type(v) is Fraction and v for v in sol.values())
    assert list(sol) == sorted(sol)
    # free variables are zero
    assert set(sol) <= set(dense_rref([list(r) for r in rows]))


def test_solve_inconsistent_is_none():
    F = Fraction
    # the rows 1/2 x + 1/3 y and 3/2 x + y, scaled to integers
    columns = [{0: 3, 1: 3}, {0: 2, 1: 2}]
    assert exactla.solve(columns, {0: 6, 1: 6}) == {0: F(2)}
    # consistent on the one spanning row, refuted by the other
    assert exactla.solve(columns, {0: 6, 1: 4}) is None
    assert exactla.solve([{}, {}], {0: -1}) is None
    assert exactla.solve([], {0: 0}) == {}
    assert exactla.solve([], {0: 1}) is None
    # labels are any keys; a label that no column reaches must be zero
    assert exactla.solve([{"a": 2}], {"a": 4, "b": 0}) == {0: F(2)}
    assert exactla.solve([{"a": 2}], {"a": 4, "b": 1}) is None


@LA_SETTINGS
@given(matrices())
def test_nullspace_is_annihilated(rows):
    ncols = len(rows[0]) if rows else 0
    basis = exactla.nullspace(_columns(rows))
    pivots = dense_rref([list(r) for r in rows])
    assert len(basis) == ncols - len(pivots)
    for vec in basis:
        assert vec and list(vec) == sorted(vec)
        assert all(type(v) is Fraction and v for v in vec.values())
        assert not any(_apply(rows, vec))


def _reduced(rows):
    """The nonzero rows of the RREF, as the reference computes it."""
    work = [list(r) for r in rows]
    rank = len(dense_rref(work))
    return work[:rank]


def assert_row_basis(rows):
    """The rows solve eliminates on: distinct, independent, as many as the
    rank, and spanning, so they have the RREF of all rows."""
    basis = exactla._spanning_rows(exactla._rows(_columns(rows)))
    assert len(set(basis)) == len(basis)
    chosen = [rows[r] for r in basis]
    assert len(dense_rref([list(r) for r in chosen])) == len(basis)
    assert len(basis) == len(dense_rref([list(r) for r in rows]))
    assert _reduced(chosen) == _reduced(rows)


@LA_SETTINGS
@given(matrices())
def test_row_basis_spans_the_row_space(rows):
    assert_row_basis(rows)


@LA_SETTINGS
@given(matrices(max_rows=12, max_cols=4))
def test_row_basis_of_tall_matrices(rows):
    assert_row_basis(rows)


def test_row_basis_edge_cases():
    F = Fraction
    assert exactla._spanning_rows({}) == []
    # zero and duplicate rows are left out; the sparsest rows come first
    rows = [[F(0), F(0), F(0)], [F(1), F(2), F(3)], [F(2), F(4), F(6)],
            [F(0), F(5), F(0)], [F(1), F(2), F(3)], [F(1), F(-3), F(3)]]
    assert_row_basis(rows)
    assert exactla._spanning_rows(exactla._rows(_columns(rows))) == [3, 1]
