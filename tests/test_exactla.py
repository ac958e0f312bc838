"""Exact linear algebra: the integer kernel against dense Gauss-Jordan."""

from fractions import Fraction
from math import lcm

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


def assert_same_rref(rows):
    got, ref = [list(r) for r in rows], [list(r) for r in rows]
    pivots = exactla.rref(got)
    assert pivots == dense_rref(ref)
    assert got == ref
    assert all(type(x) is Fraction for row in got for x in row)


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
    assert exactla.rref([]) == []
    for rows in (
        [[]],
        [[], []],
        [[F(0)] * 3, [F(0)] * 3],
        [[F(0), F(2, 3)], [F(0), F(-4, 9)], [F(0), F(0)]],
        [[F(1, 2), F(1, 3)], [F(1, 5), F(1, 7)], [F(-1, 35), F(3)]],
        [[F(2), F(4), F(6)], [F(1), F(2), F(3)], [F(-3), F(-6), F(-9)]],
    ):
        assert_same_rref(rows)
    assert len(exactla.rref([[F(1, 2), F(1, 3)], [F(3), F(2)]])) == 1


@LA_SETTINGS
@given(matrices(), st.data())
def test_solve(rows, data):
    ncols = len(rows[0]) if rows else 0
    x = [data.draw(entries) for _ in range(ncols)]
    rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
    sol = exactla.solve(rows, rhs)
    assert sol is not None
    assert [sum((a * b for a, b in zip(row, sol)), Fraction(0))
            for row in rows] == rhs
    # free variables are zero
    pivots = dense_rref([list(r) for r in rows])
    assert all(v == 0 for c, v in enumerate(sol) if c not in pivots)


def test_solve_inconsistent_is_none():
    F = Fraction
    rows = [[F(1, 2), F(1, 3)], [F(3, 2), F(1)]]
    assert exactla.solve(rows, [F(1), F(3)]) == [F(2), F(0)]
    assert exactla.solve(rows, [F(1), F(2)]) is None
    assert exactla.solve([[F(0), F(0)]], [F(-1, 7)]) is None
    assert exactla.solve([], [F(0)]) == []
    assert exactla.solve([], [F(1)]) is None


@LA_SETTINGS
@given(matrices())
def test_nullspace_is_annihilated(rows):
    ncols = len(rows[0]) if rows else 0
    basis = exactla.nullspace(rows, ncols)
    pivots = dense_rref([list(r) for r in rows])
    assert len(basis) == ncols - len(pivots)
    for vec in basis:
        assert any(vec)
        for row in rows:
            assert sum((a * b for a, b in zip(row, vec)), Fraction(0)) == 0


def _sparse_int_rows(rows):
    """Each row scaled by the lcm of its denominators, as {column: int}."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append({c: int(x * den) for c, x in enumerate(row) if x})
    return out


def _reduced(rows):
    """The nonzero rows of the RREF, as the reference computes it."""
    work = [list(r) for r in rows]
    rank = len(dense_rref(work))
    return work[:rank]


def assert_row_basis(rows):
    basis = exactla.row_basis(_sparse_int_rows(rows))
    assert basis == sorted(set(basis))
    chosen = [rows[r] for r in basis]
    # independent, as many as the rank, and spanning: the same RREF
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
    assert exactla.row_basis([]) == []
    assert exactla.row_basis([{}, {}]) == []
    # zero and duplicate rows are left out; the sparsest rows come first
    rows = [[F(0), F(0), F(0)], [F(1), F(2), F(3)], [F(2), F(4), F(6)],
            [F(0), F(5), F(0)], [F(1), F(2), F(3)], [F(1), F(-3), F(3)]]
    assert_row_basis(rows)
    assert exactla.row_basis(_sparse_int_rows(rows)) == [1, 3]
