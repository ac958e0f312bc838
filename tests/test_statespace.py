"""State-space model: primitive matrices, relations, intrinsic action."""

import random
from fractions import Fraction
from math import gcd

from dottedtl.ring import E_RING, GradedPoly
from dottedtl.statespace import (
    PRIM_MATRICES,
    A0,
    A1,
    PolyMatrix,
    basis_qdegree,
    basis_weight,
    commutator_star,
    generator_matrix,
)
from dottedtl.sl2 import BASE_SPEC, GENERATORS, DtlParams, TwistData
from dottedtl.words import Combo, act, random_word

E1 = E_RING.gen("E1")
E2 = E_RING.gen("E2")

DOT = PRIM_MATRICES["dot"]
CUP = PRIM_MATRICES["cup"]
CAP = PRIM_MATRICES["cap"]
ID1 = PolyMatrix.identity(1)


def test_circle_is_two():
    assert CAP * CUP == PolyMatrix.identity(0).scale(E_RING.const(2))


def test_dot_squared():
    assert DOT * DOT == DOT.scale(E1) - ID1.scale(E2)


def test_dot_slide():
    id2 = PolyMatrix.identity(2)
    dot1 = generator_matrix("dot", 0, 2)
    dot2 = generator_matrix("dot", 1, 2)
    cc = CUP * CAP
    lhs = dot1 + dot2
    rhs = (id2 - cc).scale(E1) + dot1 * cc + cc * dot1
    assert lhs == rhs


def test_cup_cap_shapes():
    assert CUP.n_in == 0 and CUP.n_out == 2
    assert CAP.n_in == 2 and CAP.n_out == 0


def test_basis_weights():
    # first strand is the most significant bit; A1 has weight +1
    assert basis_weight(0, 2) == 2
    assert basis_weight(3, 2) == -2
    assert basis_qdegree(1, 2) == 0
    assert basis_qdegree(3, 3) == 1


def test_matrix_arithmetic():
    rng = random.Random(5)
    for _ in range(10):
        a = Combo.of(random_word(rng, max_strands=3)).evaluate()
        assert a + PolyMatrix(a.n_out, a.n_in) == a
        assert (a - a).is_zero()
        assert a.scale(E_RING.const(2)) == a + a


def test_commutator_bracket():
    """[h, e] = 2e and friends, as operators on matrices."""
    rng = random.Random(6)
    mats = [PRIM_MATRICES[p] for p in ("id", "dot", "cup", "cap")]
    mats += [Combo.of(random_word(rng, max_strands=3)).evaluate()
             for _ in range(15)]
    for m in mats:
        he = commutator_star("h", commutator_star("e", m)) \
            - commutator_star("e", commutator_star("h", m))
        assert he == commutator_star("e", m).scale(E_RING.const(2))
        ef = commutator_star("e", commutator_star("f", m)) \
            - commutator_star("f", commutator_star("e", m))
        assert ef == commutator_star("h", m)


def test_h_commutator_reads_degree():
    rng = random.Random(9)
    for _ in range(15):
        m = Combo.of(random_word(rng, max_strands=3)).evaluate()
        deg = m.qdegree()
        if deg is None or m.is_zero():
            continue
        assert commutator_star("h", m) == m.scale(E_RING.const(-deg))


def test_intrinsic_action_letters():
    # the action on a vector of V_1 is the action on the map V_0 -> V_1
    # with that column: e(A0) = -A1, e(A1) = 0, h(A1) = A1
    def column(i, v=1):
        return PolyMatrix(1, 0, {(i, 0): v})

    assert commutator_star("e", column(A0)) == column(A1, -1)
    assert commutator_star("e", column(A1)).is_zero()
    assert commutator_star("h", column(A1)) == column(A1)


def test_qdegree_of_primitives():
    assert PRIM_MATRICES["dot"].qdegree() == 2
    assert PRIM_MATRICES["cup"].qdegree() == 0
    assert PRIM_MATRICES["cap"].qdegree() == 0
    assert PolyMatrix.identity(3).qdegree() == 0


# -- product kernel against a naive reference ----------------------------------

from hypothesis import given, settings, strategies as st

KERNEL_SETTINGS = settings(derandomize=True, database=None, deadline=None,
                           max_examples=80)

# coprime and composite denominators, so common denominators are exercised
coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                         st.sampled_from([1, 2, 3, 5, 7, 12, 35]))
# exponents of any mix, so entries are inhomogeneous as often as not
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), coefficients,
    min_size=1, max_size=3,
).map(E_RING.poly)


@st.composite
def matrices(draw, n_out, n_in):
    cells = st.tuples(st.integers(0, 2 ** n_out - 1),
                      st.integers(0, 2 ** n_in - 1))
    return PolyMatrix(n_out, n_in,
                      draw(st.dictionaries(cells, polys, max_size=12)))


strands = st.integers(0, 3)


@st.composite
def factor_pairs(draw):
    n_out, n_mid, n_in = draw(strands), draw(strands), draw(strands)
    return draw(matrices(n_out, n_mid)), draw(matrices(n_mid, n_in))


def naive_product(a, b):
    out = {}
    for (k, j), v in b.entries():
        for i in range(2 ** a.n_out):
            w = a[i, k]
            if not w.is_zero():
                out[i, j] = out.get((i, j), E_RING.zero) + w * v
    return PolyMatrix(a.n_out, b.n_in, out)


def assert_stored_like(m, ref):
    """Same entries as ref, no zero entry or empty column stored, and
    canonical Fraction coefficients."""
    assert (m.n_out, m.n_in) == (ref.n_out, ref.n_in)
    assert dict(m.entries()) == dict(ref.entries())
    assert all(m.cols.values())
    for _, v in m.entries():
        assert v.terms
        assert all(type(c) is Fraction and c for c in v.terms.values())


@KERNEL_SETTINGS
@given(factor_pairs())
def test_product_matches_naive(pair):
    a, b = pair
    assert_stored_like(a * b, naive_product(a, b))


@st.composite
def cancelling_pairs(draw):
    """[A | A] o [B ; C - B] = A o C, with every term of A o B cancelling."""
    n_out, m, n_in = draw(strands), draw(st.integers(0, 2)), draw(strands)
    a, b, c = (draw(matrices(n_out, m)), draw(matrices(m, n_in)),
               draw(matrices(m, n_in)))
    half = 2 ** m
    wide = {}
    for (i, k), v in a.entries():
        wide[i, k] = wide[i, half + k] = v
    tall = dict(b.entries())
    for (k, j), v in (c - b).entries():
        tall[half + k, j] = v
    return (PolyMatrix(n_out, m + 1, wide), PolyMatrix(m + 1, n_in, tall),
            a, c)


@KERNEL_SETTINGS
@given(cancelling_pairs())
def test_product_cancels_to_stored_zeros(case):
    wide, tall, a, c = case
    got = wide * tall
    assert_stored_like(got, naive_product(a, c))
    assert_stored_like(got, naive_product(wide, tall))


def test_product_cancelling_to_zero_stores_nothing():
    a = PolyMatrix(1, 1, {(0, 0): E1 / 3, (1, 0): E2 / 7})
    b = PolyMatrix(1, 1, {(0, 0): E1 / 5, (0, 1): E2 / 2})
    wide = a.tensor(PolyMatrix(0, 1, {(0, 0): 1, (0, 1): 1}))
    tall = b.tensor(PolyMatrix(1, 0, {(0, 0): 1, (1, 0): -1}))
    prod = wide * tall
    assert prod.is_zero() and prod.cols == {}
    assert (PolyMatrix(2, 0) * PolyMatrix(0, 3)).cols == {}
    assert (PolyMatrix.identity(0) * PolyMatrix.identity(0)) == \
        PolyMatrix.identity(0)


@KERNEL_SETTINGS
@given(strands.flatmap(lambda n_out: strands.flatmap(
    lambda n_in: matrices(n_out, n_in))),
    st.one_of(polys, coefficients, st.just(0)))
def test_scale_matches_entrywise(m, c):
    c = E_RING.coerce(c)
    ref = PolyMatrix(m.n_out, m.n_in, {ij: v * c for ij, v in m.entries()})
    assert_stored_like(m.scale(c), ref)


# the four selftest parameter sets plus two generic pairs
ACTION_PARAMS = [
    DtlParams(Fraction(0), Fraction(0)),
    DtlParams(Fraction(1), Fraction(0)),
    DtlParams(Fraction(0), Fraction(1, 2)),
    DtlParams(Fraction(-1), Fraction(2)),
    DtlParams(Fraction(3, 7), Fraction(-5, 2)),
    DtlParams(Fraction(2), Fraction(1, 3)),
]


def test_word_action_is_the_commutator_action():
    """act(g, x, p) evaluates to commutator_star(g, x, params=p)."""
    rng = random.Random(12)
    words = [Combo.of(random_word(rng, max_strands=4, max_slices=5))
             for _ in range(20)]
    words += [Combo.of(random_word(rng)).scale(E1 * E1 - E2)]
    for x in words:
        m = x.evaluate()
        for p in ACTION_PARAMS:
            for g in GENERATORS:
                assert act(g, x, p).evaluate() \
                    == commutator_star(g, m, params=p), (x, p, g)


def test_commutator_on_scalars_is_the_base_derivation():
    """On 0-strand matrices the action is the derivation of BASE_SPEC."""
    rng = random.Random(13)
    for _ in range(30):
        terms = {(rng.randint(0, 4), rng.randint(0, 3)):
                 Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                 for _ in range(rng.randint(1, 4))}
        c = GradedPoly(E_RING, terms)
        m = PolyMatrix(0, 0, {(0, 0): c})
        for g in GENERATORS:
            assert commutator_star(g, m)[0, 0] == BASE_SPEC.apply(g, c)


twists = st.builds(TwistData, st.just(Fraction(0)) | coefficients)


@KERNEL_SETTINGS
@given(factor_pairs(), st.sampled_from(GENERATORS),
       st.sampled_from(ACTION_PARAMS), twists, twists, twists)
def test_commutator_star_is_leibniz_on_composites(pair, g, p, src, mid, tgt):
    """g*(B A) = (g*B) A + B (g*A) for any matrices and parameters, with
    the twists of source, middle and target matching across the three
    terms: the closure rule of a Kirby system holds for every pair of maps,
    so it is a property of the action, not a check on a system."""
    B, A = pair
    lhs = commutator_star(g, B * A, src, tgt, p)
    rhs = commutator_star(g, B, mid, tgt, p) * A \
        + B * commutator_star(g, A, src, mid, p)
    assert lhs == rhs


# -- structural equality and the no-stored-zero invariant ------------------------

import pytest

from dottedtl.selftest import PARAM_SETS
from dottedtl.statespace import _object_operator, _strand_operator


def perturbed(m):
    """m with one entry changed, or with one entry added if m is empty."""
    if m.is_zero():
        return m + PolyMatrix(m.n_out, m.n_in, {(0, 0): E2})
    (i, j), _ = next(iter(m.entries()))
    return m + PolyMatrix(m.n_out, m.n_in, {(i, j): E1})


@st.composite
def comparable_pairs(draw):
    n_out, n_in = draw(strands), draw(strands)
    a, c = draw(matrices(n_out, n_in)), draw(matrices(n_out, n_in))
    kind = draw(st.sampled_from(["rebuilt", "cancel", "perturbed", "other",
                                 "empty", "shape"]))
    if kind == "rebuilt":  # equal, by sums whose terms cancel
        b = (a + c) - c
    elif kind == "cancel":  # every entry of a cancels, then c is added
        b = (c - a) + a
        a = PolyMatrix(n_out, n_in, dict(c.entries()))
    elif kind == "perturbed":
        b = perturbed(a)
    elif kind == "other":
        b = c
    elif kind == "empty":
        b = PolyMatrix(n_out, n_in)
    else:
        b = draw(matrices(draw(strands), draw(strands)))
    return a, b


@KERNEL_SETTINGS
@given(comparable_pairs())
def test_equality_agrees_with_difference(pair):
    a, b = pair
    if (a.n_out, a.n_in) != (b.n_out, b.n_in):
        assert a != b and b != a
        with pytest.raises(ValueError):
            a - b
    else:
        assert (a == b) == (b == a) == (a - b).is_zero()


def test_equality_edge_cases():
    assert PolyMatrix(2, 0) == PolyMatrix(2, 0)
    assert PolyMatrix(2, 0) != PolyMatrix(0, 2)
    assert PolyMatrix(1, 1) != PolyMatrix(1, 1, {(0, 0): E1})
    a = PolyMatrix(1, 1, {(0, 0): E1 / 3, (1, 1): E2})
    assert (a + a.scale(E_RING.const(-1))) == PolyMatrix(1, 1)
    assert a != perturbed(a) and a == perturbed(a) - PolyMatrix(
        1, 1, {(0, 0): E1})


def assert_no_stored_zero(m):
    assert all(m.cols.values())
    for _, v in m.entries():
        assert v.terms and all(v.terms.values())


def assert_canonical(m):
    """A kernel's result is stored as a packed table in canonical form: a
    positive int denominator, no empty column, no empty entry, no zero
    numerator, and gcd(den, every numerator) = 1."""
    assert m._table is not None
    den, table = m._packed()
    assert type(den) is int and den > 0
    content = den
    for col in table.values():
        assert col
        for t in col.values():
            assert t
            assert all(type(c) is int and c for c in t.values())
            content = gcd(content, *t.values())
    assert content == 1


@st.composite
def same_shape_pairs(draw):
    n_out, n_in = draw(strands), draw(strands)
    a = draw(matrices(n_out, n_in))
    # b shares entries with a or their negatives, so sums cancel
    b = draw(st.sampled_from([a, -a, PolyMatrix(n_out, n_in)]))
    return a, b + draw(matrices(n_out, n_in))


@KERNEL_SETTINGS
@given(factor_pairs(), same_shape_pairs(), st.one_of(polys, st.just(0)),
       st.sampled_from(GENERATORS), st.sampled_from(ACTION_PARAMS))
def test_operations_store_no_zero(pair, sums, c, g, p):
    a, b = pair
    x, y = sums
    outs = [a * b, x + y, x - y, x - x, x + (-x), x.scale(c),
            a.tensor(b), a.tensor(PolyMatrix(1, 2)),
            x.substitute({"E1": Fraction(0), "E2": Fraction(0)}),
            x.substitute({"E1": Fraction(1), "E2": Fraction(1, 4)}),
            commutator_star(g, x, params=p),
            commutator_star(g, x, TwistData(Fraction(-3, 2)),
                            TwistData(Fraction(5, 4)), p)]
    for m in outs:
        assert_canonical(m)
        assert_no_stored_zero(m)


@KERNEL_SETTINGS
@given(strands.flatmap(lambda n_out: strands.flatmap(
    lambda n_in: matrices(n_out, n_in))),
    st.sampled_from([{"E1": Fraction(0), "E2": Fraction(0)},
                     {"E1": Fraction(1), "E2": Fraction(1, 4)},
                     {"E2": Fraction(-2, 3)}, {"E1": Fraction(5, 2)}]))
def test_substitute_and_qdegree_match_entrywise(m, values):
    """The packed substitute and qdegree against GradedPoly.substitute and
    the entry-by-entry degree rule."""
    ref = PolyMatrix(m.n_out, m.n_in,
                     {ij: v.substitute(values) for ij, v in m.entries()})
    assert_stored_like(m.substitute(values), ref)
    degs = {v.homogeneous_degree() + basis_qdegree(i, m.n_out)
            - basis_qdegree(j, m.n_in) if v.is_homogeneous() else None
            for (i, j), v in m.entries()}
    if None in degs or len(degs) > 1:
        assert m.qdegree() is None
    else:
        assert m.qdegree() == (degs.pop() if degs else 0)


def tensor_sum_object_operator(g, n, params, a):
    """G_n as the sum of n tensor products I (x) strand (x) I plus the
    twist term on the identity: the construction the bitwise one replaced."""
    strand = _strand_operator(g, params)
    op = PolyMatrix.identity(n).scale(TwistData(a).tau(g))
    for i in range(n):
        op = op + PolyMatrix.identity(i).tensor(strand).tensor(
            PolyMatrix.identity(n - 1 - i))
    return op._packed()


def test_object_operator_matches_tensor_sum():
    """e, f and h; n <= 8; the four selftest parameter sets plus one with
    a1 != 0; twists 0, -3/2 and 5/4."""
    params = list(PARAM_SETS) + [DtlParams(Fraction(3, 7), Fraction(-5, 2))]
    for g in GENERATORS:
        for n in range(9):
            for p in params:
                for a in (Fraction(0), Fraction(-3, 2), Fraction(5, 4)):
                    assert _object_operator.__wrapped__(g, n, p, a) \
                        == tensor_sum_object_operator(g, n, p, a), (g, n, p, a)


# -- the storage boundary: cols, entry-by-entry builds, the star action ------

@KERNEL_SETTINGS
@given(factor_pairs())
def test_entrywise_build_equals_kernel_result(pair):
    """A matrix built entry by entry, through the entries dict or by
    writing its cols, equals the same matrix from a kernel, both ways."""
    a, b = pair
    prod = a * b
    by_dict = PolyMatrix(prod.n_out, prod.n_in, dict(prod.entries()))
    by_item = PolyMatrix(prod.n_out, prod.n_in)
    for (i, j), v in prod.entries():
        by_item.cols.setdefault(j, {})[i] = v
    assert by_dict == prod and prod == by_dict
    assert by_item == prod and prod == by_item
    assert by_item == naive_product(a, b)


@KERNEL_SETTINGS
@given(factor_pairs())
def test_written_cols_are_read_by_products(pair):
    """cols is the storage once read: a column written into a fresh matrix,
    as the benchmark's composite oracle does, and an entry changed in
    place are both seen by products and comparisons."""
    a, b = pair
    for j, col in b.cols.items():
        column = PolyMatrix(b.n_out, b.n_in)
        column.cols[j] = dict(col)
        want = PolyMatrix(b.n_out, b.n_in, {(i, j): v for i, v in col.items()})
        assert column == want
        assert a * column == a * want
    if b.cols:
        j, col = next(iter(b.cols.items()))
        i = next(iter(col))
        before = a * b
        col[i] = col[i] + E1
        bumped = PolyMatrix(b.n_out, b.n_in, {(i, j): E1})
        assert b[i, j] == col[i]
        assert a * b == before + a * bumped


def test_criterion_intrinsic_fails_with_wrong_f_parameter_term(monkeypatch):
    """Negative control for criterion 12: with the sign of the a2 term of
    f's strand operator flipped, commutator_star no longer equals the word
    action at the parameter sets with a2 != 0, and the criterion fails."""
    from dottedtl import selftest, statespace

    real = statespace._strand_operator

    def wrong(g, params):
        m = real(g, params)
        if g == "f":  # -(a2/2) E1 becomes +(a2/2) E1
            m = m + ID1.scale(E1).scale(Fraction(params.a2))
        return m

    statespace._object_operator.cache_clear()
    try:
        monkeypatch.setattr(statespace, "_strand_operator", wrong)
        assert not selftest.criterion_intrinsic()["ok"]
    finally:
        monkeypatch.undo()
        statespace._object_operator.cache_clear()
    assert selftest.criterion_intrinsic()["ok"]
