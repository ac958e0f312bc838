"""Diagram words, the parameterized action, matchings, and the local
relations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dottedtl.ring import E_RING
from dottedtl.statespace import PRIM_MATRICES, PolyMatrix
from dottedtl.words import (
    Combo,
    DtlParams,
    Word,
    WordError,
    act,
    dotted_spanning_set,
    evaluate_word,
    identity_word,
    matching_matrix,
    matching_to_word,
    noncrossing_matchings,
    primitive_combo,
    random_word,
    relation_instances,
    verify_relations,
    zn_combo,
)

PARAM_SETS = [
    DtlParams(Fraction(0), Fraction(0)),
    DtlParams(Fraction(1), Fraction(0)),
    DtlParams(Fraction(0), Fraction(1, 2)),
    DtlParams(Fraction(-1), Fraction(2)),
]


def test_word_validation():
    with pytest.raises(WordError):
        Word(())
    with pytest.raises(WordError):
        Word((("cap",), ("cap",)))  # 2 -> 0 then needs 2 inputs
    with pytest.raises(WordError):
        Word((("frob",),))
    w = Word((("cup",), ("dot", "id"), ("cap",)))
    assert w.n_in == 0 and w.n_out == 0


def test_params_parse():
    p = DtlParams.parse("1/2,-3")
    assert p.a1 == Fraction(1, 2) and p.a2 == Fraction(-3)
    with pytest.raises(ValueError):
        DtlParams.parse("1")


def test_identity_evaluation():
    for n in range(4):
        m = evaluate_word(identity_word(n))
        assert m.n_in == n and m.n_out == n
        assert m * m == m


def test_circle_value():
    circle = Word((("cup",), ("cap",)))
    m = evaluate_word(circle)
    assert m == evaluate_word(identity_word(0)).scale(E_RING.const(2))


def test_relations_all_params():
    for p in PARAM_SETS:
        rep = verify_relations(p, n_max=3)
        assert rep["ok"], rep


def test_relations_reject_negative_width():
    with pytest.raises(WordError, match="non-negative"):
        verify_relations(PARAM_SETS[0], n_max=-2)
    # width 0 still checks the circle relation and its images
    assert len(verify_relations(PARAM_SETS[0], n_max=0)["checks"]) == 4


def test_act_is_linear():
    rng = random.Random(13)
    p = PARAM_SETS[3]
    for _ in range(10):
        x = Combo.of(random_word(rng, max_strands=3))
        y = Combo.of(random_word(rng, max_strands=3))
        if (x.n_in, x.n_out) != (y.n_in, y.n_out):
            continue
        for g in ("e", "f", "h"):
            lhs = act(g, x + y, p).evaluate()
            rhs = (act(g, x, p) + act(g, y, p)).evaluate()
            assert lhs == rhs


def test_act_leibniz_on_composition():
    p = PARAM_SETS[1]
    dot = primitive_combo("dot")
    for g in ("e", "f", "h"):
        lhs = act(g, dot.then(dot), p).evaluate()
        rhs = (act(g, dot, p).then(dot) + dot.then(act(g, dot, p))).evaluate()
        assert lhs == rhs


def test_zn_alternation():
    z2 = zn_combo(2).evaluate()
    d1 = Combo.of(Word((("dot", "id"),))).evaluate()
    d2 = Combo.of(Word((("id", "dot"),))).evaluate()
    assert z2 == d1 - d2


def test_matching_counts_are_catalan():
    for n, cat in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14)]:
        assert len(noncrossing_matchings(n)) == cat
    assert len(noncrossing_matchings(1, 3)) == 2
    assert noncrossing_matchings(1, 2) == []


def test_matching_matrix_is_independent_oracle():
    """Direct matching evaluation agrees with the word machinery."""
    rng = random.Random(15)
    for nb, nt in [(2, 2), (3, 3), (3, 1), (2, 4)]:
        for m, d in dotted_spanning_set(nb, nt):
            w = matching_to_word(m, d, nb, nt)
            assert evaluate_word(w) == matching_matrix(m, d, nb, nt)
    for _ in range(20):
        nb, nt = rng.choice([(2, 2), (3, 3), (4, 2)])
        m = rng.choice(noncrossing_matchings(nb, nt))
        d = tuple(rng.randint(0, 3) for _ in m)
        w = matching_to_word(m, d, nb, nt)
        assert evaluate_word(w) == matching_matrix(m, d, nb, nt)


def test_hom_rank_two_relation():
    """The rank drop at two strands: the doubly dotted identity lies in the
    span of cheaper diagrams, via the local relations."""
    E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
    dd = Combo.of(Word((("dot", "dot"),))).evaluate()
    id2 = evaluate_word(identity_word(2))
    cc = Combo.of(Word((("cap",), ("cup",)))).evaluate()
    ccdd = Combo.of(Word((("dot", "id"), ("cap",), ("cup",),
                          ("dot", "id")))).evaluate()
    assert dd == id2.scale(E2) + ccdd - cc.scale(E2)


def test_random_word_bounds():
    rng = random.Random(16)
    for _ in range(100):
        w = random_word(rng, max_strands=4, max_slices=4)
        assert all(c <= 4 for c in w.counts)
        assert 1 <= len(w.slices) <= 4


# -- matching_matrix: input validation ----------------------------------------

CUP_CAP = ((("b", 0), ("b", 1)), (("t", 0), ("t", 1)))  # cap then cup, 2 -> 2


def test_matching_matrix_rejects_short_dots():
    with pytest.raises(WordError, match="dot counts"):
        matching_matrix(CUP_CAP, (1,), 2, 2)


def test_matching_matrix_rejects_uncovered_boundary():
    with pytest.raises(WordError, match="boundary points"):
        matching_matrix(CUP_CAP, (0, 0), 3, 3)
    with pytest.raises(WordError, match="boundary points"):
        matching_matrix(CUP_CAP, (0, 0), 2, 0)
    with pytest.raises(WordError, match="boundary points"):
        matching_matrix(((("b", 0), ("b", 0)),), (0,), 2, 0)


def test_matching_matrix_rejects_negative_dots():
    with pytest.raises(WordError, match="non-negative"):
        matching_matrix(CUP_CAP, (0, -1), 2, 2)


CROSSING = ((("b", 0), ("t", 1)), (("b", 1), ("t", 0)))  # through strands cross


def test_matching_matrix_rejects_crossing_through_strands():
    with pytest.raises(WordError, match="not planar"):
        matching_matrix(CROSSING, (0, 0), 2, 2)


def test_matching_to_word_rejects_crossing_through_strands():
    with pytest.raises(WordError, match="not planar"):
        matching_to_word(CROSSING, (0, 0), 2, 2)


def _perfect_matchings(points):
    if not points:
        return [[]]
    first, rest = points[0], points[1:]
    return [[(first, q)] + m for i, q in enumerate(rest)
            for m in _perfect_matchings(rest[:i] + rest[i + 1:])]


@pytest.mark.parametrize("shape", [(2, 2), (4, 0), (3, 3), (4, 2)])
def test_exactly_the_noncrossing_matchings_are_accepted(shape):
    nb, nt = shape
    points = [("b", i) for i in range(nb)] + [("t", j) for j in range(nt)]
    planar = {frozenset(m) for m in noncrossing_matchings(nb, nt)}
    for m in _perfect_matchings(points):
        dots = (0,) * len(m)
        if frozenset(m) in planar:
            assert evaluate_word(matching_to_word(m, dots, nb, nt)) \
                == matching_matrix(m, dots, nb, nt)
        else:
            with pytest.raises(WordError, match="not planar"):
                matching_matrix(m, dots, nb, nt)
            with pytest.raises(WordError, match="not planar"):
                matching_to_word(m, dots, nb, nt)


# -- matching_matrix against the state-propagation oracle ---------------------

def _dot_power(d):
    m = PolyMatrix.identity(1)
    for _ in range(d):
        m = PRIM_MATRICES["dot"] * m
    return m


def propagated_matching_matrix(matching, dots, n_bot, n_top):
    """The matching evaluated one input state at a time: each arc turns a
    list of (coefficient, partial top assignment) into the next, with
    GradedPoly arithmetic throughout."""
    cup = PRIM_MATRICES["cup"]
    cap = PRIM_MATRICES["cap"]
    entries = {}
    for x in range(2 ** n_bot):
        in_bits = [(x >> (n_bot - 1 - i)) & 1 for i in range(n_bot)]
        dist = [(E_RING.one, {})]
        for arc, d in zip(matching, dots):
            dm = _dot_power(d)
            (s1, i1), (s2, i2) = arc
            new = []
            if s1 == "b" and s2 == "b":
                val = E_RING.zero
                for y, v in dm.cols.get(in_bits[i1], {}).items():
                    val = val + v * cap[0, 2 * y + in_bits[i2]]
                if val.is_zero():
                    dist = []
                    break
                new = [(c * val, a) for c, a in dist]
            elif s1 == "t" and s2 == "t":
                for y, v in cup.cols.get(0, {}).items():
                    b1, b2 = (y >> 1) & 1, y & 1
                    for z, w in dm.cols.get(b1, {}).items():
                        for c, a in dist:
                            new.append((c * v * w, {**a, i1: z, i2: b2}))
            else:
                bi = i1 if s1 == "b" else i2
                tj = i2 if s2 == "t" else i1
                for y, v in dm.cols.get(in_bits[bi], {}).items():
                    for c, a in dist:
                        new.append((c * v, {**a, tj: y}))
            dist = new
        for c, a in dist:
            y = 0
            for j in range(n_top):
                y = (y << 1) | a[j]
            entries[y, x] = entries.get((y, x), E_RING.zero) + c
    return PolyMatrix(n_top, n_bot, entries)


def assert_stored_canonically(m):
    """No zero entry, no empty column, nonzero Fraction coefficients only."""
    assert all(m.cols.values())
    for _, v in m.entries():
        assert v.terms
        assert all(type(c) is Fraction and c for c in v.terms.values())


ORACLE_SHAPES = [(0, 0), (0, 2), (2, 0), (1, 1), (1, 3), (3, 1), (2, 2),
                 (3, 3), (2, 4), (4, 4), (3, 5)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_matching_matrix_matches_propagation_on_spanning_set(shape):
    nb, nt = shape
    for m, d in dotted_spanning_set(nb, nt):
        got = matching_matrix(m, d, nb, nt)
        assert got == propagated_matching_matrix(m, d, nb, nt)
        assert_stored_canonically(got)


def test_matching_matrix_matches_propagation_with_many_dots():
    rng = random.Random(17)
    shapes = [(0, 2), (2, 0), (1, 1), (2, 2), (3, 1), (1, 3), (4, 2),
              (3, 3), (4, 4)]
    for _ in range(60):
        nb, nt = rng.choice(shapes)
        m = rng.choice(noncrossing_matchings(nb, nt))
        d = tuple(rng.randint(0, 3) for _ in m)
        got = matching_matrix(m, d, nb, nt)
        assert got == propagated_matching_matrix(m, d, nb, nt)
        assert_stored_canonically(got)


def test_matching_matrix_matches_propagation_at_five_strands():
    rng = random.Random(18)
    span = dotted_spanning_set(5, 5)
    for m, d in rng.sample(span, 40):
        got = matching_matrix(m, d, 5, 5)
        assert got == propagated_matching_matrix(m, d, 5, 5)
        assert_stored_canonically(got)


# -- Combo.evaluate against the fold of scaled word matrices ------------------

def folded_evaluate(combo):
    out = PolyMatrix(combo.n_out, combo.n_in)
    for w, c in combo.terms.items():
        out = out + evaluate_word(w).scale(c)
    return out


def _word_pool():
    rng = random.Random(19)
    pool = {(0, 0): [identity_word(0), Word((("cup",), ("cap",))),
                     Word((("cup",), ("dot", "id"), ("dot", "id"),
                           ("cap",)))]}
    for _ in range(300):
        w = random_word(rng, max_strands=3, max_slices=4)
        pool.setdefault((w.n_in, w.n_out), []).append(w)
    return pool


WORD_POOL = _word_pool()
# lhs - rhs of each defining relation: combinations evaluating to zero
RELATION_ZEROS: dict = {}
for _, lhs, rhs in relation_instances(3):
    RELATION_ZEROS.setdefault((lhs.n_in, lhs.n_out), []).append(lhs - rhs)

fractions = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                      st.sampled_from([1, 2, 3, 7, 12]))
coefficients = st.one_of(
    fractions,
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    fractions, min_size=1, max_size=3).map(E_RING.poly),
)


@st.composite
def combos(draw):
    shape = draw(st.sampled_from(sorted(WORD_POOL)))
    pool = WORD_POOL[shape]
    out = Combo.zero(*shape)
    for k in draw(st.lists(st.integers(0, len(pool) - 1), max_size=6)):
        out = out + Combo.of(pool[k], draw(coefficients))
    zeros = RELATION_ZEROS.get(shape)
    if zeros:
        for zero in draw(st.lists(st.sampled_from(zeros), max_size=2)):
            out = out + zero.scale(draw(coefficients))
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(combos())
def test_evaluate_matches_fold(combo):
    got = combo.evaluate()
    want = folded_evaluate(combo)
    assert (got.n_out, got.n_in) == (want.n_out, want.n_in)
    assert dict(got.entries()) == dict(want.entries())
    assert_stored_canonically(got)


@pytest.mark.parametrize("shape", sorted(RELATION_ZEROS))
def test_evaluate_stores_nothing_when_terms_cancel(shape):
    c = E_RING.gen("E1") / 3 - 5
    for zero in RELATION_ZEROS[shape]:
        got = zero.scale(c).evaluate()
        assert (got.n_out, got.n_in) == (shape[1], shape[0])
        assert got.cols == {} and got.is_zero()


def test_evaluate_of_empty_combinations():
    got = Combo.zero(2, 3).evaluate()
    assert (got.n_in, got.n_out, got.cols) == (2, 3, {})
    assert Combo.zero(0, 0).evaluate() == PolyMatrix(0, 0)
    circle = Combo.of(Word((("cup",), ("cap",))), Fraction(1, 2))
    assert circle.evaluate() == PolyMatrix(0, 0, {(0, 0): E_RING.one})


# -- negative controls for criteria 1 and 2 -------------------------------------

def test_sign_flipped_dot_image_fails_the_brackets(monkeypatch):
    """With e(dot) = +id instead of -id in the word action, [e, f] = h fails
    on the dot, and criterion 1 fails."""
    from dottedtl import selftest, words

    real = words._prim_images

    def flipped(g, prim, p):
        images = real(g, prim, p)
        if (g, prim) == ("e", "dot"):
            return [(-c, local) for c, local in images]
        return images

    dot = words.primitive_combo("dot")
    assert selftest._bracket_holds(dot, DtlParams())
    monkeypatch.setattr(words, "_prim_images", flipped)
    assert not selftest._bracket_holds(dot, DtlParams())
    assert selftest.criterion_brackets()["ok"] is False

# -- negative control for criterion 2 ------------------------------------------

def test_doubled_dot_image_fails_relation_preservation(monkeypatch):
    """With f(dot) doubled in the word action, criterion 2 fails, and the
    failing checks are exactly the dot relations under f."""
    from dottedtl import selftest, words

    real = words._prim_images

    def doubled(g, prim, p):
        images = real(g, prim, p)
        if (g, prim) == ("f", "dot"):
            return [(c * 2, local) for c, local in images]
        return images

    monkeypatch.setattr(words, "_prim_images", doubled)
    assert selftest.criterion_relations()["ok"] is False
    for p in selftest.PARAM_SETS:
        rep = words.verify_relations(p, n_max=4)
        failed = {(c["relation"], c["generator"]) for c in rep["checks"]
                  if c["status"] == "fail"}
        dot_relations = {c["relation"] for c in rep["checks"]
                         if c["relation"].startswith(("dot2[", "dotslide["))}
        assert len(dot_relations) == 16
        assert failed == {(r, "f") for r in dot_relations}
