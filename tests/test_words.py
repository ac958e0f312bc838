"""Diagram words, the parameterized action, matchings, and the local
relations."""

import random
from fractions import Fraction

import pytest

from dottedtl.ring import E_RING
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
