"""Diagram words, the parameterized action, matchings, and the local
relations."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dottedtl import ring, words
from dottedtl.ring import E_RING, GradedPoly, RingError, unpack
from dottedtl.sl2 import BASE_SPEC
from dottedtl.statespace import PRIM_ARITY, PRIM_MATRICES, PolyMatrix
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
from test_statespace import entries

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


def test_relations_reject_width_past_the_bound(monkeypatch):
    """A width past RELATION_WIDTH_BOUND is refused before any relation is
    built."""
    def never(n_max):
        raise AssertionError("relation_instances ran")

    monkeypatch.setattr(words, "relation_instances", never)
    for n_max in (words.RELATION_WIDTH_BOUND + 1, 20):
        with pytest.raises(WordError, match=f"at most 10, got {n_max}$"):
            verify_relations(PARAM_SETS[0], n_max=n_max)


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


def _two_loop_matching_to_word(matching, dots, n_bot, n_top):
    """The earlier matching_to_word, with one arc-peeling loop for the caps
    and a second for the flipped cups; the oracle for its one-helper
    rewrite.  Takes valid input only."""
    bottom, top, through = {}, {}, []
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
    cur = list(range(n_bot))
    pending = dict(bottom)
    while pending:
        for k in range(len(cur) - 1):
            key = (cur[k], cur[k + 1])
            if key in pending:
                for _ in range(pending.pop(key)):
                    slices.append(dot_slice(k, len(cur)))
                slices.append(("id",) * k + ("cap",) +
                              ("id",) * (len(cur) - 2 - k))
                del cur[k:k + 2]
                break
    through.sort()
    for k, (_, _, d) in enumerate(through):
        for _ in range(d):
            slices.append(dot_slice(k, len(through)))
    fcur = list(range(n_top))
    pending = dict(top)
    flipped = []
    while pending:
        for k in range(len(fcur) - 1):
            key = (fcur[k], fcur[k + 1])
            if key in pending:
                d = pending.pop(key)
                flipped.append((k, len(fcur), d))
                del fcur[k:k + 2]
                break
    for k, width, d in reversed(flipped):
        slices.append(("id",) * k + ("cup",) + ("id",) * (width - 2 - k))
        for _ in range(d):
            slices.append(dot_slice(k, width))
    if not slices:
        return identity_word(n_bot)
    return Word(slices)


def test_matching_to_word_equals_the_two_loop_version():
    """The word of every matching up to 5 -> 5, with 0, 1 or 2 dots on
    each arc, is the earlier version's word, slice for slice."""
    count = 0
    for nb in range(6):
        for nt in range(nb % 2, 6, 2):
            for m in noncrossing_matchings(nb, nt):
                for d in itertools.product(range(3), repeat=len(m)):
                    assert matching_to_word(m, d, nb, nt) \
                        == _two_loop_matching_to_word(m, d, nb, nt)
                    count += 1
    assert count > 10_000


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
    for _, v in entries(m):
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
                    fractions, min_size=1, max_size=3).map(
                        lambda t: GradedPoly(E_RING, t)),
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
    assert dict(entries(got)) == dict(entries(want))
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


# -- act against the per-term Leibniz rule ---------------------------------------

def _per_term_replace(w, si, pi, local):
    sl = w.slices[si]
    before, after = sl[:pi], sl[pi + 1:]
    out_before = sum(PRIM_ARITY[p][1] for p in before)
    out_after = sum(PRIM_ARITY[p][1] for p in after)
    expanded = [before + local[0] + after]
    for ls in local[1:]:
        expanded.append(("id",) * out_before + ls + ("id",) * out_after)
    return Word(w.slices[:si] + tuple(expanded) + w.slices[si + 1:])


def terms_of(x: Combo) -> dict:
    """x's {word: GradedPoly} terms, read without making them its storage."""
    den, table = x._packed()
    return {w: unpack(t, den) for w, t in table.items()}


def _accumulate(out: dict, w, c) -> None:
    s = out.get(w, E_RING.zero) + c
    if s.is_zero():
        out.pop(w, None)
    else:
        out[w] = s


def per_term_act(g, x, params):
    """The earlier act: one GradedPoly sum per contribution, and every
    image word validated from scratch by Word; the oracle of act.  Returns
    {word: GradedPoly}."""
    out: dict = {}
    for w, coeff in terms_of(x).items():
        _accumulate(out, w, BASE_SPEC.apply(g, coeff))
        for si, sl in enumerate(w.slices):
            for pi, prim in enumerate(sl):
                for c, local in words._prim_images(g, prim, params):
                    _accumulate(out, _per_term_replace(w, si, pi, local),
                                coeff * c)
    return out


def _random_coefficient(rng):
    """A nonzero polynomial with rational, mostly non-constant terms."""
    return GradedPoly(E_RING, {
        (rng.randint(0, 2), rng.randint(0, 2)):
            Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4]))
        for _ in range(rng.randint(1, 3))})


def _random_combos(seed, count):
    rng = random.Random(seed)
    shapes = [s for s in sorted(WORD_POOL) if len(WORD_POOL[s]) > 1]
    out = []
    for _ in range(count):
        pool = WORD_POOL[rng.choice(shapes)]
        x = Combo.zero(pool[0].n_in, pool[0].n_out)
        for w in rng.sample(pool, min(len(pool), rng.randint(1, 5))):
            x._add(w, _random_coefficient(rng))
        out.append(x)
    return out


# odd denominators (3·7, 9·5) for the image table's common denominator
@pytest.mark.parametrize("p", PARAM_SETS + [
    DtlParams(Fraction(1, 3), Fraction(-5, 7)),
    DtlParams(Fraction(-2, 9), Fraction(3, 5))], ids=str)
def test_act_equals_the_per_term_rule(p):
    combos = _random_combos(23, 40)
    assert sum(not v.is_constant()
               for c in combos for v in terms_of(c).values()) > 40
    for x in combos:
        for g in ("e", "f", "h"):
            got, want = act(g, x, p), per_term_act(g, x, p)
            assert (got.n_in, got.n_out) == (x.n_in, x.n_out)
            assert_canonical(got)
            assert got.terms == want
            assert all(c.terms for c in got.terms.values())


def test_act_images_cancelling_to_nothing():
    """e(dot) = -id and e(-E1/2) = 1, so e(dot - E1/2 * id) has no terms;
    so have the h-images of relation zeros scaled by E1."""
    x = primitive_combo("dot") - Combo.of(identity_word(1)).scale(
        E_RING.gen("E1") / 2)
    for p in PARAM_SETS:
        got = act("e", x, p)
        assert got.terms == {} and got.is_empty()
        assert (got.n_in, got.n_out) == (1, 1)
        assert per_term_act("e", x, p) == {}


# -- the splice: image words without re-validation -------------------------------

def test_spliced_image_words_equal_validated_words():
    """_splice, given the image table's strand counts, builds the same word
    as validating the spliced slices from scratch."""
    rng = random.Random(29)
    checked = 0
    for _ in range(80):
        w = random_word(rng, max_strands=4, max_slices=4)
        for p in PARAM_SETS:
            for g in ("e", "f", "h"):
                _, table = words._image_table(g, p, words._prim_images)
                for si, sl in enumerate(w.slices):
                    for pi, prim in enumerate(sl):
                        for _, local, counts in table.get(prim, ()):
                            if local is None:
                                continue
                            got = words._splice(w, si, pi, local, counts)
                            want = Word(got.slices)
                            assert got.slices == want.slices
                            assert got.counts == want.counts
                            assert hash(got) == hash(want) and got == want
                            assert got.slices == _per_term_replace(
                                w, si, pi, local).slices
                            checked += 1
    assert checked > 1000


def test_stacked_words_equal_validated_words():
    for x, y in [(primitive_combo("cap", 0, 3), primitive_combo("cup", 1, 1)),
                 (zn_combo(2), Combo.of(Word((("cap",), ("cup",)))))]:
        for w in x.then(y).terms:
            want = Word(w.slices)
            assert (w.slices, w.counts, hash(w)) == \
                (want.slices, want.counts, hash(want))


@pytest.mark.parametrize("prim,bad", [
    ("cup", (("cup",), ("cap",))),   # ends on 0 strands, a cup has 2
    ("dot", (("dot",), ("cup",))),   # second slice takes 0 of 1 strands
    ("dot", (("cap",),)),            # takes 2 strands, a dot has 1
    ("cap", (("frob",),)),           # unknown primitive
])
def test_wrong_arity_image_raises(monkeypatch, prim, bad):
    """Negative control of the splice: an image slice list that does not
    fit the primitive it replaces raises WordError from act."""
    real = words._prim_images

    def wrong(g, q, p):
        if (g, q) == ("f", prim):
            return [(E_RING.one, bad)]
        return real(g, q, p)

    x = Combo.of(Word((("cup",), ("dot", "id"), ("cap",))))
    act("f", x, PARAM_SETS[3])
    monkeypatch.setattr(words, "_prim_images", wrong)
    with pytest.raises(WordError):
        act("f", x, PARAM_SETS[3])


# -- operation counts --------------------------------------------------------------

def test_act_builds_one_coefficient_per_output_word(monkeypatch):
    """Operation-count gate: act builds no GradedPoly outside _prim_images
    (its output stays packed), reading the output's terms builds exactly
    one per output word, and act calls the packed derivation
    sl2.derive_packed once per input word with a non-constant coefficient:
    the derivation of a constant is zero, and the constant word's images
    still reach the output."""
    E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
    x = Combo.zero(2, 2)
    for slices, c in [((("dot", "id"), ("cap",), ("cup",)), E1),
                      ((("id", "dot"), ("dot", "id")), E2 - Fraction(1, 2)),
                      ((("dot", "id"), ("id", "id")), Fraction(3, 2) * E1 * E2),
                      ((("cap",), ("cup",), ("dot", "dot")), E1 + 7),
                      ((("id", "id"), ("dot", "id")), E1 * E1),
                      ((("dot", "dot"),), E_RING.const(Fraction(-5, 3)))]:
        x._add(Word(slices), c)
    view = terms_of(x)
    varying = [w for w, c in view.items() if not c.is_constant()]
    assert len(varying) == len(view) - 1
    inside = [0]
    counts = {"built": 0, "derive": 0}
    real_init = GradedPoly.__init__
    real_images, real_derive = words._prim_images, words.derive_packed

    def counting_init(self, *args, **kwargs):
        if not inside[0]:
            counts["built"] += 1
        real_init(self, *args, **kwargs)

    def shielded(fn, key=None):
        def wrapper(*args):
            inside[0] += 1
            if key:
                counts[key] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1
        return wrapper

    monkeypatch.setattr(words, "_prim_images", shielded(real_images))
    monkeypatch.setattr(words, "derive_packed",
                        shielded(real_derive, "derive"))
    merged = 0
    for p in PARAM_SETS[1:]:
        for g in ("e", "f", "h"):
            want = per_term_act(g, x, p)
            counts.update(built=0, derive=0)
            monkeypatch.setattr(GradedPoly, "__init__", counting_init)
            got = act(g, x, p)
            assert counts == {"built": 0, "derive": len(varying)}
            got_terms = got.terms
            assert counts["built"] == len(got_terms) > 0
            monkeypatch.setattr(GradedPoly, "__init__", real_init)
            assert got_terms == want
            merged += len(view) + sum(len(real_images(g, prim, p))
                                      for w in view for sl in w.slices
                                      for prim in sl) - len(got_terms)
    assert merged > 0  # some output words have several contributions


def test_act_reads_each_image_table_once_and_splices_only_new_words(
        monkeypatch):
    """Operation-count gate: repeated act calls at one (g, params) read
    _prim_images 3 times in all (dot, cup and cap, once per process), and
    _splice runs once per occurrence whose image is not the primitive
    itself, so no h image splices a word."""
    calls = {"images": 0, "splice": 0}
    real_images, real_splice = words._prim_images, words._splice

    def images(g, prim, p):
        calls["images"] += 1
        return real_images(g, prim, p)

    def splice(*args):
        calls["splice"] += 1
        return real_splice(*args)

    monkeypatch.setattr(words, "_prim_images", images)
    monkeypatch.setattr(words, "_splice", splice)
    p = DtlParams(Fraction(2, 3), Fraction(-1, 5))
    combos = _random_combos(37, 20)
    for g in ("e", "f", "h"):
        calls.update(images=0, splice=0)
        want = 0
        for x in combos:
            act(g, x, p)
            want += sum(local != ((prim,),)
                        for w in x.terms for sl in w.slices for prim in sl
                        for _, local in real_images(g, prim, p))
        assert calls == {"images": 3, "splice": want}
        assert (want == 0) == (g == "h")
    assert act("h", combos[0], p).terms


def test_params_are_stored_as_fractions():
    """DtlParams(1, 0) and DtlParams(Fraction(1), 0) are one parameter pair:
    equal, equally hashed, and one image table between them."""
    a, b = DtlParams(1, 0), DtlParams(Fraction(1), 0)
    assert type(a.a1) is type(a.a2) is Fraction
    assert a == b and hash(a) == hash(b)
    assert DtlParams(Fraction(1, 2), 0) != DtlParams(Fraction(1, 3), 0)
    words._image_table.cache_clear()
    x = primitive_combo("cup")
    assert act("f", x, a).terms == act("f", x, b).terms
    assert words._image_table.cache_info().currsize == 1


def test_combos_are_summed_in_one_pass(monkeypatch):
    """Operation-count gate: combo_from_matrix and zn_combo make one
    Combo._add per term (a running out = out + ... makes a quadratic
    number)."""
    from dottedtl import expr

    adds = [0]
    real_add = Combo._add

    def counted(self, w, c):
        adds[0] += 1
        return real_add(self, w, c)

    mat = expr.parse_expr("jw(3)").evaluate()
    monkeypatch.setattr(Combo, "_add", counted)
    combo = expr.combo_from_matrix(mat, 3, 3)
    assert len(combo.terms) > 2 and adds[0] == len(combo.terms)
    for n in range(7):
        adds[0] = 0
        assert len(zn_combo(n).terms) == n == adds[0]


def test_bracket_check_acts_once_per_generator_on_its_input(monkeypatch):
    """Operation-count gate: _bracket_holds applies e, f and h to its input
    once each and each of the six second steps once: 9 act calls, not the
    15 of applying every bracket's terms afresh."""
    from dottedtl import selftest

    calls = []
    real = selftest.act

    def counted(g, x, p):
        calls.append(g)
        return real(g, x, p)

    monkeypatch.setattr(selftest, "act", counted)
    assert selftest._bracket_holds(primitive_combo("cup"), PARAM_SETS[3])
    assert len(calls) == 9 and sorted(calls) == ["e"] * 3 + ["f"] * 3 + ["h"] * 3


# -- the packed Combo against the GradedPoly combination operations -------------

def assert_canonical(x: Combo):
    """x is stored as a table over den with no zero numerator or empty
    entry, and gcd(den, every numerator) = 1."""
    assert x._terms is None
    den, table = x._packed()
    assert den > 0 and all(t and all(t.values()) for t in table.values())
    assert math.gcd(den, *(c for t in table.values() for c in t.values())) == 1


def oracle_sum(x: dict, y: dict, sign=1) -> dict:
    """The earlier Combo + and -, on {word: GradedPoly}."""
    out = dict(x)
    for w, c in y.items():
        _accumulate(out, w, c * sign)
    return out


def oracle_scale(x: dict, c) -> dict:
    c = E_RING.coerce(c)
    return {} if c.is_zero() else {w: v * c for w, v in x.items()}


def oracle_product(x: dict, y: dict, join) -> dict:
    """The earlier then and tensor: one sum per pair of terms."""
    out: dict = {}
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            _accumulate(out, join(w1, w2), c1 * c2)
    return out


def _stacked(w1, w2):
    return Word(w1.slices + w2.slices)


def _combo_of_shape(rng, n_in, n_out):
    pool = WORD_POOL[(n_in, n_out)]
    x = Combo.zero(n_in, n_out)
    for w in rng.sample(pool, min(len(pool), rng.randint(1, 4))):
        x._add(w, _random_coefficient(rng))
    return x


def test_packed_kernels_equal_the_graded_poly_operations():
    """+, -, negation, scale, then and tensor on 40 seeded combinations with
    non-constant rational coefficients equal the GradedPoly operations term
    for term, every result stored canonically; the cases include results
    that cancel to nothing and results whose content divides out."""
    rng = random.Random(47)
    combos = _random_combos(47, 40)
    cases = 0
    for x in combos:
        y = _combo_of_shape(rng, x.n_in, x.n_out)
        outs = [s for s in sorted(WORD_POOL) if s[0] == x.n_out]
        z = _combo_of_shape(rng, *rng.choice(outs))
        c = _random_coefficient(rng)
        tx, ty, tz = terms_of(x), terms_of(y), terms_of(z)
        for got, want in [
                (x + y, oracle_sum(tx, ty)), (x - y, oracle_sum(tx, ty, -1)),
                (-x, oracle_scale(tx, -1)), (x - x, {}), (x + -x, {}),
                (x.scale(c), oracle_scale(tx, c)),
                (x.scale(Fraction(-3, 4)), oracle_scale(tx, Fraction(-3, 4))),
                (x.scale(0), {}), (x.then(z), oracle_product(tx, tz, _stacked)),
                (x.tensor(y), oracle_product(tx, ty, words._tensor_words))]:
            assert_canonical(got)
            assert terms_of(got) == want
            cases += 1
    assert cases == 400
    # content that divides out: E1/6 + 1/2 and E1/6 - 1/2 sum to E1/3
    dot = Word((("dot",),))
    e1 = E_RING.gen("E1")
    a, b = Combo.of(dot, e1 / 6 + Fraction(1, 2)), Combo.of(dot, e1 / 6 - Fraction(1, 2))
    assert a._packed()[0] == b._packed()[0] == 6
    total = a + b
    assert_canonical(total)
    e1_key = ring.pack_key(1, 0)
    assert total._packed() == (3, {dot: {e1_key: 1}})
    assert a.scale(6)._packed() == (1, {dot: {e1_key: 1, 0: 3}})
    assert a.scale(Fraction(1, 3))._packed() == (18, {dot: {e1_key: 1, 0: 3}})


def test_equal_combinations_are_equal_structurally():
    """Combinations are equal exactly when their canonical tables are, so
    == needs no evaluation: built in two ways, x equals itself; a changed
    coefficient or shape makes it unequal."""
    for x in _random_combos(59, 10):
        again = Combo(terms_of(x), x.n_in, x.n_out)
        assert again == x and (x + x) == x.scale(2) and x.scale(2) != x
        assert Combo.zero(x.n_in, x.n_out) != Combo.zero(x.n_in + 1, x.n_out)


def test_terms_writes_are_honoured():
    """terms is the writable view, as perfbench's gate uses it: a flipped
    coefficient written into it is what every kernel then reads."""
    x = act("f", primitive_combo("cup"), PARAM_SETS[3])
    w, c = next(iter(terms_of(x).items()))
    flipped = Combo(terms_of(x), x.n_in, x.n_out)
    assert flipped == x
    flipped.terms[w] = -c
    assert flipped != x and flipped.evaluate() != x.evaluate()
    assert flipped - x == Combo.of(w, -2 * c)
    del flipped.terms[w]
    assert flipped + Combo.of(w, c) == x
    assert flipped.evaluate() + evaluate_word(w).scale(c) == x.evaluate()


BRACKETS = [("h", "e", 2, "e"), ("h", "f", -2, "f"), ("e", "f", 1, "h")]


def test_bracket_pattern_builds_no_graded_poly_or_fraction():
    """Operation-count gate: the bracket pattern of the diagrams benchmark,
    at every parameter pair, builds no GradedPoly and no Fraction inside
    act, combination arithmetic or evaluate once the image tables and word
    matrices are cached.  Reading terms does build them (the control)."""
    samples = [primitive_combo(p) for p in ("id", "dot", "cup", "cap")]
    samples += _random_combos(61, 8)

    def pattern():
        for p in PARAM_SETS:
            for x in samples:
                for g1, g2, c, gout in BRACKETS:
                    lhs = act(g1, act(g2, x, p), p) - act(g2, act(g1, x, p), p)
                    rhs = act(gout, x, p).scale(c)
                    assert lhs.evaluate() == rhs.evaluate()

    pattern()
    counts = {"GradedPoly": 0, "Fraction": 0}
    real_init, real_new = GradedPoly.__init__, Fraction.__dict__["__new__"]

    def init(self, *args):
        counts["GradedPoly"] += 1
        real_init(self, *args)

    def new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return real_new.__func__(cls, *args, **kwargs)

    GradedPoly.__init__, Fraction.__new__ = init, staticmethod(new)
    try:
        pattern()
        quiet = dict(counts)
        assert act("f", samples[-1], PARAM_SETS[3]).terms
    finally:
        GradedPoly.__init__, Fraction.__new__ = real_init, real_new
    assert quiet == {"GradedPoly": 0, "Fraction": 0}
    assert counts["GradedPoly"] > 0 and counts["Fraction"] > 0


def test_chained_kernels_never_carry_an_exponent():
    """then, tensor, scale and act refuse a result exponent of 2^31 or more,
    as ring.pack does, so chaining them never carries E2's exponent into
    E1's; just below the limit the exponents add exactly."""
    top = 2 ** 31 - 1
    dot = Word((("dot",),))
    big = Combo.of(dot, E_RING.gen("E2", top))
    for make in (lambda: big.then(big), lambda: big.tensor(big),
                 lambda: big.scale(E_RING.gen("E2", top)),
                 lambda: big.then(big).then(big),
                 lambda: act("f", Combo.of(dot, E_RING.gen("E1", top)),
                             PARAM_SETS[0])):
        with pytest.raises(RingError, match="too large to pack: "):
            make()
    half = Combo.of(dot, E_RING.gen("E2", 2 ** 30 - 1))
    assert terms_of(half.then(half)) == {
        Word((("dot",), ("dot",))): E_RING.gen("E2", 2 ** 31 - 2)}
    assert terms_of(half.scale(E_RING.gen("E2", 2 ** 30))) == {
        dot: E_RING.gen("E2", top)}
    image = terms_of(act("f", big, PARAM_SETS[0]))
    assert {e for c in image.values() for e in c.terms} == {(1, top), (0, top)}
    assert image[dot] == top * E_RING.gen("E1") * E_RING.gen("E2", top)


def test_evaluation_is_monoidal():
    """evaluate(ambient(X, l, r)) = id_l (x) evaluate(X) (x) id_r, the fact
    that lets verify_relations evaluate each relation at its own width."""
    for x in _random_combos(53, 12) + [zn_combo(2)]:
        for left, right in ((0, 1), (1, 0), (2, 1), (1, 2)):
            want = PolyMatrix.identity(left).tensor(x.evaluate()).tensor(
                PolyMatrix.identity(right))
            assert words.ambient(x, left, right).evaluate() == want


def _width(name: str) -> int:
    inner = name[name.index("[") + 1:-1] if "[" in name else "0"
    return sum(map(int, inner.split("+")))


def test_act_wrong_on_wide_words_fails_the_padded_rows(monkeypatch):
    """Negative control for the padded rows: an act that drops one term
    only from images of words wider than 2 strands leaves every relation on
    its own width passing, and fails padded rows (which verify_relations
    decides without evaluating them)."""
    real = words.act

    def dropping(g, x, params=DtlParams()):
        out = real(g, x, params)
        den, table = out._packed()
        wide = [w for w in table if max(w.counts) > 2]
        if wide:
            table = {w: t for w, t in table.items() if w != wide[0]}
        return Combo._of_packed(out.n_in, out.n_out, den, table)

    monkeypatch.setattr(words, "act", dropping)
    for p in PARAM_SETS:
        rep = verify_relations(p, n_max=4)
        failed = [(c["relation"], c["generator"]) for c in rep["checks"]
                  if c["status"] == "fail"]
        assert not rep["ok"] and failed
        assert all(_width(name) > 2 and g for name, g in failed)
        assert all(c["status"] == "pass" for c in rep["checks"]
                   if _width(c["relation"]) <= 2)
