"""Expression DSL: parsing, printing, macros, normalization."""

import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dottedtl import exactla, expr, projectors, ring, statespace, words
from dottedtl.expr import (
    ExprError,
    _jw_combo,
    _macro_bound,
    normalize_combo,
    normalize_matrix,
    normalized_string,
    parse_expr,
    print_combo,
    roundtrip_equal,
)
from dottedtl.ring import E_RING, GradedPoly
from dottedtl.statespace import PolyMatrix
from dottedtl.words import (
    Combo,
    DtlParams,
    Word,
    identity_word,
    random_word,
    zn_combo,
)
from test_statespace import entries


def _same(a: Combo, b: Combo) -> bool:
    return (a - b).evaluate().is_zero()


@pytest.fixture(autouse=True)
def fresh_degree_systems():
    """Each test builds its normal-form systems and rewriting tables afresh
    and leaves none behind: a test that counts or patches
    words.matching_matrix would otherwise see systems another test built,
    and no call at all, and one that patches a rewriting rule would leave
    its tables to the next."""
    caches = (expr._degree_system, expr._outward)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_basic_parses():
    assert parse_expr("cap ; cup").evaluate().n_in == 2
    circle = parse_expr("cup ; cap")
    assert circle.evaluate() == parse_expr("2").evaluate()
    assert _same(parse_expr("(id|id) - 1/2*(cap ; cup)"), parse_expr("jw(2)"))


def test_dot_relation():
    assert _same(parse_expr("dot ; dot"), parse_expr("E1*dot - E2*id"))


def test_precedence_and_unary_minus():
    assert _same(parse_expr("-dot + dot"), Combo(n_in=1, n_out=1))
    assert _same(parse_expr("2*3*id"), parse_expr("6*id"))
    assert _same(parse_expr("E1^2*id - E1*E1*id"), Combo(n_in=1, n_out=1))
    assert _same(parse_expr("dot / 2"), parse_expr("1/2 * dot"))


def test_crossing_involution():
    assert _same(parse_expr("s(1,2) ; s(1,2)"), parse_expr("id|id"))


def test_macros_match_projector_module():
    p0 = DtlParams(Fraction(0), Fraction(0))
    assert parse_expr("jw(3)").evaluate() == projectors.jw(3)
    assert parse_expr("z(3)").evaluate() == zn_combo(3).evaluate()
    assert parse_expr("u(2)").evaluate() == projectors.un(2, p0).mat
    assert parse_expr("d(3)").evaluate() == projectors.dn(3, p0).mat


def test_macro_argument_bounds():
    """jw(n), u(n) and d(n) are accepted when their 2n, 2n + 2 and 2n - 2
    boundary points fit NORMALIZE_STRAND_BOUND, z(n) and s(i, n) for
    n <= JW_TRACKED_BOUND; past that the bound error is raised."""
    bounds = {"jw": 5, "u": 4, "d": 6, "z": 8, "s": 8}
    for name, bound in bounds.items():
        for n in range(11):
            text = f"s(1,{n})" if name == "s" else f"{name}({n})"
            if name == "s":
                bound_error = f"macro argument too large: s(..., {n}) > 8"
            else:
                bound_error = f"macro argument out of range: {name}({n})"
            try:
                parse_expr(text)
                error = None
            except ExprError as exc:
                error = str(exc)
            if n > bound:
                assert error == f"{bound_error} (at position 0)", text
            else:
                assert error is None or bound_error not in error, text


def test_large_powers_are_built_directly_and_never_wrap():
    """E1^k and E2^k are one monomial each, not k products, and an
    exponent past the packed format raises instead of carrying into the
    other generator (E2^(2^32) once normalised to E1).  A combination
    packs its coefficients when it is built, so the error comes from
    building it, before normalize_combo is reached."""
    assert parse_expr("E1^2000000 * E2^7").evaluate() == PolyMatrix(
        0, 0, {(0, 0): E_RING.gen("E1", 2_000_000) * E_RING.gen("E2", 7)})
    for build in (lambda: parse_expr("E2^4294967296 * id"),
                  lambda: Combo.of(identity_word(1),
                                   E_RING.gen("E2", 2 ** 32))):
        with pytest.raises(ring.RingError, match="too large to pack"):
            normalize_combo(build())


def test_error_positions():
    with pytest.raises(ExprError) as exc:
        parse_expr("dot ;; id")
    assert exc.value.pos == 5
    with pytest.raises(ExprError):
        parse_expr("cap | ")
    with pytest.raises(ExprError):
        parse_expr("jw(99)")
    with pytest.raises(ExprError):
        parse_expr("dot / 0")
    with pytest.raises(ExprError):
        parse_expr("dot * cap")
    with pytest.raises(ExprError):
        parse_expr("cup ; cup")


def test_shape_mismatch_in_sum():
    with pytest.raises(ExprError):
        parse_expr("dot + cap")


def test_normalize_examples():
    assert normalized_string(parse_expr("dot ; dot")) \
        == "(E1)*(dot) + (-E2)*(id)"
    terms = normalize_matrix(parse_expr("dot ; dot").evaluate(), 1, 1)
    assert len(terms) == 2
    assert normalized_string(parse_expr("cup ; cap")) == "(2)"


def test_normalize_preserves_evaluation():
    rng = random.Random(21)
    for _ in range(30):
        c = Combo.of(random_word(rng, max_strands=3))
        assert _same(normalize_combo(c), c)


# sha256 of `eval-expr EXPR --json` stdout; the normal forms these pin are
# over the outer-dot basis, the unique solutions of its degree systems
PINNED_EVAL_SHA256 = {
    "jw(4) ; z(4)":
        "64ffe579f2401f02aff7362804698d7da4f7416122b9b371d9cc59c609766c35",
    "u(3)":
        "240eda95dd04316c82b3fb3f2c1819e2c006d404b2a193a25fe779626391e51b",
}


@pytest.mark.parametrize("text", sorted(PINNED_EVAL_SHA256))
def test_normalized_reports_are_pinned(text):
    for hashseed in ("0", "4242"):
        res = subprocess.run(
            [sys.executable, "-m", "dottedtl.cli", "eval-expr", text,
             "--json"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": hashseed},
        )
        assert res.returncode == 0, res.stderr
        digest = hashlib.sha256(res.stdout.encode()).hexdigest()
        assert digest == PINNED_EVAL_SHA256[text], hashseed


# sha256 of normalized_string(parse_expr(TEXT)) for every accepted u(n) and
# d(n); the same at PYTHONHASHSEED 0 and 4242
PINNED_MACRO_SHA256 = {
    "u(0)": "af10e06b2fd40cea601eeef164c82b6aa69079d3b11801bf4d102149eae83677",
    "u(1)": "c9b135bb53b3302444c944ea6b24bf9cdff4d2dd7f67332d39b50c34bc920420",
    "u(2)": "e8643d5e1f72388780431f245464390e3089c3c011cdd79762d3341265f9c9b0",
    "u(3)": "55693b6f7352287bd206645dca02d9bef7163edbe7206c36e39633e31a8bd390",
    "d(2)": "d6828dad36b0bb45e1295ba1934656135610c00af6c8a79cca11f23a2a844e03",
    "d(3)": "fa14813ce1a8988e696fec644297b47d0bc0073fc8c4268ffc47a958e062232b",
    "d(4)": "33582c16114192683579bfa31d5c04f6967ccd79ab4f8c9e69cbafe29ecf89ab",
    "d(5)": "b7289c808d394a7ae457d6e4ccfca2a53af29f15ed27831c31981aa80fb0cb22",
}


@pytest.mark.parametrize("text", sorted(PINNED_MACRO_SHA256))
def test_macro_normal_forms_are_pinned(text):
    got = normalized_string(parse_expr(text)).encode()
    assert hashlib.sha256(got).hexdigest() == PINNED_MACRO_SHA256[text]


def _sandwich(n: int, n_mid: int, mid_word: Word, n_out: int) -> Combo:
    """The word-level sandwich p_n ; (id^n_mid | mid_word) ; p_n_out."""
    mid = Combo.of(identity_word(n_mid)).tensor(Combo.of(mid_word))
    return _jw_combo(n).then(mid).then(_jw_combo(n_out))


def test_u_and_d_macros_equal_the_projector_sandwiches():
    """Oracle for the u(n) and d(n) macros at every accepted n: the
    sandwiches p_{n+2} (id^n | dotted cup) p_n and
    n(n-1) p_{n-2} (id^(n-2) | dotted cap) p_n, as matrix products, and as
    words while both projectors are jw macros."""
    cup = Word((("cup",), ("dot", "id")))
    cap = Word((("dot", "id"), ("cap",)))
    jw_bound = _macro_bound("jw")
    for n in range(_macro_bound("u") + 1):
        got = parse_expr(f"u({n})")
        mid = PolyMatrix.identity(n).tensor(words.evaluate_word(cup))
        assert got.evaluate() \
            == projectors.jw(n + 2) * mid * projectors.jw(n), n
        if n + 2 <= jw_bound:
            assert _same(got, _sandwich(n, n, cup, n + 2)), n
    for n in range(2, _macro_bound("d") + 1):
        got = parse_expr(f"d({n})")
        mid = PolyMatrix.identity(n - 2).tensor(words.evaluate_word(cap))
        assert got.evaluate() == (projectors.jw(n - 2) * mid
                                  * projectors.jw(n)).scale(n * (n - 1)), n
        if n <= jw_bound:
            want = _sandwich(n, n - 2, cap, n - 2)
            assert _same(got, want.scale(Fraction(n * (n - 1)))), n


def test_normalize_outside_span_fails():
    # the state-space matrix with a single 1 at (0, 0) is no combination
    # of the one-strand diagrams id and dot
    mat = PolyMatrix(1, 1, {(0, 0): E_RING.const(1)})
    with pytest.raises(ExprError, match="outside the diagram span"):
        normalize_matrix(mat, 1, 1)
    # the single entry A0 -> A1 has structural degree -2, where no
    # spanning-set element has an unknown, so its key is in no system row
    mat = PolyMatrix(1, 1, {(0, 1): E_RING.const(1)})
    with pytest.raises(ExprError, match="outside the diagram span"):
        normalize_matrix(mat, 1, 1)


def test_normalize_bound_is_checked_before_evaluation(monkeypatch):
    """An over-bound combination fails on its shape alone: evaluating a
    24-strand identity would build a 2^24-state matrix first."""
    def no_evaluation(self):
        raise AssertionError("evaluated before the bound check")

    monkeypatch.setattr(Combo, "evaluate", no_evaluation)
    with pytest.raises(ExprError, match="normalization bound exceeded: 11"):
        normalize_combo(Combo.of(identity_word(11)))


def test_normalize_scalars():
    c = parse_expr("E1*E2 - 3")
    got = print_combo(normalize_combo(c))
    assert got == "(-3 + E1*E2)"


def test_roundtrips_seeded():
    rng = random.Random(22)
    assert all(
        roundtrip_equal(Combo.of(random_word(rng))) for _ in range(200)
    )


def test_print_parse_agreement():
    for text in ["jw(2)", "z(2)", "dot|cup", "cap ; cup ; dot|id"]:
        c = parse_expr(text)
        assert _same(parse_expr(print_combo(c)), c)


def test_sign_flipping_parser_fails_utilities_roundtrips(monkeypatch):
    """Negative control for criterion 13: a parser that negates what it
    reads breaks the print/parse round-trips, and the criterion fails."""
    from dottedtl import expr, selftest

    real = expr.parse_expr
    monkeypatch.setattr(expr, "parse_expr", lambda text: -real(text))
    assert not roundtrip_equal(parse_expr("dot|cup"))
    assert selftest.criterion_utilities(selftest.DEFAULT_SEED)["ok"] is False


def test_normal_forms_run_on_integer_kernels(monkeypatch):
    """Operation-count gate on the README eval-expr inputs: normalising
    them (projector combinations rebuilt too) makes no GradedPoly product
    inside words.matching_matrix and no Combo.evaluate, as the rewriting
    builds no matrix; evaluating them makes no PolyMatrix sum or scale
    inside Combo.evaluate."""
    from dottedtl import expr, words
    from dottedtl.ring import GradedPoly

    running = []
    counts = {}

    def tally(key):
        counts[key] = counts.get(key, 0) + 1

    def entered(name, fn):
        def wrapped(*args, **kwargs):
            tally(name)
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()
        return wrapped

    def counted(inside, name, fn):
        def wrapped(*args, **kwargs):
            if inside in running:
                tally(f"{name} in {inside}")
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(words, "matching_matrix",
                        entered("matching_matrix", words.matching_matrix))
    monkeypatch.setattr(Combo, "evaluate", entered("evaluate", Combo.evaluate))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(GradedPoly, name, counted(
            "matching_matrix", f"GradedPoly.{name}", getattr(GradedPoly, name)))
    for name in ("__add__", "scale"):
        monkeypatch.setattr(PolyMatrix, name, counted(
            "evaluate", f"PolyMatrix.{name}", getattr(PolyMatrix, name)))
    for text in ("jw(4) ; z(4)", "u(3)"):
        combo = parse_expr(text)
        evaluated = counts.get("evaluate", 0)
        expr.normalize_combo(combo)
        assert counts.get("evaluate", 0) == evaluated, text
        combo.evaluate()
    assert counts.pop("matching_matrix") > 0
    assert counts.pop("evaluate") > 0
    assert counts == {}


# -- rewriting, the cached basis-row solve and the full per-call solve -------

def _outer_dot_span(n_in: int, n_out: int) -> list:
    """The spanning-set elements whose dotted arcs nest in no other arc in
    the circular order (bottom left to right, then top right to left),
    found without expr."""
    n = n_in + n_out
    out = []
    for m, d in words.dotted_spanning_set(n_in, n_out):
        arcs = [sorted(i if side == "b" else n - 1 - i for side, i in arc)
                for arc in m]
        if not any(k and any(u < x and y < v for u, v in arcs)
                   for (x, y), k in zip(arcs, d)):
            out.append((m, d))
    return out


def _full_solve_normal_form(mat, n_in: int, n_out: int):
    """Oracle for normalize_matrix: each call evaluates the outer-dot
    spanning-set matrices, builds the whole system of each structural
    degree from them and the target, and eliminates it augmented, on all
    of its rows at once (exactla.rref, not exactla.solve's row-basis
    route).  Returns the same [(coefficient, matching, dots)]."""
    span = _outer_dot_span(n_in, n_out)
    mat_cache: dict = {}

    def span_matrix(i):
        if i not in mat_cache:
            m, d = span[i]
            mat_cache[i] = words.matching_matrix(m, d, n_in, n_out)
        return mat_cache[i]

    targets: dict = {}
    for cell, poly in entries(mat):
        for exp, c in poly.terms.items():
            deg = (poly.monomial_degree(exp)
                   + statespace.basis_qdegree(cell[0], n_out)
                   - statespace.basis_qdegree(cell[1], n_in))
            targets.setdefault(deg, {})[(cell, exp)] = c
    coeffs: dict = {}
    for deg, rhs_map in sorted(targets.items()):
        unknowns = []
        rowmap: dict = {}
        for i, (m, d) in enumerate(span):
            rem = deg - 2 * sum(d)
            if rem < 0 or rem % 2:
                continue
            for b in range(rem // 4 + 1):
                mu = ((rem - 4 * b) // 2, b)
                for cell, poly in entries(span_matrix(i)):
                    for exp, c in poly.terms.items():
                        k = (cell, (exp[0] + mu[0], exp[1] + mu[1]))
                        rowmap.setdefault(k, {})[len(unknowns)] = c
                unknowns.append((i, mu))
        if not unknowns:
            raise ExprError("evaluation is outside the diagram span")
        n = len(unknowns)
        rows = []
        for k in list(rowmap) + [k for k in rhs_map if k not in rowmap]:
            row = dict(rowmap.get(k, {}))
            if k in rhs_map:
                row[n] = rhs_map[k]
            den = math.lcm(*(v.denominator for v in row.values()))
            rows.append({j: int(v * den) for j, v in row.items()})
        echelon = exactla.rref(rows)
        if n in echelon:
            raise ExprError("evaluation is outside the diagram span")
        for pc, row in echelon.items():
            if n in row:
                i, mu = unknowns[pc]
                coeffs.setdefault(i, {})[mu] = Fraction(row[n], row[pc])
    return [(GradedPoly(E_RING, terms), span[i][0], span[i][1])
            for i, terms in sorted(coeffs.items())]


def rewritten(combo: Combo) -> list:
    """expr.rewrite_combo's normal form with GradedPoly coefficients, as
    normalize_matrix gives it."""
    den, terms = expr.rewrite_combo(combo)
    return [(ring.unpack(t, den), m, d) for t, m, d in terms]


def _assert_normal_form_matches_oracle(combo: Combo, label):
    """Rewriting, the cached basis-row solve and the full solve give the
    same normal form, term for term and in the same order."""
    n_in, n_out = combo.n_in, combo.n_out
    mat = combo.evaluate()
    got = normalize_matrix(mat, n_in, n_out)
    want = _full_solve_normal_form(mat, n_in, n_out)
    by_rules = rewritten(combo)
    assert [(str(p), m, d) for p, m, d in got] \
        == [(str(p), m, d) for p, m, d in want] \
        == [(str(p), m, d) for p, m, d in by_rules], label
    assert got == want == by_rules, label


def _random_shaped_word(rng, n_in: int, n_out: int) -> Word:
    """A random word n_in -> n_out: a random dotted matching, then at most
    one dot or cap-cup pair (e_k, which may close a circle) on its top."""
    m, d = rng.choice(words.dotted_spanning_set(n_in, n_out))
    slices = list(words.matching_to_word(m, d, n_in, n_out).slices)
    for _ in range(rng.randrange(2)):
        if n_out >= 2 and rng.random() < 0.5:
            k = rng.randrange(n_out - 1)
            pad = ("id",) * k, ("id",) * (n_out - 2 - k)
            slices += [pad[0] + ("cap",) + pad[1], pad[0] + ("cup",) + pad[1]]
        elif n_out:
            k = rng.randrange(n_out)
            slices.append(("id",) * k + ("dot",) + ("id",) * (n_out - 1 - k))
    return Word(tuple(slices))


SHAPES_UP_TO_8 = [(n_in, total - n_in) for total in range(0, 9, 2)
                  for n_in in range(total + 1)]


@pytest.mark.parametrize("shape", SHAPES_UP_TO_8)
def test_normal_form_matches_full_solve_on_random_words(shape):
    n_in, n_out = shape
    rng = random.Random(1900 + 10 * n_in + n_out)
    coeffs = [1, Fraction(-3, 2), E_RING.gen("E1") - Fraction(1, 2)]
    # one draw at 8 strands, where the oracle's full solve takes about 1 s
    for _ in range(2 if n_in + n_out < 8 else 1):
        combo = Combo.of(_random_shaped_word(rng, n_in, n_out),
                         rng.choice(coeffs))
        if rng.random() < 0.5:
            combo = combo + Combo.of(_random_shaped_word(rng, n_in, n_out))
        _assert_normal_form_matches_oracle(combo, repr(combo))


@pytest.mark.parametrize("text", [f"jw({n})" for n in range(6)]
                         + [f"u({n})" for n in range(4)]
                         + [f"d({n})" for n in range(2, 6)])
def test_normal_form_matches_full_solve_on_macros(text):
    _assert_normal_form_matches_oracle(parse_expr(text), text)


def _benchmark_workloads():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normal_form_matches_full_solve_on_benchmark_inputs(seed):
    for text in _benchmark_workloads().diagrams_inputs(seed)["normalize"]:
        _assert_normal_form_matches_oracle(parse_expr(text), text)


def test_relations_rewrite_to_zero():
    """Every instance of the defining relations, on up to 6 strands (past
    NORMALIZE_STRAND_BOUND, which rewrite_combo does not need), rewrites to
    the empty combination."""
    for name, lhs, rhs in words.relation_instances(6):
        assert rewritten(lhs - rhs) == [], name


def test_outer_dot_basis_has_the_rank_of_the_span():
    """C(N, N/2) outer-dot matchings on N <= 10 boundary points, for every
    shape, in spanning-set order."""
    for total in range(0, 11, 2):
        for n_in in range(total + 1):
            basis = expr.outer_dot_basis(n_in, total - n_in)
            assert len(basis) == math.comb(total, total // 2), (n_in, total)
            if total <= 8:
                assert basis == _outer_dot_span(n_in, total - n_in)


@pytest.mark.parametrize("shape", SHAPES_UP_TO_8)
def test_outer_dot_degree_systems_have_full_column_rank(shape):
    """Each restricted degree system, up to four degrees past the most
    dots an outer-dot matching carries (so every element meets the
    monomials 1, E1, E1^2 and E2), has independent columns: a target's
    solution is unique."""
    n_in, n_out = shape
    for deg in range(0, n_in + n_out + 5, 2):
        columns = expr._degree_system(n_in, n_out, deg)[2]
        assert exactla.nullspace(columns) == [], deg


def _rule_with(row: int, coeff):
    """expr._SLIDE with row's coefficient replaced, or dropped for None."""
    rows = list(expr._SLIDE)
    if coeff is None:
        del rows[row]
    else:
        rows[row] = (coeff,) + rows[row][1:]
    return tuple(rows)


E1_KEY, ONE_KEY = ring.pack_key(1, 0), ring.pack_key(0, 0)
NESTED_DOT = "id|dot|id|id ; id|cap|id ; cap"
# (constant, broken value, a word whose normal form reads it)
BROKEN_RULES = {
    "E1 M coefficient 2*E1":
        ("_SLIDE", _rule_with(0, {E1_KEY: 2}), NESTED_DOT),
    "x_B M coefficient +1":
        ("_SLIDE", _rule_with(1, {ONE_KEY: 1}), NESTED_DOT),
    "side-by-side E1 M' dropped":
        ("_SLIDE", _rule_with(2, None), NESTED_DOT),
    "side-by-side x_(b1,a1) M' dropped":
        ("_SLIDE", _rule_with(3, None), NESTED_DOT),
    "side-by-side x_(a2,b2) M' dropped":
        ("_SLIDE", _rule_with(4, None), NESTED_DOT),
    "circle value 1":
        ("_CIRCLE", ({ONE_KEY: 1}, {E1_KEY: 1}), "cup ; cap"),
    "dotted circle value 2*E1":
        ("_CIRCLE", ({ONE_KEY: 2}, {E1_KEY: 2}), "cup ; dot|id ; cap"),
    "dot^2 = E1*dot + E2":
        ("_DOT_SQUARE", ({E1_KEY: 1}, {ring.pack_key(0, 1): 1}), "dot ; dot"),
}


def _constants_hold_on_the_model() -> bool:
    """expr._CIRCLE, _DOT_SQUARE and _SLIDE against PRIM_MATRICES: the
    circles, dot*dot, and the slide on four points, where (0,3)(1,2) is M
    and (0,1)(2,3) is M'."""
    one, dot, cup, cap = (statespace.PRIM_MATRICES[p]
                          for p in ("id", "dot", "cup", "cap"))

    def holds(lhs, rows):  # lhs = the sum of packed coefficient * matrix
        return lhs == statespace.linear_combination(
            lhs.n_out, lhs.n_in, [(ring.unpack(c, 1), m) for c, m in rows])

    def dot_at(k):
        return PolyMatrix.identity(k).tensor(dot).tensor(
            PolyMatrix.identity(3 - k))

    nested, side = cap * one.tensor(cap).tensor(one), cap.tensor(cap)
    point = {None: PolyMatrix.identity(4), "b1": dot_at(0), "a2": dot_at(2)}
    empty = PolyMatrix.identity(0)
    return (holds(cap * cup, [(expr._CIRCLE[0], empty)])
            and holds(cap * dot.tensor(one) * cup, [(expr._CIRCLE[1], empty)])
            and holds(dot * dot, zip(expr._DOT_SQUARE, (dot, one)))
            and holds(nested * dot_at(1),
                      [(c, (side if cut else nested) * point[at])
                       for c, cut, at in expr._SLIDE]))


def test_rewriting_constants_hold_on_the_model():
    assert _constants_hold_on_the_model()


@pytest.mark.parametrize("broken", sorted(BROKEN_RULES))
def test_broken_rewriting_constant_fails(broken, monkeypatch):
    """Negative controls: with one rewriting constant broken, the model
    check fails, and the rewriting no longer agrees with the solve on words
    that use that constant."""
    name, value, text = BROKEN_RULES[broken]
    monkeypatch.setattr(expr, name, value)
    assert not _constants_hold_on_the_model()
    combo = parse_expr(text)
    assert rewritten(combo) != normalize_matrix(
        combo.evaluate(), combo.n_in, combo.n_out)


def test_rewriting_moves_the_inner_dot_out():
    """The dot slide on four points, read off the normal form."""
    got = {(m, d): str(p)
           for p, m, d in rewritten(parse_expr(NESTED_DOT))}
    nested = ((("b", 0), ("b", 3)), (("b", 1), ("b", 2)))
    side = ((("b", 0), ("b", 1)), (("b", 2), ("b", 3)))
    assert got == {(nested, (0, 0)): "E1", (nested, (1, 0)): "-1",
                   (side, (0, 0)): "-E1", (side, (1, 0)): "1",
                   (side, (0, 1)): "1"}


def test_residual_rejects_a_target_off_the_basis_rows(monkeypatch):
    """Negative control for exactla.solve's residual check: U_2's matrix
    plus one degree-2 monomial on a system row outside the basis rows that
    solve eliminates on.  Solving on those rows alone finds a solution,
    which the other rows refute; with the check skipped, a wrong normal
    form comes back silently."""
    n_in, n_out, deg = 2, 4, 2
    u2 = projectors.un(2).mat
    _, row_index, columns = expr._degree_system(n_in, n_out, deg)
    basis = set(exactla._spanning_rows(exactla._rows(columns)))
    r, c, e = next(k for k, v in row_index.items() if v not in basis)
    exp = ring.unpack_key(e)
    assert (E_RING.degrees[0] * exp[0] + E_RING.degrees[1] * exp[1]
            + statespace.basis_qdegree(r, n_out)
            - statespace.basis_qdegree(c, n_in)) == deg
    bump = PolyMatrix(u2.n_out, u2.n_in,
                      {(r, c): GradedPoly(E_RING, {exp: Fraction(1)})})
    target = u2 + bump
    with pytest.raises(ExprError, match="outside the diagram span"):
        _full_solve_normal_form(target, n_in, n_out)
    with pytest.raises(ExprError, match="outside the diagram span"):
        normalize_matrix(target, n_in, n_out)

    monkeypatch.setattr(exactla, "_satisfies", lambda columns, x, rhs: True)
    wrong = expr.combo_from_matrix(target, n_in, n_out)
    assert wrong.evaluate() != target


def test_second_normalize_matrix_of_a_shape_makes_no_spanning_pass(
        monkeypatch):
    """Operation-count gate: the cached degree systems keep their spanning
    rows (exactla.System), so normalising a second matrix of one shape
    makes no spanning-rows pass; a plain column list still gets one."""
    calls = [0]
    real = exactla._spanning_rows

    def counted(rows):
        calls[0] += 1
        return real(rows)

    monkeypatch.setattr(exactla, "_spanning_rows", counted)
    first = normalize_matrix(projectors.jw(3), 3, 3)
    assert calls[0] > 0
    calls[0] = 0
    assert normalize_matrix(projectors.jw(3), 3, 3) == first
    assert normalize_matrix(parse_expr("cap | id ; cup | id").evaluate(), 3, 3)
    assert calls[0] == 0
    assert exactla.solve([{0: 2}], {0: 4}) == {0: 2}
    assert calls[0] == 1


def test_normal_form_reads_spanning_matrices_over_their_denominators(
        monkeypatch):
    """matching_matrix's tables are integral (denominator 1), so this is the
    only test of an unknown's denominator: with every spanning-set matrix
    halved, every coefficient of a normal form doubles."""
    mat = parse_expr("u(1) ; jw(3)").evaluate()
    want = normalize_matrix(mat, 1, 3)
    expr._degree_system.cache_clear()
    real = words.matching_matrix
    monkeypatch.setattr(words, "matching_matrix",
                        lambda *args: real(*args).scale(Fraction(1, 2)))
    assert normalize_matrix(mat, 1, 3) \
        == [(p * 2, m, d) for p, m, d in want]


def test_normalize_counts_on_the_diagrams_workload(monkeypatch):
    """Operation-count gate on the benchmark's diagrams calls at seed 0:
    with the words rewritten and only the jw and u macros' matrices solved,
    over the outer-dot basis, words.matching_matrix is called at most 56
    times (254 when every normal form was solved over the whole spanning
    set) and the sparse rows that rref eliminates hold at most 216 nonzero
    entries (2,016 cells as dense rows x columns; 12,548 over the whole
    spanning set)."""
    workloads = _benchmark_workloads()
    counts = {"matching_matrix": 0, "nonzeros": 0}
    real_matching, real_rref = words.matching_matrix, exactla.rref

    def matching(*args):
        counts["matching_matrix"] += 1
        return real_matching(*args)

    def rref(rows):
        counts["nonzeros"] += sum(map(len, rows))
        return real_rref(rows)

    monkeypatch.setattr(words, "matching_matrix", matching)
    monkeypatch.setattr(exactla, "rref", rref)
    workloads.diagrams_run(workloads.diagrams_inputs(0))
    assert 0 < counts["matching_matrix"] <= 56
    assert 0 < counts["nonzeros"] <= 216


def test_parsed_macro_normalizes_on_cached_systems(monkeypatch):
    """parse_expr("u(3)") normalises U_3's matrix by a solve; normalising
    the parsed combination rewrites it: no degree system is read or built,
    and no matching_matrix, Combo.evaluate or exactla call is made."""
    combo = parse_expr("u(3)")
    before = expr._degree_system.cache_info()
    assert before.misses > 0

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    monkeypatch.setattr(words, "matching_matrix", forbidden("matching_matrix"))
    monkeypatch.setattr(Combo, "evaluate", forbidden("Combo.evaluate"))
    for name in ("rref", "solve", "nullspace"):
        monkeypatch.setattr(exactla, name, forbidden(f"exactla.{name}"))
    form = normalize_combo(combo)
    after = expr._degree_system.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    monkeypatch.undo()
    assert _same(form, combo)
