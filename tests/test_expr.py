"""Expression DSL: parsing, printing, macros, normalization."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from dottedtl import projectors
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
from dottedtl.ring import E_RING
from dottedtl.statespace import PolyMatrix
from dottedtl.words import (
    Combo,
    DtlParams,
    Word,
    identity_word,
    random_word,
    zn_combo,
)


def _same(a: Combo, b: Combo) -> bool:
    return (a - b).evaluate().is_zero()


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
    """jw(n) and d(n) are accepted for 2n <= NORMALIZE_STRAND_BOUND, u(n)
    for 2(n + 2) <= NORMALIZE_STRAND_BOUND, z(n) and s(i, n) for
    n <= JW_TRACKED_BOUND; past that the bound error is raised."""
    bounds = {"jw": 5, "u": 3, "d": 5, "z": 8, "s": 8}
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
# the solutions supported on the leftmost independent spanning-set columns
PINNED_EVAL_SHA256 = {
    "jw(4) ; z(4)":
        "c464348c943745be6073c6b33b9f82da433bc242c7fff4cd34b238438b090e48",
    "u(3)":
        "dc5a9e5c54029dce62894fd2acc3d26e04ea49beb3f9eca7579ea2ff42b49da1",
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
    "u(1)": "88d937d297d5c352e8e08e48fb3a172eaa641dcc532a129a5d36974c56c6118b",
    "u(2)": "b3cb49ae69887832a853c9ce6db757e241ee66a3b18b9ee4f9734e3f6c55e05b",
    "u(3)": "361d8910ac7926ea9fc66bdbc94061abeb66f0fa9b1b3671cc91f0701bb17bca",
    "d(2)": "d6828dad36b0bb45e1295ba1934656135610c00af6c8a79cca11f23a2a844e03",
    "d(3)": "f4dadca47a45edd0cd4ad0de112a04c16bd23e2f66d1d372ab713d59214b9f72",
    "d(4)": "4b013b6032074092968961367731ee214c8be8bce0b7fe84e5576be2ec1826ae",
    "d(5)": "8c76e8c3e263c895993f180dd39a3f11736ad94b7ff50112c3afc188fa4cbc71",
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
    """Oracle for the u(n) and d(n) macros at every accepted n: the word
    sandwiches p_{n+2} (id^n | dotted cup) p_n and
    n(n-1) p_{n-2} (id^(n-2) | dotted cap) p_n."""
    for n in range(_macro_bound("u") + 1):
        want = _sandwich(n, n, Word((("cup",), ("dot", "id"))), n + 2)
        assert _same(parse_expr(f"u({n})"), want), n
    for n in range(2, _macro_bound("d") + 1):
        want = _sandwich(n, n - 2, Word((("dot", "id"), ("cap",))), n - 2)
        assert _same(parse_expr(f"d({n})"), want.scale(Fraction(n * (n - 1)))), n


def test_normalize_outside_span_fails():
    # the state-space matrix with a single 1 at (0, 0) is no combination
    # of the one-strand diagrams id and dot
    mat = PolyMatrix(1, 1, {(0, 0): E_RING.const(1)})
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
    inside words.matching_matrix and no PolyMatrix sum or scale inside
    Combo.evaluate."""
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
        expr.normalize_combo(parse_expr(text))
    assert counts.pop("matching_matrix") > 0
    assert counts.pop("evaluate") > 0
    assert counts == {}
