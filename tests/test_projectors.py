"""Projectors, certified dotted cup/cap maps, quiver relations."""

from fractions import Fraction

import pytest

import dottedtl.words as words
from dottedtl import expr, projectors, selftest
from dottedtl.ring import E_RING
from dottedtl.statespace import PolyMatrix, commutator_star, generator_matrix
from dottedtl.words import Combo, DtlParams, Word, identity_word, verify_relations

P0 = DtlParams(Fraction(0), Fraction(0))
PH = DtlParams(Fraction(0), Fraction(1, 2))


def entry_added(m, v):
    """m plus v at its first stored entry."""
    (i, j), _ = next(iter(m.entries()))
    return m + PolyMatrix(m.n_out, m.n_in, {(i, j): v})


def test_p2_closed_form():
    cc = Combo.of(Word((("cap",), ("cup",)))).evaluate()
    want = Combo.of(identity_word(2)).evaluate() \
        - cc.scale(E_RING.const(Fraction(1, 2)))
    assert projectors.jw(2) == want


def test_projector_identities():
    for n in range(7):
        m = projectors.jw(n)
        assert m * m == m
        for i in range(n - 1):
            assert (generator_matrix("cap", i, n) * m).is_zero()
            assert (m * generator_matrix("cup", i, n - 2)).is_zero()


def test_recursion_equals_symmetrizer():
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        assert projectors.jw(n) == projectors.jw_bruteforce(n)


def test_symmetrizer_oracle_bound():
    with pytest.raises(projectors.ProjectorError):
        projectors.jw_bruteforce(projectors.JW_TRACKED_BOUND + 1)


def test_perturbed_projector_fails_symmetrizer_check(monkeypatch):
    """Criterion 3 with one entry of p_4 perturbed reports the symmetrizer
    mismatch at p_4."""
    bad = entry_added(projectors.jw(4), E_RING.gen("E1"))
    monkeypatch.setattr(projectors, "_jw_cache", {4: bad})
    rep = selftest.criterion_projectors()
    status = {c["check"]: c["status"] for c in rep["checks"]}
    assert not rep["ok"]
    assert status["p4 equals symmetrizer"] == "fail"
    assert status["p3 equals symmetrizer"] == "pass"


def test_perturbed_p2_fails_the_projector_action_criterion(monkeypatch):
    """Negative control for criterion 4: p2 plus a dot on its first strand
    is no longer killed by e, and the criterion fails."""
    real = expr._jw_combo

    def perturbed(n):
        got = real(n)
        if n == 2:
            got = got + Combo.of(Word((("dot", "id"),)))
        return got

    assert selftest.criterion_projector_action()["ok"] is True
    monkeypatch.setattr(expr, "_jw_combo", perturbed)
    assert selftest.criterion_projector_action()["ok"] is False


def test_word_level_projector_matches_matrix():
    for n in range(expr.NORMALIZE_STRAND_BOUND // 2 + 1):
        assert expr._jw_combo(n).evaluate() == projectors.jw(n)


def test_projector_matrix_is_parameter_free():
    assert projectors.jw(3, P0) == projectors.jw(3, DtlParams(1, 2))


def test_un_dn_certified():
    for a2 in (Fraction(0), Fraction(1), Fraction(-3)):
        p = DtlParams(Fraction(0), a2)
        for n in range(4):
            u = projectors.un(n, p)
            assert not u.mat.is_zero()
        for n in range(2, 5):
            d = projectors.dn(n, p)
            assert not d.mat.is_zero()


def test_un_eigen_stream():
    """The f-image of the certified cup map is its eigenvalue multiple."""
    E1 = E_RING.gen("E1")
    for a2 in (Fraction(0), Fraction(1, 2)):
        p = DtlParams(Fraction(0), a2)
        u = projectors.un(2, p)
        assert commutator_star("e", u.mat, params=p).is_zero()
        assert commutator_star("f", u.mat, params=p) \
            == u.mat.scale((1 - a2) * E1)
        assert commutator_star("h", u.mat, params=p) \
            == u.mat.scale(E_RING.const(2 * a2 - 2))


def test_perturbed_un_fails_certification():
    """U_n with one perturbed entry must fail certification."""
    E1 = E_RING.gen("E1")
    for a2 in (Fraction(0), Fraction(1, 2)):
        p = DtlParams(Fraction(0), a2)
        u = projectors.un(2, p)
        f_eig, h_eig = (1 - a2) * E1, 2 * a2 - 2
        projectors._certify("U_2", u, f_eig, h_eig)
        bad = entry_added(u.mat, E1)
        with pytest.raises(projectors.ProjectorError):
            projectors._certify("U_2", projectors.TrackedMor(bad, p),
                                f_eig, h_eig)


def test_dn_scalar_normalization():
    """The cap map carries the n(n-1) factor: sanity against a raw sandwich."""
    p = P0
    n = 3
    raw = projectors.dn(n, p).mat
    mid = Combo.of(identity_word(n - 2)).tensor(
        Combo.of(Word((("dot", "id"), ("cap",))))
    ).evaluate()
    sandwich = projectors.jw(n - 2) * (mid * projectors.jw(n))
    assert raw == sandwich.scale(E_RING.const(n * (n - 1)))


def test_un_dn_single_product_equals_sandwich():
    """U_n and D_n, each one product after absorbing a projector, equal the
    three-factor sandwiches p_{n+2} (id^n (x) dotted cup) p_n and
    n(n-1) p_{n-2} (id^(n-2) (x) dotted cap) p_n, for every n the
    projector bound allows."""
    cup = Combo.of(Word((("cup",), ("dot", "id")))).evaluate()
    cap = Combo.of(Word((("dot", "id"), ("cap",)))).evaluate()
    bound = projectors.JW_TRACKED_BOUND
    for n in range(bound - 1):
        sandwich = projectors.jw(n + 2) * PolyMatrix.identity(n).tensor(cup) \
            * projectors.jw(n)
        assert projectors.un(n, P0).mat == sandwich, n
    for n in range(2, bound + 1):
        sandwich = projectors.jw(n - 2) \
            * PolyMatrix.identity(n - 2).tensor(cap) * projectors.jw(n)
        assert projectors.dn(n, P0).mat == sandwich.scale(n * (n - 1)), n


def test_quiver_reduces_factors_before_multiplying():
    """Setting E1 = E2 = 0 is a ring homomorphism: for n <= 4 at a2 in
    {0, 1/2}, the products of the reduced factors that quiver_check
    multiplies equal the reduced full products."""
    mod = projectors._mod_EE
    for p in (P0, PH):
        for n in range(5):
            z = projectors.zn_matrix(n, p)
            assert mod(z) * mod(z) == mod(z * z)
            u, d = projectors.un(n, p).mat, projectors.dn(n + 2, p).mat
            assert mod(d) * mod(u) == mod(d * u)
            if n >= 2:
                u, d = projectors.un(n - 2, p).mat, projectors.dn(n, p).mat
                assert mod(u) * mod(d) == mod(u * d)


def test_quiver_relations():
    rep = projectors.quiver_check(4, PH)
    assert rep["ok"], rep


def test_braid_relations():
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        assert projectors.braid_check(n)


def test_negative_control_corrupted_action(monkeypatch):
    """Setting f(dot) = 0 must break relation preservation."""
    orig = words._prim_images

    def corrupted(g, prim, p):
        if g == "f" and prim == "dot":
            return []
        return orig(g, prim, p)

    monkeypatch.setattr(words, "_prim_images", corrupted)
    rep = verify_relations(DtlParams(Fraction(0), Fraction(0)), n_max=2)
    assert not rep["ok"]


def test_negative_control_sign_flipped_cap_map():
    """Flipping the sign of the cap map must break the quiver relation
    D o U = -z^2 modulo (E1, E2)."""
    p = P0
    n = 2
    u = projectors.un(n, p).mat
    d = projectors.dn(n + 2, p).mat
    z = projectors.zn_matrix(n, p)
    lhs_good = projectors._mod_EE(d * u)
    rhs = projectors._mod_EE(PolyMatrix(n, n) - z * z)
    assert lhs_good == rhs
    lhs_bad = projectors._mod_EE((d.scale(E_RING.const(-1))) * u)
    assert lhs_bad != rhs


def test_quiver_check_fails_with_sign_flipped_cap_map(monkeypatch):
    """Criterion 6 through quiver_check itself: with D_n negated, exactly the
    D o U and U o D relations fail.  The z-intertwinings are linear in D and
    survive; so do D_2U_0 and D_3U_1, whose sides both vanish modulo
    (E1, E2)."""
    orig = projectors.dn

    def flipped(n, params=P0):
        d = orig(n, params)
        return projectors.TrackedMor(d.mat.scale(E_RING.const(-1)), d.params)

    monkeypatch.setattr(projectors, "dn", flipped)
    rep = projectors.quiver_check(2)
    assert not rep["ok"]
    failed = [c["relation"] for c in rep["checks"] if c["status"] != "pass"]
    assert failed == ["D_4U_2 = -z_2^2 mod (E1,E2)",
                      "U_0D_2 = -z_2^2 mod (E1,E2)"]


def test_certification_failure_raises():
    """A nonzero a1 breaks the eigen-equations, and certification says so."""
    with pytest.raises(projectors.ProjectorError):
        projectors.un(2, DtlParams(Fraction(1), Fraction(0)))


def test_swapped_projector_cache_swaps_derived_matrices(monkeypatch):
    """Derived matrices and certificates live in the projector cache: with a
    perturbed p_4 swapped in, z_4 is rebuilt from it and U_2 (which reads
    p_4) fails certification on every call; none outlives the swap."""
    real_z4 = projectors.zn_matrix(4)
    projectors.un(2, P0)  # built and certified with the real p_4
    bad = entry_added(projectors.jw(4), E_RING.gen("E1"))
    with monkeypatch.context() as m:
        m.setattr(projectors, "_jw_cache", {4: bad})
        assert projectors.zn_matrix(4) != real_z4
        for _ in range(2):
            with pytest.raises(projectors.ProjectorError):
                projectors.un(2, P0)
    assert projectors.zn_matrix(4) == real_z4
    assert projectors.un(2, P0).mat == projectors.jw(4) * (
        PolyMatrix.identity(2).tensor(
            Combo.of(Word((("cup",), ("dot", "id")))).evaluate())
        * projectors.jw(2))
