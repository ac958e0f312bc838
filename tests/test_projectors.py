"""Projectors, cores, certified dotted cup/cap maps, quiver relations."""

import json
from fractions import Fraction
from math import comb, lcm

import pytest

import dottedtl.words as words
from dottedtl import cli, expr, projectors, selftest, statespace
from dottedtl.ring import E_RING
from dottedtl.statespace import (STRAND_BASIS, PolyMatrix, commutator_star,
                                 derivative, generator_matrix)
from dottedtl.words import (Combo, DtlParams, Word, evaluate_word,
                            identity_word, verify_relations, zn_combo)
from test_statespace import entries, tensor_sum_object_operator

P0 = DtlParams(Fraction(0), Fraction(0))
PH = DtlParams(Fraction(0), Fraction(1, 2))
E1, E2 = E_RING.gen("E1"), E_RING.gen("E2")
DOTTED_CUP = Word((("cup",), ("dot", "id")))
DOTTED_CAP = Word((("dot", "id"), ("cap",)))
SIDE = projectors.core_side


def entry_added(m, v):
    """m plus v at its first stored entry."""
    (i, j), _ = next(iter(entries(m)))
    return m + PolyMatrix(m.n_out, m.n_in, {(i, j): v})


def core(F):
    """Oracle: the core B_m^+ F B_n of p_m F p_n, for F: V_n -> V_m, read
    off 2^m x 2^n states."""
    return projectors._basis(F.n_out)[1] * F * projectors._basis(F.n_in)[0]


def from_core(c):
    """The state matrix B_m c B_n^+ of a core c."""
    return projectors._basis(-1 - c.n_out)[0] * c \
        * projectors._basis(-1 - c.n_in)[1]


def sandwiched(mat):
    """Oracle: the general check for any map F: V_n -> V_m, read its core
    C = B_m^+ F B_n, then require F = B_m C B_n^+ (F is p-sandwiched) on
    2^m x 2^n states.  un and dn check only the side their factorisation
    leaves open, on thin products."""
    c = core(mat)
    if from_core(c) != mat:
        raise projectors.ProjectorError(
            f"map {mat.n_out}<-{mat.n_in} is not p-sandwiched")
    return projectors.TrackedMor(mat, c)


def tensor_basis(n):
    """Oracle: (B_n, B_n^+) as the products T^(x)n U and diag(1/C(n,k))
    U^T T^-(x)n, T the strand basis and U the signed columns u_k, at 3^n
    cost through the tensor powers of T."""
    t, ti = STRAND_BASIS
    tn = tin = PolyMatrix.identity(0)
    for _ in range(n):
        tn, tin = tn.tensor(t), tin.tensor(ti)
    den = lcm(*(comb(n, k) for k in range(n + 1)))
    u, ut = {}, {}
    for i in range(2 ** n):  # bit b of i is the strand at position n-1-b
        sign = (-1) ** sum(n - 1 - b for b in range(n) if i >> b & 1)
        k = bin(i).count("1")
        u.setdefault(k, {})[i] = {0: sign}
        ut[i] = {k: {0: sign * den // comb(n, k)}}
    return (tn * PolyMatrix.from_packed(n, SIDE(n), 1, u),
            PolyMatrix.from_packed(SIDE(n), n, den, ut) * tin)


_WENZL = {}


def wenzl(n):
    """Oracle: p_n by the Wenzl recursion at circle value 2,
    p_{k+1} = p_k(x)id - (k/(k+1)) (p_k(x)id) e_k (p_k(x)id),
    with the turnback e_k factored through its cap."""
    if n not in _WENZL:
        p = PolyMatrix.identity(0)
        if n:
            p = ext = wenzl(n - 1).tensor(PolyMatrix.identity(1))
            if n > 1:
                capm = generator_matrix("cap", n - 2, n)
                cupm = generator_matrix("cup", n - 2, n - 2)
                p = ext - (ext * cupm).scale(Fraction(n - 1, n)) * (capm * ext)
        _WENZL[n] = p
    return _WENZL[n]


def zn_sandwich(n):
    """Oracle: z_n inside End(P_n) as the state matrix p_n z_n p_n."""
    p = wenzl(n)
    return p * zn_combo(n).evaluate() * p


# the closed core formulas, with q = (E1^2 - 4E2)/4 = -ring.delta()/4
Q = (E1 * E1 - 4 * E2) * Fraction(1, 4)


def z_core_formula(n):
    """The Clement tridiagonal: [n odd] E1/2 on the diagonal, k + 1 below
    it and (n - k) q above it."""
    entries = {}
    for k in range(n + 1):
        if n % 2:
            entries[k, k] = E1 * Fraction(1, 2)
        if k < n:
            entries[k + 1, k] = k + 1
            entries[k, k + 1] = Q * (n - k)
    return PolyMatrix(SIDE(n), SIDE(n), entries)


def u_core_formula(n):
    entries = {}
    for k in range(n + 1):
        entries[k, k] = Q * Fraction(comb(n, k), comb(n + 2, k))
        entries[k + 2, k] = Fraction(-comb(n, k), comb(n + 2, k + 2))
    return PolyMatrix(SIDE(n + 2), SIDE(n), entries)


def d_core_formula(n):
    entries = {}
    for j in range(n - 1):
        entries[j, j] = n * (n - 1)
        entries[j, j + 2] = -n * (n - 1) * Q
    return PolyMatrix(SIDE(n - 2), SIDE(n), entries)


def state_quiver(n_max, params):
    """Oracle: the statuses of quiver_check's relations, in its order,
    decided on 2^n state matrices."""
    out = []

    def rhs(n, k, z, z2):
        p = wenzl(n)
        value = -z2 + p.scale(k * (E1 * E1 - 4 * E2))
        if n % 2:
            value = value + z.scale(E1) - p.scale(E2)
        return value

    un, dn = projectors.un, projectors.dn
    for n in range(n_max + 1):
        z = zn_sandwich(n)
        z2 = z * z
        if n + 4 <= projectors.JW_TRACKED_BOUND:
            u, d = un(n, params).mat, dn(n + 2, params).mat
            out.append(d * u == rhs(n, (n + 2) ** 2 // 4, z, z2))
            out.append(z * d == d * zn_sandwich(n + 2))
        if n >= 2:
            u, d = un(n - 2, params).mat, dn(n, params).mat
            out.append(u * d == rhs(n, n * n // 4, z, z2))
            out.append(z * u == u * zn_sandwich(n - 2))
        zpow = wenzl(n).constant_terms()
        for _ in range(n + 1):
            zpow = zpow * z.constant_terms()
        out.append(zpow.is_zero())
    return ["pass" if ok else "fail" for ok in out]


def test_p2_closed_form():
    cc = Combo.of(Word((("cap",), ("cup",)))).evaluate()
    want = Combo.of(identity_word(2)).evaluate() \
        - cc.scale(E_RING.const(Fraction(1, 2)))
    assert projectors.jw(2) == want


def test_projector_identities():
    """p_n^2 = p_n on 2^n states for every n <= 8: the oracle of the thin
    left-inverse check that decides idempotence in `jw n`."""
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        m = projectors.jw(n)
        assert m * m == m
        for i in range(n - 1):
            assert (generator_matrix("cap", i, n) * m).is_zero()
            assert (m * generator_matrix("cup", i, n - 2)).is_zero()


def test_recursion_equals_symmetrizer():
    """The Wenzl recursion, the coset-product symmetrizer and the closed
    form agree at every level n <= 8, and p_n, built from one column of
    B_n^+ per class, has the packed table of the full product B_n B_n^+."""
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        assert wenzl(n) == projectors.jw_bruteforce(n)
        assert projectors.jw(n) == wenzl(n), n
        b, bp = projectors._basis(n)
        assert projectors.jw(n)._packed() == (b * bp)._packed(), n


def test_basis_is_a_left_inverse_pair():
    """B_n^+ B_n is the identity core, and each level's pair is cached."""
    for n in range(7):
        b, bp = projectors._basis(n)
        assert (b.n_out, b.n_in) == (n, SIDE(n))
        assert bp * b == PolyMatrix(SIDE(n), SIDE(n),
                                    {(k, k): 1 for k in range(n + 1)})
        assert projectors._basis(n) is projectors._basis(n)


def test_closed_basis_equals_the_tensor_construction():
    """The closed-form B_n and B_n^+ have exactly the packed tables of the
    T^(x)n U construction, for every n <= 10 (past the projector bound)."""
    for n in range(11):
        b, bp = projectors._basis(n)
        tb, tbp = tensor_basis(n)
        assert (b._packed(), bp._packed()) == (tb._packed(), tbp._packed()), n


REAL_CLOSED_BASIS = projectors._closed_basis


def perturbed_closed_basis(n):
    """_closed_basis with E1 added at the first stored entry of B_n^+."""
    b, bp = REAL_CLOSED_BASIS(n)
    return b, entry_added(bp, E1)


def test_perturbed_left_inverse_is_refused(monkeypatch):
    """Negative control of _basis's check: with one entry of B_n^+
    perturbed, B_n^+ B_n is not the identity, and _basis (and so jw)
    raises, for every n <= 5; nothing is cached."""
    monkeypatch.setattr(projectors, "_jw_cache", {})
    monkeypatch.setattr(projectors, "_closed_basis", perturbed_closed_basis)
    for n in range(6):
        for build in (projectors._basis, projectors.jw):
            with pytest.raises(projectors.ProjectorError,
                               match=f"B_{n}\\^\\+ is not a left inverse"):
                build(n)
    assert projectors._jw_cache == {}


def test_jw_command_decides_idempotence_by_the_left_inverse(monkeypatch,
                                                            capsys):
    """`jw n` reads its idempotence line off B_n^+ B_n = I, with no 2^n x
    2^n product: with a perturbed pair and its p_6 = B_6 B_6^+ in the
    projector cache, p_6 is not idempotent, and the line fails with exit
    status 1 (the symmetrizer line fails too).  n = 6 is past the jw
    macro's bound, so no diagram form is normalised."""
    assert cli.main(["jw", "6", "--json"]) == 0
    capsys.readouterr()
    b, bp = perturbed_closed_basis(6)
    p = b * bp
    assert p * p != p
    monkeypatch.setattr(projectors, "_jw_cache", {("basis", 6): (b, bp),
                                                  6: p})
    assert cli.main(["jw", "6", "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert {"check": "idempotent", "status": "fail"} in rep["checks"]


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


def test_perturbed_basis_fails_the_idempotence_line(monkeypatch):
    """Criterion 3 reads "p4 idempotent" off B_4^+ B_4 = I on the cached
    pair: with one entry of the cached B_4^+ perturbed (and p_4 built from
    that pair), the line fails, and the other levels' lines pass."""
    b, bp = projectors._basis(4)
    monkeypatch.setattr(projectors, "_jw_cache",
                        {("basis", 4): (b, entry_added(bp, E1))})
    rep = selftest.criterion_projectors()
    status = {c["check"]: c["status"] for c in rep["checks"]}
    assert not rep["ok"]
    assert status["p4 idempotent"] == "fail"
    assert [n for n in range(7) if status[f"p{n} idempotent"] == "fail"] \
        == [4]


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


def test_projector_is_built_once():
    """jw and jw_tracked are one function, and each call returns the cached
    matrix itself (the benchmark counts a cache hit by that identity)."""
    assert projectors.jw is projectors.jw_tracked
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        assert projectors.jw_tracked(n) is projectors.jw_tracked(n)


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
        projectors._certify("U_2", u, p, f_eig, h_eig)
        bad = sandwiched(from_core(entry_added(u.core, E1)))
        with pytest.raises(projectors.ProjectorError):
            projectors._certify("U_2", bad, p, f_eig, h_eig)


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
    projector bound allows (n <= 6 and 2 <= n <= 8), and so do their
    cores, read off the sandwiches by the general sandwich oracle."""
    cup = Combo.of(Word((("cup",), ("dot", "id")))).evaluate()
    cap = Combo.of(Word((("dot", "id"), ("cap",)))).evaluate()
    bound = projectors.JW_TRACKED_BOUND
    for n in range(bound - 1):
        want = sandwiched(projectors.jw(n + 2)
                          * PolyMatrix.identity(n).tensor(cup)
                          * projectors.jw(n))
        got = projectors.un(n, P0)
        assert (got.mat, got.core) == (want.mat, want.core), n
    for n in range(2, bound + 1):
        want = sandwiched((projectors.jw(n - 2)
                           * PolyMatrix.identity(n - 2).tensor(cap)
                           * projectors.jw(n)).scale(n * (n - 1)))
        got = projectors.dn(n, P0)
        assert (got.mat, got.core) == (want.mat, want.core), n


def test_quiver_reduces_factors_before_multiplying():
    """Setting E1 = E2 = 0 is a ring homomorphism: for n <= 4, the power of
    the reduced z_n core that quiver_check multiplies equals the reduced
    power, and a state matrix reduces to zero exactly when its core does."""
    mod = PolyMatrix.constant_terms
    for n in range(5):
        z = core(zn_combo(n).evaluate())
        assert mod(z) * mod(z) == mod(z * z)
        zz = zn_sandwich(n) * zn_sandwich(n)
        assert mod(zz).is_zero() == mod(z * z).is_zero()


def test_quiver_relations():
    rep = projectors.quiver_check(4, PH)
    assert rep["ok"], rep


def braid_check(n: int) -> bool:
    """s_i relations: involution, braid, distant commutation (as matrices)."""
    mats = [words.crossing_combo(i, n).evaluate() for i in range(1, n)]
    ident = PolyMatrix.identity(n)
    for i, s in enumerate(mats):
        if s * s != ident:
            return False
        if i + 1 < len(mats):
            t = mats[i + 1]
            if s * t * s != t * s * t:
                return False
        for j in range(i + 2, len(mats)):
            if s * mats[j] != mats[j] * s:
                return False
    return True


def test_braid_relations():
    """The precondition of the symmetrizer oracle jw_bruteforce."""
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        assert braid_check(n)


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
    z = zn_sandwich(n)
    lhs_good = (d * u).constant_terms()
    rhs = (PolyMatrix(n, n) - z * z).constant_terms()
    assert lhs_good == rhs
    lhs_bad = ((d.scale(E_RING.const(-1))) * u).constant_terms()
    assert lhs_bad != rhs


def test_quiver_relation_names():
    names = [c["relation"] for c in projectors.quiver_check(3)["checks"]]
    assert names[:3] == ["D_2U_0 = -z_0^2 + 1*(E1^2-4*E2)*p_0",
                         "z_0D_2 = D_2z_2", "z_0^1 = 0 mod (E1,E2)"]
    assert "D_3U_1 = -z_1^2 + 2*(E1^2-4*E2)*p_1 + E1*z_1 - E2*p_1" in names
    assert "U_1D_3 = -z_3^2 + 2*(E1^2-4*E2)*p_3 + E1*z_3 - E2*p_3" in names


def test_quiver_check_fails_with_sign_flipped_cap_map(monkeypatch):
    """Criterion 6 through quiver_check itself: with D_n negated, exactly the
    D o U and U o D relations fail, every one of them, D_2U_0 and D_3U_1
    included.  The z-intertwinings are linear in D and survive."""
    orig = projectors.dn

    def flipped(n, params=P0):
        d = orig(n, params)
        return sandwiched(d.mat.scale(E_RING.const(-1)))

    monkeypatch.setattr(projectors, "dn", flipped)
    for n_max in (2, 4):
        rep = projectors.quiver_check(n_max)
        assert not rep["ok"]
        failed = [c["relation"] for c in rep["checks"]
                  if c["status"] != "pass"]
        u_d = [c["relation"] for c in rep["checks"]
               if c["relation"].startswith(("D_", "U_"))]
        assert failed == u_d
        assert len(u_d) == 2 * n_max


def test_certification_failure_raises():
    """A nonzero a1 breaks the eigen-equations, and certification says so."""
    with pytest.raises(projectors.ProjectorError):
        projectors.un(2, DtlParams(Fraction(1), Fraction(0)))


def test_swapped_projector_cache_swaps_derived_matrices(monkeypatch):
    """Derived matrices and certificates live in the projector cache: with a
    perturbed B_4^+ swapped in, U_2 (whose thin check reads B_4^+) fails
    its checks on every call, and nothing built during the swap outlives
    it."""
    projectors.un(2, P0)  # built and certified with the real B_4^+
    b, bp = projectors._basis(4)
    with monkeypatch.context() as m:
        m.setattr(projectors, "_jw_cache",
                  {("basis", 4): (b, entry_added(bp, E1))})
        for _ in range(2):
            with pytest.raises(projectors.ProjectorError):
                projectors.un(2, P0)
    assert projectors.jw(4) == wenzl(4)
    assert projectors.un(2, P0).mat == projectors.jw(4) * (
        PolyMatrix.identity(2).tensor(evaluate_word(DOTTED_CUP))
        * projectors.jw(2))


# -- cores -------------------------------------------------------------------

def test_core_formulas_read_off_the_bare_diagrams():
    """The closed formulas are oracles of core(): z_n for n <= 8, U_n for
    n <= 6 and D_n for 2 <= n <= 8, both from the bare dotted cup and cap
    and from the certified maps."""
    cup, cap = evaluate_word(DOTTED_CUP), evaluate_word(DOTTED_CAP)
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        assert core(zn_combo(n).evaluate()) == z_core_formula(n)
    for n in range(projectors.JW_TRACKED_BOUND - 1):
        want = u_core_formula(n)
        assert core(PolyMatrix.identity(n).tensor(cup)) == want
        assert core(projectors.un(n, P0).mat) == want, n
    for n in range(2, projectors.JW_TRACKED_BOUND + 1):
        bare = PolyMatrix.identity(n - 2).tensor(cap)
        assert core(bare).scale(n * (n - 1)) == d_core_formula(n)
        assert core(projectors.dn(n, P0).mat) \
            == d_core_formula(n), n


def test_z_core_from_one_strand_equals_the_state_read_off():
    """The z_n core quiver_check builds from the strand step equals the
    core read off the bare dot sum's 2^n state matrix and the closed
    formula, for every n <= 8."""
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        z = projectors._z_core(n)
        assert z == core(zn_combo(n).evaluate()), n
        assert z == z_core_formula(n), n


@pytest.mark.parametrize("bad", ["shifted", "negated"])
def test_strand_dot_of_another_shape_is_refused(monkeypatch, bad):
    """Negative control of _z_core's strand check: with the dot matrix
    shifted by the identity (N's diagonal is no longer E1/2) or negated
    (every entry of N changes sign), T^-1 dot T is not of the checked
    form, and _z_core and quiver_check raise on every call; nothing is
    cached."""
    dot = statespace.PRIM_MATRICES["dot"]
    wrong = {"shifted": dot + PolyMatrix.identity(1),
             "negated": -dot}[bad]
    monkeypatch.setattr(projectors, "_jw_cache", {})
    monkeypatch.setitem(statespace.PRIM_MATRICES, "dot", wrong)
    for n in (0, 1, 2, 3, 0):
        with pytest.raises(projectors.ProjectorError,
                           match="T\\^-1 dot T is not of the checked form"):
            projectors._z_core(n)
    with pytest.raises(projectors.ProjectorError):
        projectors.quiver_check(0)
    assert projectors._jw_cache == {}


def test_quiver_check_fails_with_a_sign_flipped_z_core(monkeypatch):
    """Negative control of the z_n cores: with the entry (1, 0) of z_2's
    core negated, the relations that read z_2 fail, and only they."""
    real = projectors._z_core

    def flipped(n):
        z = real(n)
        if n == 2:
            z = z - PolyMatrix(z.n_out, z.n_in, {(1, 0): 2 * z[1, 0]})
        return z

    assert flipped(2) != z_core_formula(2)
    monkeypatch.setattr(projectors, "_z_core", flipped)
    rep = projectors.quiver_check(4, PH)
    failed = [c["relation"] for c in rep["checks"] if c["status"] != "pass"]
    assert not rep["ok"]
    assert failed and all("z_2" in name for name in failed)


def test_core_of_a_composite_is_the_product_of_cores():
    """core(G F) = core(G) core(F) when G absorbs the projector between
    them, as the certified U and D maps do."""
    for n in range(5):
        u, d = projectors.un(n, PH).mat, projectors.dn(n + 2, PH).mat
        assert core(d * u) == core(d) * core(u)
        if n >= 2:
            d2 = projectors.dn(n, PH).mat
            assert core(projectors.un(n - 2, PH).mat * d2) \
                == core(projectors.un(n - 2, PH).mat) * core(d2)
        if n <= 2:
            u2 = projectors.un(n + 2, PH).mat
            assert core(u2 * u) == core(u2) * core(u)


def test_core_and_state_matrix_do_not_mix():
    z = zn_combo(3).evaluate()
    c = core(z)
    with pytest.raises(ValueError):
        c * z
    with pytest.raises(ValueError):
        z * c
    with pytest.raises(ValueError):
        c + projectors.jw(3)
    assert SIDE(3) < 0 and len({SIDE(n) for n in range(9)}) == 9


@pytest.mark.parametrize("flip", [False, True])
def test_quiver_core_verdicts_equal_state_space_verdicts(monkeypatch, flip):
    """Each relation's verdict on cores equals the verdict of the 2^n
    state-space check it replaced, for every n <= 6, also with D_n negated
    (where the D o U and U o D relations fail)."""
    if flip:
        orig = projectors.dn
        monkeypatch.setattr(projectors, "dn", lambda n, params=P0: (
            sandwiched(orig(n, params).mat.scale(-1))))
    rep = projectors.quiver_check(6, PH)
    got = [c["status"] for c in rep["checks"]]
    assert got == state_quiver(6, PH)
    assert ("fail" in got) == flip


def test_perturbed_core_fails_its_oracle_and_d_u(monkeypatch):
    """A D_4 core with one perturbed entry fails its formula oracle, and
    quiver_check reading it fails D_4U_2 and z_2D_4 and nothing else."""
    real_dn = projectors.dn
    bad = entry_added(real_dn(4, P0).core, E1)
    assert real_dn(4, P0).core == d_core_formula(4)
    assert bad != d_core_formula(4)
    bad_map = sandwiched(from_core(bad))
    assert bad_map.core == bad
    monkeypatch.setattr(projectors, "dn", lambda n, params=P0: (
        bad_map if n == 4 else real_dn(n, params)))
    rep = projectors.quiver_check(2, P0)
    failed = [c["relation"] for c in rep["checks"] if c["status"] != "pass"]
    assert failed[0].startswith("D_4U_2 = ")
    assert failed[1:] == ["z_2D_4 = D_4z_4"]


def test_quiver_check_multiplies_no_state_matrices(monkeypatch):
    """With U_n and D_n certified and the strand step of z_n read,
    quiver_check(8) makes no product with a strand side, no tensor and no
    word evaluation: each product multiplies cores, and z_n's core is
    written from the strand step, not read off 2^n states."""
    projectors.quiver_check(8, PH)
    shapes, other = [], []
    real = PolyMatrix.__mul__

    def recorded(self, other):
        shapes.append((self.n_out, self.n_in, other.n_out, other.n_in))
        return real(self, other)

    def refused(name):
        def call(*args, **kwargs):
            other.append(name)
            raise AssertionError(name)
        return call

    monkeypatch.setattr(PolyMatrix, "__mul__", recorded)
    monkeypatch.setattr(PolyMatrix, "tensor", refused("tensor"))
    monkeypatch.setattr(words, "evaluate_word", refused("evaluate_word"))
    monkeypatch.setattr(projectors, "evaluate_word", refused("evaluate_word"))
    monkeypatch.setattr(Combo, "evaluate", refused("Combo.evaluate"))
    assert projectors.quiver_check(8, PH)["ok"]
    assert shapes and other == []
    assert not [s for s in shapes if max(s) >= 0]  # every side a core


# -- q-degrees on cores ------------------------------------------------------

def homogeneous_core(rng, m, n, d):
    """A seeded (m+1) x (n+1) core of net q-degree d with up to four
    entries, each a signed monomial E1^a E2^b of the degree its place
    needs (u_k has q-degree 2k - level); places needing a negative or odd
    degree stay empty."""
    entries = {}
    for _ in range(4):
        i, j = rng.randrange(m + 1), rng.randrange(n + 1)
        need = d - (2 * i - m) + (2 * j - n)
        if need >= 0 and need % 2 == 0:
            b = rng.randrange(need // 4 + 1)
            entries[i, j] = rng.choice((-2, -1, 1, 3)) \
                * E1 ** (need // 2 - 2 * b) * E2 ** b
    return PolyMatrix(SIDE(m), SIDE(n), entries)


def test_core_basis_vectors_are_graded_so_the_basis_has_degree_zero():
    """u_k on the core side of level m has the q-degree 2k - m of a word
    with k A0-letters, so B_m and B_m^+ have q-degree 0, every m <= 8."""
    for m in range(projectors.JW_TRACKED_BOUND + 1):
        assert [statespace.basis_qdegree(k, SIDE(m)) for k in range(m + 1)] \
            == [2 * k - m for k in range(m + 1)]
        assert [statespace.basis_weight(k, SIDE(m)) for k in range(m + 1)] \
            == [m - 2 * k for k in range(m + 1)]
        b, bp = projectors._basis(m)
        assert (b.qdegree(), bp.qdegree()) == (0, 0)


def test_core_qdegree_equals_the_state_qdegree():
    """A map's core has the q-degree of its state matrix (None when either
    is inhomogeneous): U_n for n <= 6, D_n for 2 <= n <= 8, p_n z_n p_n
    for n <= 6, and seeded p-sandwiched maps, homogeneous and not, n <= 5."""
    import random

    rng = random.Random(5)
    maps = [projectors.un(n) for n in range(projectors.JW_TRACKED_BOUND - 1)]
    maps += [projectors.dn(n)
             for n in range(2, projectors.JW_TRACKED_BOUND + 1)]
    maps += [projectors.TrackedMor(zn_sandwich(n), projectors._z_core(n))
             for n in range(7)]
    for n in range(6):
        for m in (n - 2, n, n + 2):
            if m >= 0:
                for c in (random_core(rng, m, n),
                          homogeneous_core(rng, m, n, rng.randrange(-4, 5))):
                    maps.append(projectors.TrackedMor(from_core(c), c))
    degrees = [F.core.qdegree() for F in maps]
    assert degrees == [F.mat.qdegree() for F in maps]
    assert None in degrees and len(set(degrees) - {None}) > 3


# -- the star action on cores ----------------------------------------------

A2S = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(-2))


def level_read_off(g, n, params=P0, a=Fraction(0), basis=None):
    """Oracle: how G_n acts on p_n's image in the basis B_n, read off the
    2^n states as B_n^+ (G_n B_n + d_g B_n) after the exact checks that
    p_n's image and kernel are g-stable: G_n B_n + d_g B_n = B_n L and
    B_n^+ G_n - d_g B_n^+ = L B_n^+.  G_n is the tensor sum of strand
    operators with the twist term, so at P0 with no twist L is L_n(g) and
    otherwise it includes the scalars the parameter and twist terms amount
    to.  basis defaults to projectors' (B_n, B_n^+)."""
    b, bp = basis or projectors._basis(n)
    gn = tensor_sum_object_operator(g, n, params, a)
    gb = gn * b + derivative(g, b)
    lv = bp * gb
    if gb != b * lv:
        raise projectors.ProjectorError(f"p_{n}'s image is not {g}-stable")
    if bp * gn - derivative(g, bp) != lv * bp:
        raise projectors.ProjectorError(f"p_{n}'s kernel is not {g}-stable")
    return lv


def core_operator(g, n, params, a):
    """statespace._core_operator as a matrix on the core side of level n."""
    return PolyMatrix.from_packed(SIDE(n), SIDE(n),
                                  *statespace._core_operator(g, n, params, a))


def test_level_operators_have_closed_forms():
    """L_n(e) = 0, L_n(f) = diag((k - n/2) E1) and L_n(h) = diag(n - 2k)
    for every n <= 8, at a1 = a2 = 0 with no twist: read off the states
    and from _core_operator, which builds each once."""
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        side = SIDE(n)
        want = {
            "e": PolyMatrix(side, side),
            "f": PolyMatrix(side, side, {
                (k, k): E1 * Fraction(2 * k - n, 2) for k in range(n + 1)}),
            "h": PolyMatrix(side, side, {
                (k, k): n - 2 * k for k in range(n + 1)}),
        }
        for g in "efh":
            assert level_read_off(g, n) == want[g]
            assert core_operator(g, n, P0, Fraction(0)) == want[g]
            assert statespace._core_operator(g, n, P0, Fraction(0)) \
                is statespace._core_operator(g, n, P0, Fraction(0))


def test_core_operator_equals_the_state_read_off():
    """The core-side operator built from one strand equals the read-off
    of G_n on p_n's image for e, f and h, every n <= 8 and every a2 of
    A2S, with zero twists and with the Kirby level twists.  At a1 != 0 it
    does for e and h, and f, whose a1 term is a dot, is refused."""
    from dottedtl.kirby import level_twist

    a1 = DtlParams(Fraction(3, 7), Fraction(-5, 2))
    for n in range(projectors.JW_TRACKED_BOUND + 1):
        for a2 in A2S:
            p = DtlParams(Fraction(0), a2)
            for a in (Fraction(0), level_twist(n, a2).a):
                for g in "efh":
                    assert core_operator(g, n, p, a) \
                        == level_read_off(g, n, p, a), (g, n, a2, a)
        for g in "eh":
            assert core_operator(g, n, a1, Fraction(0)) \
                == level_read_off(g, n, a1), (g, n)
        with pytest.raises(ValueError, match="needs a1 = 0"):
            statespace._core_operator("f", n, a1, Fraction(0))


def test_strand_operator_not_diagonal_on_b_v_is_refused(monkeypatch):
    """Negative control of _core_operator's check: with a dot added to
    each strand operator (the dot sends b to v + (E1/2) b), L_1(g) is not
    diagonal on b, v, and the core-side operator raises for each g, also
    through commutator_star on a core."""
    real = statespace._strand_operator
    dot = statespace.PRIM_MATRICES["dot"]
    monkeypatch.setattr(statespace, "_strand_operator",
                        lambda g, params: real(g, params) + dot)
    statespace._core_operator.cache_clear()
    statespace._strand_level.cache_clear()
    for g in "efh":
        with pytest.raises(ValueError, match=rf"L_1\({g}\) is not diagonal"):
            statespace._core_operator(g, 3, P0, Fraction(0))
    with pytest.raises(ValueError):
        commutator_star("h", PolyMatrix.identity(SIDE(3)))


def random_core(rng, m, n):
    """A seeded (m+1) x (n+1) core with three nonzero entries, each a
    small multiple of 1, E1, E2 or E1^2 (the state matrices are dense, so
    the 2^n-state oracle's cost grows with the core's entries)."""
    monomials = (E_RING.one, E1, E2, E1 * E1)
    entries = {(rng.randrange(m + 1), rng.randrange(n + 1)):
               rng.choice((-3, -2, -1, 1, 2, 3)) * rng.choice(monomials)
               for _ in range(3)}
    return PolyMatrix(SIDE(m), SIDE(n), entries)


def star_oracle_maps():
    """(name, map) for U_n, D_n, z_n and seeded random p-sandwiched maps
    P_n -> P_m, n <= 6 and m in {n - 2, n, n + 2}."""
    import random

    rng = random.Random(17)
    maps = []
    for n in range(7):
        maps.append((f"U_{n}", projectors.un(n)))
        if n >= 2:
            maps.append((f"D_{n}", projectors.dn(n)))
        maps.append((f"z_{n}", sandwiched(zn_sandwich(n))))
        for m in (n - 2, n, n + 2):
            if m >= 0:
                maps.append((f"R_{m}<-{n}", sandwiched(
                    from_core(random_core(rng, m, n)))))
    return maps


@pytest.mark.parametrize("twisted", [False, True])
def test_core_star_equals_state_star(twisted):
    """commutator_star on a map's core is the core of commutator_star on
    its state matrix, and the state image is the sandwich of the core
    image: for e, f, h, every a2 of A2S, with zero twists or with the level
    twists, on U_n, D_n, z_n and random p-sandwiched maps, n <= 6."""
    from dottedtl.kirby import level_twist
    from dottedtl.statespace import ZERO_TWIST

    for name, F in star_oracle_maps():
        m, n = F.mat.n_out, F.mat.n_in
        for a2 in A2S:
            p = DtlParams(Fraction(0), a2)
            src, tgt = ((level_twist(n, a2), level_twist(m, a2)) if twisted
                        else (ZERO_TWIST, ZERO_TWIST))
            for g in "efh":
                on_core = commutator_star(g, F.core, src, tgt, p)
                on_states = commutator_star(g, F.mat, src, tgt, p)
                assert from_core(on_core) == on_states, (name, a2, g)


def test_core_star_needs_a1_zero():
    u = projectors.un(1)
    with pytest.raises(ValueError):
        commutator_star("f", u.core, params=DtlParams(Fraction(1), 0))


def test_bare_dotted_cup_and_cap_are_not_p_sandwiched():
    """Negative control of the sandwich oracle: id_n (x) dotted cup and
    id_n (x) dotted cap without the projectors are refused."""
    cup, cap = evaluate_word(DOTTED_CUP), evaluate_word(DOTTED_CAP)
    for n in range(5):
        for bare in (PolyMatrix.identity(n).tensor(cup),
                     PolyMatrix.identity(n).tensor(cap)):
            with pytest.raises(projectors.ProjectorError,
                               match="not p-sandwiched"):
                sandwiched(bare)


def test_thin_checks_refuse_a_factor_that_does_not_commute_with_p():
    """Negative controls of the thin checks: a dot on strand 0 composed
    into X on the side the factorisation leaves open (the input of
    id_n (x) dotted cup, the output of id_{n-2} (x) dotted cap) does not
    commute with the projector there, and _u_map and _d_map refuse the
    map, as the sandwich oracle refuses its state matrix.  The factors
    without the dot pass both."""
    cup, cap = evaluate_word(DOTTED_CUP), evaluate_word(DOTTED_CAP)
    for n in range(2, 6):
        x = PolyMatrix.identity(n).tensor(cup)
        sandwiched(projectors._u_map(n, x).mat)
        bad = x * generator_matrix("dot", 0, n)
        with pytest.raises(projectors.ProjectorError,
                           match=f"map {n + 2}<-{n} is not p-sandwiched"):
            projectors._u_map(n, bad)
        with pytest.raises(projectors.ProjectorError,
                           match="not p-sandwiched"):
            sandwiched(projectors.jw(n + 2) * bad)
    for n in range(4, 8):
        x = PolyMatrix.identity(n - 2).tensor(cap)
        sandwiched(projectors._d_map(n, x).mat)
        bad = generator_matrix("dot", 0, n - 2) * x
        with pytest.raises(projectors.ProjectorError,
                           match=f"map {n - 2}<-{n} is not p-sandwiched"):
            projectors._d_map(n, bad)
        with pytest.raises(projectors.ProjectorError,
                           match="not p-sandwiched"):
            sandwiched(bad * projectors.jw(n))


def test_un_dn_make_no_state_product_but_p_n_and_the_maps(monkeypatch):
    """Operation-count gate: building un(0..5) and dn(2..6) from an empty
    projector cache makes no product whose result has 2^m rows and 2^n
    columns, other than p_n = B_n B_n^+ once per level read (2..7), its
    right factor holding at most (floor(n/2) + 1)(ceil(n/2) + 1) columns
    of B_n^+, and the .mat products p_{n+2} X and X' p_n once per map.
    The dotted cup and cap words are evaluated and the strand steps
    L_1(g) read before counting; evaluate_word and _strand_level cache
    them, so the count does not depend on the tests run before."""
    evaluate_word(DOTTED_CUP), evaluate_word(DOTTED_CAP)
    for g in "efh":
        statespace._strand_level(g, P0)
    monkeypatch.setattr(projectors, "_jw_cache", {})
    shapes = []
    right_columns = {}
    real = PolyMatrix.__mul__

    def recorded(self, other):
        shapes.append(((self.n_out, self.n_in), (other.n_out, other.n_in)))
        if self.n_out == other.n_in >= 0 > self.n_in:  # p_n = B_n B_n^+
            right_columns[self.n_out] = len(other._packed()[1])
        return real(self, other)

    monkeypatch.setattr(PolyMatrix, "__mul__", recorded)
    for n in range(6):
        projectors.un(n, P0)
    for n in range(2, 7):
        projectors.dn(n, P0)
    states = [s for s in shapes if min(s[0][0], s[1][1]) >= 0]
    want = [((n, SIDE(n)), (SIDE(n), n)) for n in range(2, 8)]
    want += [((n + 2, n + 2), (n + 2, n)) for n in range(6)]
    want += [((n - 2, n), (n, n)) for n in range(2, 7)]
    assert sorted(states) == sorted(want)
    assert len(shapes) > len(states)
    # one column of B_n^+ per (|S|, #odd positions in S) class: 20 of 128
    # at n = 7
    assert right_columns == {n: (n // 2 + 1) * ((n + 1) // 2 + 1)
                             for n in range(2, 8)}


def test_perturbed_basis_fails_the_stability_checks():
    """Negative controls of the read-off oracle's two checks, on a basis
    pair of level 4: one perturbed entry of B_4 fails the image check for
    each g; B_4^+ + Y(id - p_4), still a left inverse of B_4, passes it and
    fails the kernel check."""
    n = 4
    b, bp = projectors._basis(n)
    y = PolyMatrix(SIDE(n), n, {(0, 1): 1})
    bp_bad = bp + y * (PolyMatrix.identity(n) - b * bp)
    assert bp_bad * b == PolyMatrix.identity(SIDE(n)) and bp_bad != bp
    for pair, part in (((entry_added(b, E1), bp), "image"),
                       ((b, bp_bad), "kernel")):
        for g in "efh":
            with pytest.raises(projectors.ProjectorError,
                               match=f"p_4's {part} is not {g}-stable"):
                level_read_off(g, n, basis=pair)
