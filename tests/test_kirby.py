"""Twisted projector systems and the star action."""

from fractions import Fraction

import pytest

from dottedtl import kirby
from dottedtl.ring import E_RING
from dottedtl.sl2 import GENERATORS, DtlParams, TwistData
from dottedtl.statespace import PolyMatrix, commutator_star
from dottedtl.words import Combo, Word
from dottedtl.projectors import TrackedMor, un


def test_level_twist_flatness():
    for n in range(0, 9, 2):
        for a2 in (Fraction(0), Fraction(1, 2)):
            t = kirby.level_twist(n, a2)
            kirby.TwistedObject(n, t)  # raises if not flat
            assert t.q_shift == -n


def test_twist_family_is_flat():
    # every a*E1 twist is flat, whatever the shift; the constructor guard
    # re-checks this as a regression fence
    from dottedtl.sl2 import check_flat_twist

    for a in (Fraction(1), Fraction(-7, 3)):
        t = TwistData(a, q_shift=5)
        assert check_flat_twist(t)
        kirby.TwistedObject(2, t)


def test_small_system_certifies():
    system = kirby.build_kirby(0, 2, Fraction(0))
    rep = system.report()
    assert rep["ok"]
    assert [lv["n"] for lv in rep["levels"]] == [0, 2, 4]
    assert all(c["star_annihilated"] for c in rep["maps"])


def test_star_action_shape_check():
    system = kirby.build_kirby(1, 1, Fraction(0))
    F = system.maps[0]
    with pytest.raises(kirby.KirbyError):
        kirby.star_act_twisted("e", F, system.levels[1], system.levels[0])


def test_star_twist_correction():
    """With the wrong target twist the map is no longer annihilated."""
    system = kirby.build_kirby(0, 1, Fraction(0))
    F = system.maps[0]
    src, tgt = system.levels
    assert kirby.star_act_twisted("f", F, src, tgt).is_zero()
    wrong = kirby.TwistedObject(tgt.n, kirby.level_twist(tgt.n + 2, Fraction(0)))
    assert not kirby.star_act_twisted("f", F, src, wrong).is_zero()


def test_untwisted_map_not_equivariant():
    """The raw dotted cup map has a nonzero f-image without the twist."""
    p = DtlParams(Fraction(0), Fraction(0))
    u = un(2, p)
    assert not commutator_star("f", u.mat, params=p).is_zero()


def test_level_twisted_action_is_a2_independent():
    """With the level twists folded in, the action on maps P_n -> P_{n+2}
    does not depend on a2: the net f-correction is -E1 and the net
    h-correction is +2, on U_n and on a map that is not equivariant."""
    E1 = E_RING.gen("E1")
    n = 2
    mats = [un(n).mat, Combo.of(Word((("id", "id", "cup"),))).evaluate()]
    for F in mats:
        base = {g: commutator_star(g, F) for g in GENERATORS}
        want = {"e": base["e"], "f": base["f"] - F.scale(E1),
                "h": base["h"] + F.scale(E_RING.const(2))}
        for a2 in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
            src = kirby.level_twist(n, a2)
            tgt = kirby.level_twist(n + 2, a2)
            p = DtlParams(Fraction(0), a2)
            for g in GENERATORS:
                assert commutator_star(g, F, src, tgt, p) == want[g]
    assert not want["f"].is_zero()


def test_strand_bound():
    with pytest.raises(kirby.KirbyError):
        kirby.build_kirby(1, 4, Fraction(0))


def test_composites_and_closure():
    system = kirby.build_kirby(0, 3, Fraction(1, 2))
    comp = kirby.composite_check(system)
    assert comp["ok"]
    assert kirby.leibniz_closure_check(system)


def test_net_degree_zero():
    system = kirby.build_kirby(1, 2, Fraction(0))
    for F, j in zip(system.maps, range(2)):
        deg = F.mat.qdegree()
        src, tgt = system.levels[j], system.levels[j + 1]
        assert deg + tgt.twist.q_shift - src.twist.q_shift == 0


def test_every_composite_is_checked_directly():
    system = kirby.build_kirby(1, 3, Fraction(1, 2))
    comp = kirby.composite_check(system)
    assert comp["ok"]
    assert [c["composite"] for c in comp["checks"]] == ["U_3 o U_1",
                                                       "U_5 o U_3"]
    assert all(c["star_check"] == "direct" for c in comp["checks"])
    assert kirby.leibniz_closure_check(system)


def test_perturbed_seven_strand_composite_fails():
    """A wrong twist on the 7-strand level breaks only the composite into it."""
    system = kirby.build_kirby(1, 3, Fraction(1, 2))
    top = system.levels[3]
    assert top.n == 7
    system.levels[3] = kirby.TwistedObject(
        top.n, kirby.level_twist(top.n + 2, system.a2))
    comp = kirby.composite_check(system)
    assert not comp["ok"]
    assert [c["status"] for c in comp["checks"]] == ["pass", "fail"]
    assert comp["checks"][1]["nonzero"]
    assert not comp["checks"][1]["star_annihilated"]


def test_check_size():
    kirby.check_size(0, 4)
    for k, J in ((-1, 1), (9, 0), (1, 4)):
        with pytest.raises(kirby.KirbyError):
            kirby.check_size(k, J)


def test_perturbed_level_map_is_not_annihilated():
    """One changed entry of a certified level map breaks its star action."""
    system = kirby.build_kirby(0, 1, Fraction(1, 2))
    F = system.maps[0]
    src, tgt = system.levels
    bad = TrackedMor(F.mat + _one_entry(F.mat, E_RING.one), F.params)
    assert all(kirby.star_act_twisted(g, F, src, tgt).is_zero()
               for g in GENERATORS)
    assert not all(kirby.star_act_twisted(g, bad, src, tgt).is_zero()
                   for g in GENERATORS)


def _one_entry(m, v):
    """A matrix of m's shape holding v at m's first stored entry."""
    (i, j), _ = next(iter(m.entries()))
    return PolyMatrix(m.n_out, m.n_in, {(i, j): v})


def _perturbed_map(F):
    return TrackedMor(F.mat + _one_entry(F.mat, E_RING.gen("E1")), F.params)


def test_swapped_map_is_recomputed_not_served_stale():
    """A level map replaced after the checks ran is read afresh.  Its
    composites are no longer star-annihilated, so composite_check fails.
    The Leibniz rule is an identity for any maps, so the closure check
    still holds; it holds here only because the swapped map's star images
    are recomputed: with the stored (zero) images of the old map its rhs
    would be zero, against a nonzero star image of the new composite."""
    system = kirby.build_kirby(0, 3, Fraction(1, 2))
    assert kirby.composite_check(system)["ok"]
    assert kirby.leibniz_closure_check(system)
    system.maps[1] = _perturbed_map(system.maps[1])
    comp = kirby.composite_check(system)
    assert not comp["ok"]
    assert [c["status"] for c in comp["checks"]] == ["fail", "fail"]
    src, tgt = system.levels[0], system.levels[2]
    assert any(not system.star(g, system.composite(0), src, tgt).is_zero()
               for g in GENERATORS)
    assert kirby.leibniz_closure_check(system)


def test_leibniz_check_reads_the_map_images():
    """A wrong star image of a map in the system's store breaks the
    Leibniz comparison with the composite's directly computed image."""
    system = kirby.build_kirby(0, 2, Fraction(1, 2))
    assert kirby.leibniz_closure_check(system)
    A = system.maps[0]
    src, mid = system.levels[0], system.levels[1]
    system._stars["f", A, src, mid] = A.mat  # nonzero, hence wrong
    assert not kirby.leibniz_closure_check(system)


def test_kirby_workload_computes_each_image_once(monkeypatch):
    """Operation-count gate on the benchmark's kirby calls: each U_n, D_n,
    z_n (and p_n) matrix is built once, U_n and D_n are certified once per
    a2, and each star image is computed once per system: 126
    commutator_star calls (66 certifying U_n and D_n, 36 certifying the
    level maps, 24 for the composites)."""
    from dottedtl import projectors

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return commutator_star(*args, **kwargs)

    built = []

    class RecordingCache(dict):
        def __setitem__(self, key, value):
            built.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(kirby, "commutator_star", counted)
    monkeypatch.setattr(projectors, "commutator_star", counted)
    monkeypatch.setattr(projectors, "_jw_cache", RecordingCache())
    a2s = (Fraction(0), Fraction(1, 2))
    for a2 in a2s:
        for k in (0, 1):
            system = kirby.build_kirby(k, 3, a2)
            assert kirby.composite_check(system)["ok"]
            assert kirby.leibniz_closure_check(system)
        assert projectors.quiver_check(4, DtlParams(Fraction(0), a2))["ok"]
    assert len(calls) == 126
    assert len(built) == len(set(built))
    maps = [("u", n) for n in range(6)] + [("d", n) for n in range(2, 7)]
    certified = [(kind, n, DtlParams(Fraction(0), a2))
                 for kind, n in maps for a2 in a2s]
    zs = [("z", n) for n in range(7)]
    assert set(built) == set(range(8)) | set(maps) | set(zs) | set(certified)


def test_kirby_workload_kernels_build_no_graded_poly(monkeypatch):
    """Operation-count gate on the benchmark's kirby calls: the matrix
    kernels (product, commutator_star, scale, +, -, negation, tensor) read
    and write packed int tables and build no GradedPoly.  GradedPoly values
    are counted by wrapping GradedPoly.__init__ while a kernel is on the
    stack.  The cached operators G_n are built from the twist polynomial
    TwistData.tau, outside the kernels, so one warm-up pass fills that
    cache before counting; the projector cache starts empty in both passes,
    so the counted pass makes every product afresh."""
    from dottedtl import projectors, statespace
    from dottedtl.ring import GradedPoly

    def run_workload():
        monkeypatch.setattr(projectors, "_jw_cache", {})
        for a2 in (Fraction(0), Fraction(1, 2)):
            for k in (0, 1):
                system = kirby.build_kirby(k, 3, a2)
                assert kirby.composite_check(system)["ok"]
                assert kirby.leibniz_closure_check(system)
            assert projectors.quiver_check(4, DtlParams(Fraction(0), a2))["ok"]

    depth = [0]
    kernel_calls = []
    built_inside = []
    real_init = GradedPoly.__init__

    def counting_init(self, *args, **kwargs):
        if depth[0]:
            built_inside.append(kernel_calls[-1])
        real_init(self, *args, **kwargs)

    def entered(name, fn):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            kernel_calls.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    run_workload()
    monkeypatch.setattr(GradedPoly, "__init__", counting_init)
    for name in ("__mul__", "scale", "__add__", "__sub__", "__neg__",
                 "tensor"):
        monkeypatch.setattr(PolyMatrix, name,
                            entered(name, getattr(PolyMatrix, name)))
    star = entered("commutator_star", commutator_star)
    for module in (statespace, kirby, projectors):
        monkeypatch.setattr(module, "commutator_star", star)
    run_workload()
    assert kernel_calls.count("commutator_star") == 126
    assert {"__mul__", "scale", "__add__", "__sub__", "__neg__",
            "tensor"} <= set(kernel_calls)
    assert built_inside == []
