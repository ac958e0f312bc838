"""Acceptance gate: the thirteen certification criteria, exact equality
throughout, one pass/fail line each (run with -v)."""

from dottedtl import selftest

SEED = selftest.DEFAULT_SEED


def test_01_sl2_brackets_on_generators_and_random_words():
    rep = selftest.criterion_brackets(SEED)
    assert rep["ok"], rep


def test_02_relation_preservation_under_action():
    rep = selftest.criterion_relations()
    assert rep["ok"], rep


def test_03_projectors_idempotent_capkilled_symmetrizer():
    rep = selftest.criterion_projectors()
    assert rep["ok"], [c for c in rep["checks"] if c["status"] != "pass"]


def test_04_projector_action_lemma():
    rep = selftest.criterion_projector_action()
    assert rep["ok"], rep


def test_05_eigen_equations_for_cup_cap_dotsum():
    rep = selftest.criterion_eigenmaps()
    assert rep["ok"], rep


def test_06_quiver_relations():
    rep = selftest.criterion_quiver()
    assert rep["ok"], rep


def test_07_kirby_certification():
    rep = selftest.criterion_kirby()
    assert rep["ok"], rep["systems"]


def test_08_ball_module_decomposition():
    rep = selftest.criterion_ball()
    assert rep["ok"], rep


def test_09_closed_f_power_formula():
    rep = selftest.criterion_closed_form()
    assert rep["ok"], rep


def test_10_plus_part_decomposition():
    rep = selftest.criterion_plus_part()
    assert rep["ok"], rep


def test_11_minus_part_filtration():
    rep = selftest.criterion_minus_part()
    assert rep["ok"], rep


def test_12_intrinsic_point_identity():
    rep = selftest.criterion_intrinsic(SEED)
    assert rep["ok"], rep


def test_13_utilities_and_roundtrips():
    rep = selftest.criterion_utilities(SEED)
    assert rep["ok"], rep
