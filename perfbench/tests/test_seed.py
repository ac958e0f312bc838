"""Seeds change the inputs, not the workload; counts repeat exactly."""

import pytest

import run
import workloads
from conftest import child_report

DETERMINISTIC = (".calls", ".scalar_mults", ".nnz_out", ".max_states",
                 ".terms_out", ".hit_ratio", ".unknowns", ".cells",
                 ".max_cells", ".basis_size", ".distinct_ratio")


def diagram_mix(seed):
    inp = workloads.diagrams_inputs(seed)
    mix = {key: [workloads.word_shape(w) for c in inp[key] for w in c.terms]
           for key in ("samples", "roundtrip")}
    return mix, inp


def test_diagram_words_change_but_their_mix_does_not():
    mix0, inp0 = diagram_mix(0)
    mix1, inp1 = diagram_mix(1)
    assert mix0 == mix1
    assert inp0["normalize"] != inp1["normalize"]
    assert [repr(c) for c in inp0["samples"]] != \
        [repr(c) for c in inp1["samples"]]


def test_normalize_inputs_keep_their_shapes():
    for seed in (0, 1):
        inp = workloads.diagrams_inputs(seed)
        drawn = inp["normalize"][:len(workloads.NORMALIZE_SHAPES)]
        shapes = [workloads.word_shape(
            next(iter(workloads.expr.parse_expr(t).terms))) for t in drawn]
        assert shapes == [(a, b, d) for a, b, _, d
                          in workloads.NORMALIZE_SHAPES]


def test_kirby_seed_picks_a_nonzero_a2():
    picked = {workloads.kirby_inputs(s)["a2"][1] for s in range(10)}
    assert picked == set(workloads.KIRBY_A2)
    assert workloads.kirby_inputs(0)["a2"][1] == workloads.Fraction(1, 2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_checks_total_does_not_depend_on_the_seed(workload):
    a = child_report(workload, 0, True)
    b = child_report(workload, 1, False)
    assert a["checks_total"] == b["checks_total"] > 0
    assert a["checks_failed"] == b["checks_failed"] == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_at_the_same_seed(workload):
    first = child_report(workload, 0, True)["layers"]
    second = child_report(workload, 0, True, repeat=1)["layers"]
    keys = [k for k in first if k.endswith(DETERMINISTIC)]
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
