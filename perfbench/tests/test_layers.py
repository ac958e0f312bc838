"""Layer coverage: which boundaries each workload exercises, and the tracer
catching every alias of a boundary."""

import json
import os

import pytest

import run
import tracer
import workloads
from conftest import ROOT, child_report
from dottedtl import kirby, ring, selftest, words

# Layers where a workload does most of the work (calls > 0), and layers it
# must not touch at all (calls == 0).  A layer in neither list for a workload
# is used a little or not at all there and is not asserted.
MOST = {
    "kirby": ["statespace.matmul", "statespace.tensor",
              "statespace.elementwise", "projectors.jw_tracked",
              "projectors.un", "projectors.dn", "projectors.quiver_check",
              "kirby.build_kirby", "kirby.composite_check",
              "kirby.leibniz_closure_check", "kirby.star_act_twisted"],
    "lasagna": ["ring.poly_mul", "ring.poly_add", "sl2.apply", "exactla.rref",
                "rep.TruncatedModule", "rep.apply",
                "rep.highest_weight_vectors", "rep.verify_claim",
                "rep.zuckerman", "lasagna.summary_report"],
    "diagrams": ["statespace.matmul", "statespace.tensor",
                 "statespace.elementwise", "statespace.commutator_star",
                 "words.act", "words.evaluate_word", "words.matching_matrix",
                 "expr.parse_expr", "expr.normalize_matrix", "exactla.rref"],
}
REP = [layer for layer in tracer.LAYERS if layer.startswith("rep.")]
KIRBY = [layer for layer in tracer.LAYERS if layer.startswith("kirby.")]
ZERO = {
    "kirby": ["exactla.rref", "expr.parse_expr", "expr.normalize_matrix",
              "lasagna.summary_report"] + REP,
    "lasagna": [layer for layer in tracer.LAYERS
                if layer.split(".")[0] in
                ("statespace", "words", "expr", "projectors", "kirby")],
    "diagrams": ["lasagna.summary_report"] + REP + KIRBY,
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_pattern(workload):
    layers = child_report(workload, 0, True)["layers"]
    busy = [layer for layer in MOST[workload]
            if layers[f"{layer}.calls"] == 0]
    idle = [layer for layer in ZERO[workload]
            if layers[f"{layer}.calls"] != 0]
    assert (busy, idle) == ([], [])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_trace_reports_every_per_layer_metric(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    layers = child_report(workload, 0, True)["layers"]
    reported = {name: run.layer_unit(name) for name in layers}
    reported["trace_overhead"] = "ratio"
    assert reported == declared


def test_every_alias_is_wrapped():
    originals = {"selftest.act": selftest.act, "kirby.un": kirby.un,
                 "rmul": ring.GradedPoly.__dict__["__rmul__"]}
    t = tracer.Tracer()
    t.install()
    try:
        assert t.unwrapped() == []
        assert selftest.act is words.act
        assert workloads.words.act.__wrapped__ is originals["selftest.act"]
        assert kirby.un.__wrapped__ is originals["kirby.un"]
        assert ring.GradedPoly.__dict__["__rmul__"].__wrapped__ \
            is originals["rmul"]
        # an alias the installation did not see is reported
        selftest._stray_alias = originals["selftest.act"]
        try:
            assert t.unwrapped() == ["dottedtl.selftest._stray_alias"]
        finally:
            del selftest._stray_alias
    finally:
        t.uninstall()
    assert selftest.act is originals["selftest.act"]
    assert kirby.un is originals["kirby.un"]


def test_self_times_are_nonnegative_and_cover_traced_work():
    layers = child_report("lasagna", 0, True)["layers"]
    selfs = {k: v for k, v in layers.items() if k.endswith(".self_s")}
    assert min(selfs.values()) >= 0
    assert sum(selfs.values()) > 0
