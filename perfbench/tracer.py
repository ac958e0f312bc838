"""Per-layer tracing of dottedtl from outside the package.

The tracer replaces the public boundaries of dottedtl's modules with timing
wrappers, in a process of its own.  A wrapped function is swapped in every
namespace that holds it, dottedtl's modules and the benchmark's CALLERS (so
``from .words import act`` aliases are caught), and a wrapped method in
every slot of its class that holds it (so ``__rmul__ = __mul__`` aliases
are caught).

Each call of a boundary opens a frame.  A layer's self time is the frame's
duration minus the time its child frames cover.  Boundaries marked
``aggregate`` are hot leaves (``ring.*``, ``statespace.elementwise``,
``rep.apply``): they keep no span of their own but add their calls and time
to the nearest recorded span above them.  Every other call is kept as a
span ``(id, name, start, end, parent)`` in memory and written out at the end.

Counters are computed after a call's clock stops, and the time they take is
charged to no layer, so they do not inflate self times.  The whole traced
run is slower than an untraced one; the benchmark reports the ratio as
``trace_overhead``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

from dottedtl import (exactla, expr, kirby, lasagna, projectors, rep, ring,
                      sl2, statespace, words)

PACKAGE = "dottedtl"
# benchmark modules that call into dottedtl and are patched like its own
CALLERS = ("workloads",)


# -- counters -----------------------------------------------------------------

def _count_matmul(tracer, layer, args, kwargs, result, token):
    a, b = args
    mults = 0
    for ocol in b.cols.values():
        for k, v in ocol.items():
            scol = a.cols.get(k)
            if scol:
                nv = len(v.terms)
                for w in scol.values():
                    mults += len(w.terms) * nv
    layer["scalar_mults"] += mults
    layer["nnz_out"] += result.nnz()
    states = max(2 ** a.n_out, 2 ** a.n_in, 2 ** b.n_in)
    if states > layer["max_states"]:
        layer["max_states"] = states


def _count_poly_mul(tracer, layer, args, kwargs, result, token):
    a, b = args
    if isinstance(b, ring.GradedPoly):
        layer["scalar_mults"] += len(a.terms) * len(b.terms)
    else:
        layer["scalar_mults"] += len(a.terms)


def _count_act(tracer, layer, args, kwargs, result, token):
    layer["terms_out"] += len(result.terms)


def _count_rref(tracer, layer, args, kwargs, result, token):
    rows = args[0]
    ncols = len(rows[0]) if rows else 0
    cells = len(rows) * ncols
    layer["cells"] += cells
    if cells > layer["max_cells"]:
        layer["max_cells"] = cells
    tracer.rref_unknowns += max(ncols - 1, 0)


def _enter_normalize(tracer, args, kwargs):
    return tracer.rref_unknowns


def _count_normalize(tracer, layer, args, kwargs, result, token):
    layer["unknowns"] += tracer.rref_unknowns - token


def _memo_counter(key_fn):
    """Count a call as a hit when it returns the very object an earlier call
    with the same key returned, i.e. when the program served it from a cache."""

    def count(tracer, layer, args, kwargs, result, token):
        key = (layer["name"], key_fn(*args, **kwargs))
        seen = tracer.memo.get(key)
        if seen is result:
            layer["hits"] += 1
        else:
            tracer.memo[key] = result

    return count


def _jw_key(n, params=words.DtlParams()):
    return n, params


def _count_module(tracer, layer, args, kwargs, result, token):
    module = args[0]
    layer["basis_size"] += len(module.basis)
    twist = module.twist
    key = (id(module.ring), id(module.spec), tuple(module.basis), module.depth,
           None if twist is None else (twist.a, twist.shift))
    tracer.distinct_modules.add(key)
    layer["distinct"] = len(tracer.distinct_modules)


# -- the boundaries -------------------------------------------------------------

class Boundary:
    """One public entry point of a dottedtl module and how to count it."""

    def __init__(self, layer, owner, attr, count=None, enter=None,
                 aggregate=False, counters=()):
        self.layer = layer
        self.owner = owner          # a module, or a class for methods
        self.attr = attr
        self.count = count
        self.enter = enter
        self.aggregate = aggregate
        self.counters = counters


PM = statespace.PolyMatrix
GP = ring.GradedPoly
TM = rep.TruncatedModule

BOUNDARIES = [
    Boundary("ring.poly_mul", GP, "__mul__", _count_poly_mul,
             aggregate=True, counters=("scalar_mults",)),
    Boundary("ring.poly_add", GP, "__add__", aggregate=True),
    Boundary("sl2.apply", sl2.Sl2ActionSpec, "apply"),
    Boundary("statespace.matmul", PM, "__mul__", _count_matmul,
             counters=("scalar_mults", "nnz_out", "max_states")),
    Boundary("statespace.tensor", PM, "tensor"),
    Boundary("statespace.elementwise", PM, "__add__", aggregate=True),
    Boundary("statespace.elementwise", PM, "__sub__", aggregate=True),
    Boundary("statespace.elementwise", PM, "scale", aggregate=True),
    Boundary("statespace.elementwise", PM, "__eq__", aggregate=True),
    Boundary("statespace.commutator_star", statespace, "commutator_star"),
    Boundary("words.act", words, "act", _count_act, counters=("terms_out",)),
    Boundary("words.evaluate_word", words, "evaluate_word",
             _memo_counter(lambda w: w), counters=("hits",)),
    Boundary("words.matching_matrix", words, "matching_matrix"),
    Boundary("expr.parse_expr", expr, "parse_expr"),
    Boundary("expr.normalize_matrix", expr, "normalize_matrix",
             _count_normalize, enter=_enter_normalize, counters=("unknowns",)),
    Boundary("exactla.rref", exactla, "rref", _count_rref,
             counters=("cells", "max_cells")),
    Boundary("projectors.jw_tracked", projectors, "jw_tracked",
             _memo_counter(_jw_key), counters=("hits",)),
    Boundary("projectors.un", projectors, "un"),
    Boundary("projectors.dn", projectors, "dn"),
    Boundary("projectors.quiver_check", projectors, "quiver_check"),
    Boundary("kirby.build_kirby", kirby, "build_kirby"),
    Boundary("kirby.composite_check", kirby, "composite_check"),
    Boundary("kirby.leibniz_closure_check", kirby, "leibniz_closure_check"),
    Boundary("kirby.star_act_twisted", kirby, "star_act_twisted"),
    Boundary("rep.TruncatedModule", TM, "__init__", _count_module,
             counters=("basis_size", "distinct")),
    Boundary("rep.apply", TM, "apply", aggregate=True),
    Boundary("rep.highest_weight_vectors", TM, "highest_weight_vectors"),
    Boundary("rep.verify_claim", rep, "verify_claim"),
    Boundary("rep.zuckerman", rep, "zuckerman"),
    Boundary("lasagna.summary_report", lasagna, "summary_report"),
]

LAYERS = list(dict.fromkeys(b.layer for b in BOUNDARIES))


def namespaces():
    """The package, its loaded submodules and the loaded CALLERS."""
    return [m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType)
            and (name == PACKAGE or name.startswith(PACKAGE + ".")
                 or name in CALLERS)]


class Tracer:
    """Installs the wrappers and holds the spans and counters they record."""

    def __init__(self):
        self.clock = time.perf_counter
        # a frame is [start, time covered by children, id of the nearest span]
        self.stack = [[0.0, 0.0, None]]
        self.spans = []
        self.next_span = 0
        self.aggregates = {}        # (parent span, layer) -> [calls, seconds]
        self.layers = {}
        self.memo = {}
        self.distinct_modules = set()
        self.rref_unknowns = 0
        self.installed = []         # (owner, attr, original)
        for b in BOUNDARIES:
            layer = self.layers.setdefault(
                b.layer, {"name": b.layer, "calls": 0, "self_s": 0.0})
            for c in b.counters:
                layer.setdefault(c, 0)

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, b: Boundary, fn):
        tracer = self
        clock = self.clock
        stack = self.stack
        layer = self.layers[b.layer]
        count, enter, aggregate, name = b.count, b.enter, b.aggregate, b.layer

        def traced(*args, **kwargs):
            token = enter(tracer, args, kwargs) if enter else None
            if aggregate:
                span = stack[-1][2]
            else:
                span = tracer.next_span
                tracer.next_span += 1
            frame = [clock(), 0.0, span]
            stack.append(frame)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                start = frame[0]
                layer["calls"] += 1
                layer["self_s"] += end - start - frame[1]
                if aggregate:
                    agg = tracer.aggregates.get((span, name))
                    if agg is None:
                        agg = tracer.aggregates[(span, name)] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += end - start
                else:
                    tracer.spans.append(
                        (span, name, start, end, stack[-1][2]))
                if count and returned:
                    count(tracer, layer, args, kwargs, result, token)
                stack[-1][1] += clock() - start

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every boundary wherever dottedtl's namespaces hold it."""
        modules = namespaces()
        for b in BOUNDARIES:
            original = b.owner.__dict__[b.attr]
            wrapped = self._wrap(b, original)
            if isinstance(b.owner, type):
                slots = [(b.owner, k) for k, v in vars(b.owner).items()
                         if v is original]
            else:
                slots = [(m, k) for m in modules for k, v in vars(m).items()
                         if v is original]
            for owner, key in slots:
                setattr(owner, key, wrapped)
                self.installed.append((owner, key, original))
        missed = self.unwrapped()
        if missed:
            raise RuntimeError(f"boundaries left unwrapped: {missed}")

    def unwrapped(self):
        """Module attributes, containers and class slots in namespaces() that
        still hold an original boundary object after installation."""
        originals = {id(o) for _, _, o in self.installed}
        missed = []
        for m in namespaces():
            for k, v in vars(m).items():
                values = [v]
                if isinstance(v, dict):
                    values = list(v.values())
                elif isinstance(v, (list, tuple)):
                    values = list(v)
                elif isinstance(v, type) and v.__module__.startswith(PACKAGE):
                    values = list(vars(v).values())
                missed.extend(f"{m.__name__}.{k}" for x in values
                              if id(x) in originals)
        return sorted(set(missed))

    def uninstall(self):
        for owner, key, original in reversed(self.installed):
            setattr(owner, key, original)
        self.installed.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat per-layer metrics: calls, self_s and the layer's counters."""
        out = {}
        for name, layer in self.layers.items():
            calls = layer["calls"]
            for key, value in layer.items():
                if key == "name":
                    continue
                if key == "hits":
                    out[f"{name}.hit_ratio"] = value / calls if calls else 0.0
                elif key == "distinct":
                    out[f"{name}.distinct_ratio"] = (
                        value / calls if calls else 0.0)
                else:
                    out[f"{name}.{key}"] = value
        return out

    def dump(self, path):
        """Write the spans and the per-parent leaf aggregates as JSON."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "aggregated_layers": sorted(
                {b.layer for b in BOUNDARIES if b.aggregate}),
            "aggregates": [
                {"parent": span, "name": name, "calls": c, "seconds": s}
                for (span, name), (c, s) in self.aggregates.items()
            ],
            "layers": self.metrics(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

