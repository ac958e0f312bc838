"""The three benchmark workloads: seeded inputs, timed bodies and output gates.

Each workload is one job a dottedtl user pays for in a fresh process.  A
workload has three parts:

* ``inputs(seed)`` draws everything the seed decides, before any timing;
* ``run(inputs)`` makes the timed calls into dottedtl's public functions and
  returns their outputs, verdicts included;
* ``gate(inputs, outputs, full)`` checks those outputs after the clock has
  stopped, against the program's own verdicts and against oracles that do
  not share the code path being timed.  It returns ``[(check, passed)]``.
  ``full`` adds the seed-independent oracles that cost more than the timed
  work itself; the benchmark runs them in the untraced process of each
  traced run.

Why these three: they put the cost in different layers.  ``kirby`` is the
``statespace`` product path at up to 128 states; ``lasagna`` is
``TruncatedModule`` construction over ``sl2``/``ring`` arithmetic with many
small ``exactla`` solves and no matrix product at all; ``diagrams`` uses the
same layers as ``kirby`` through thousands of tiny products, the word action
and a few large dense solves.  A kernel change that helps one shape and
hurts another shows on one of them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from dottedtl import expr, kirby, lasagna, projectors, statespace, words
from dottedtl.selftest import PARAM_SETS
from dottedtl.statespace import PolyMatrix
from dottedtl.words import Combo, DtlParams, Word

# Calls into dottedtl go through module attributes (words.act, not a name
# imported from words), so that the tracer's wrappers see them.

# -- kirby ---------------------------------------------------------------------

# Nonzero a2 values the seed picks from; seed 0 gives 1/2, the value of the
# selftest's Kirby criterion.  0 and +-1 are left out: at a2 = 1 the dotted
# cup's f-eigenvalue (1 - a2)E1 vanishes and at a2 = -1 the dotted cap's does.
KIRBY_A2 = [Fraction(1, 2), Fraction(1, 3), Fraction(-5, 2), Fraction(3, 2),
            Fraction(-2, 3)]
KIRBY_K = (0, 1)
# three levels: k + 2J <= 7 strands.  J = 4 (8 strands) is deferred: the
# (k=0, J=4) system alone takes about 29 s.
KIRBY_J = 3
QUIVER_N_MAX = 4


def kirby_inputs(seed: int) -> dict:
    return {"a2": [Fraction(0), KIRBY_A2[seed % len(KIRBY_A2)]]}


def kirby_run(inp: dict) -> dict:
    systems, quivers = [], []
    for a2 in inp["a2"]:
        for k in KIRBY_K:
            system = kirby.build_kirby(k, KIRBY_J, a2)
            systems.append((system, kirby.composite_check(system),
                            kirby.leibniz_closure_check(system)))
        quivers.append(projectors.quiver_check(
            QUIVER_N_MAX, DtlParams(Fraction(0), a2)))
    return {"systems": systems, "quivers": quivers}


def _composite_nonzero(second: PolyMatrix, first: PolyMatrix) -> bool:
    """second o first != 0, decided one column of first at a time."""
    for j, col in first.cols.items():
        column = PolyMatrix(first.n_out, first.n_in)
        column.cols[j] = dict(col)
        if not (second * column).is_zero():
            return True
    return False


def kirby_gate(inp: dict, out: dict, full: bool) -> list:
    checks = []
    for system, comp, closure in out["systems"]:
        tag = f"k={system.k},a2={system.a2}"
        checks.append((f"{tag} levels", len(system.levels) == KIRBY_J + 1))
        checks.append((f"{tag} maps certified",
                       len(system.certificates) == KIRBY_J and all(
                           c["star_annihilated"] and c["net_q_degree"] == 0
                           for c in system.certificates)))
        checks.append((f"{tag} composite report", comp["ok"]
                       and len(comp["checks"]) == KIRBY_J - 1))
        checks.extend((f"{tag} {c['composite']}", c["status"] == "pass")
                      for c in comp["checks"])
        checks.append((f"{tag} leibniz closure", closure is True))
        for j in range(KIRBY_J - 1):
            checks.append((f"{tag} composite {j} nonzero (oracle)",
                           _composite_nonzero(system.maps[j + 1].mat,
                                              system.maps[j].mat)))
    for q in out["quivers"]:
        checks.append(("quiver report", q["ok"] and len(q["checks"]) > 0))
        checks.extend((f"quiver {c['relation']}", c["status"] == "pass")
                      for c in q["checks"])
    # projectors against the brute-force symmetrizer; the top level costs
    # more than the whole timed job, so only full gates include it
    top = projectors.JW_BRUTE_BOUND if full else projectors.JW_BRUTE_BOUND - 1
    for n in range(top + 1):
        checks.append((f"jw({n}) = symmetrizer (oracle)",
                       projectors.jw(n) == projectors.jw_bruteforce(n)))
    return checks


# -- lasagna -------------------------------------------------------------------

LASAGNA_DEPTH = 40


def lasagna_inputs(seed: int) -> dict:
    return {"depth": LASAGNA_DEPTH}


def lasagna_run(inp: dict) -> dict:
    return {"summary": lasagna.summary_report(inp["depth"])}


def lasagna_gate(inp: dict, out: dict, full: bool) -> list:
    summary = out["summary"]
    checks = [("summary ok", summary["ok"] is True),
              ("summary depth", summary["depth"] == inp["depth"]),
              ("summary claims", len(summary["claims"]) == 8)]
    checks.extend((c["claim"], c["status"] == "pass")
                  for c in summary["claims"])
    checks.append(b4_weights_check(lasagna.b4_report(inp["depth"])))
    return checks


def b4_weights_check(b4: dict):
    """The ball module's highest weights are exactly 0, -4, ..., -depth."""
    want = list(range(0, -b4["depth"] - 1, -4))
    return ("b4 highest weights (oracle)",
            b4["ok"] is True and b4["hwv_weights"] == want)


# -- diagrams ------------------------------------------------------------------

# Word shapes (n_in, n_out, skeleton slices, dots).  The seed picks the words;
# these lists fix their mix of boundary width and dot count, because the cost
# of normalising grows steeply with both (one random 4 -> 4 word with five
# dots took 55 s), so an uncapped draw would change the workload with the seed.
SAMPLE_SHAPES = [(1, 1, 2, 1), (2, 2, 2, 1), (2, 2, 3, 2), (3, 1, 2, 1),
                 (1, 3, 2, 1), (3, 3, 2, 1), (2, 0, 2, 1), (0, 2, 2, 2)] * 2
NORMALIZE_SHAPES = [(1, 1, 2, 2), (2, 2, 2, 1), (2, 2, 3, 2), (3, 1, 2, 1),
                    (1, 3, 2, 1), (3, 3, 2, 0), (3, 3, 2, 1), (2, 0, 2, 1),
                    (0, 2, 2, 2), (2, 2, 2, 3)] * 2 + [(3, 3, 3, 2)] * 2
ROUNDTRIP_SHAPES = SAMPLE_SHAPES * 3
MAX_STRANDS = 4
README_EXPRESSIONS = ["jw(4) ; z(4)", "u(3)"]
RELATIONS_N_MAX = 4

# [h, e] = 2e, [h, f] = -2f, [e, f] = h
BRACKETS = [("h", "e", 2, "e"), ("h", "f", -2, "f"), ("e", "f", 1, "h")]


def shaped_word(rng, n_in, n_out, n_slices, n_dots):
    """A random word with the given boundary widths, skeleton height and
    exactly n_dots dots, every intermediate width at most MAX_STRANDS."""
    for _ in range(100000):
        w = words.random_word(rng, MAX_STRANDS, n_slices)
        if (w.n_in, w.n_out, len(w.slices)) == (n_in, n_out, n_slices):
            break
    else:
        raise RuntimeError(f"no word of shape {n_in}->{n_out} drawn")
    slices = [tuple("id" if p == "dot" else p for p in sl) for sl in w.slices]
    for _ in range(n_dots):
        widths = Word(slices).counts
        levels = [i for i, width in enumerate(widths) if width]
        level = rng.choice(levels)
        width = widths[level]
        k = rng.randrange(width)
        slices.insert(level,
                      ("id",) * k + ("dot",) + ("id",) * (width - 1 - k))
    return Word(slices)


def word_shape(w: Word):
    """(n_in, n_out, dots) of a word: the mix the seed must not change."""
    return (w.n_in, w.n_out, sum(sl.count("dot") for sl in w.slices))


def diagrams_inputs(seed: int) -> dict:
    rng = random.Random(seed)

    def draw(shapes):
        return [shaped_word(rng, *s) for s in shapes]

    samples = [words.primitive_combo(p) for p in ("id", "dot", "cup", "cap")]
    samples += [Combo.of(w) for w in draw(SAMPLE_SHAPES)]
    return {
        "samples": samples,
        "roundtrip": [Combo.of(w) for w in draw(ROUNDTRIP_SHAPES)],
        "normalize": [expr.print_word(w) for w in draw(NORMALIZE_SHAPES)]
        + README_EXPRESSIONS,
    }


def diagrams_run(inp: dict) -> dict:
    act = words.act
    brackets = []
    for p in PARAM_SETS:
        for x in inp["samples"]:
            for g1, g2, c, gout in BRACKETS:
                lhs = act(g1, act(g2, x, p), p) - act(g2, act(g1, x, p), p)
                rhs = act(gout, x, p).scale(c)
                brackets.append(lhs.evaluate() == rhs.evaluate())
    p0 = DtlParams(Fraction(0), Fraction(0))
    commutators = []
    for x in inp["samples"]:
        m = x.evaluate()
        for g in ("e", "f", "h"):
            commutators.append(
                act(g, x, p0).evaluate() == statespace.commutator_star(g, m))
    relations = [words.verify_relations(p, RELATIONS_N_MAX) for p in PARAM_SETS]
    roundtrips = []
    for x in inp["roundtrip"]:
        text = expr.print_combo(x)
        back = expr.parse_expr(text)
        roundtrips.append((text, back, (x - back).evaluate().is_zero()))
    normal = []
    for text in inp["normalize"]:
        combo = expr.parse_expr(text)
        normal.append((combo, expr.normalize_combo(combo)))
    return {"brackets": brackets, "commutators": commutators,
            "relations": relations, "roundtrips": roundtrips,
            "normal": normal}


def matching_words(n_in: int, n_out: int) -> set:
    """The words of the dotted matching spanning set of one shape."""
    return {words.matching_to_word(m, d, n_in, n_out)
            for m, d in words.dotted_spanning_set(n_in, n_out)}


def normal_form_check(text: str, combo: Combo, form: Combo):
    """The normal form uses only dotted matching words and, re-evaluated
    word by word through the state-space model, equals the input's matrix."""
    if (form.n_in, form.n_out) != (combo.n_in, combo.n_out):
        return (f"normal form of {text} (oracle)", False)
    total = PolyMatrix(combo.n_out, combo.n_in)
    for w, c in form.terms.items():
        total = total + words.evaluate_word(w).scale(c)
    return (f"normal form of {text} (oracle)",
            set(form.terms) <= matching_words(combo.n_in, combo.n_out)
            and total == combo.evaluate())


def diagrams_gate(inp: dict, out: dict, full: bool) -> list:
    checks = [(f"bracket {i}", ok) for i, ok in enumerate(out["brackets"])]
    checks += [(f"commutator {i}", ok)
               for i, ok in enumerate(out["commutators"])]
    for r in out["relations"]:
        checks.append((f"relations {r['params']}", r["ok"] is True))
        checks.extend((f"{c['relation']} under {c['generator']}",
                       c["status"] == "pass") for c in r["checks"])
    for text, back, same in out["roundtrips"]:
        checks.append((f"roundtrip {text}",
                       same and expr.print_combo(back) == text))
    for text, (combo, form) in zip(inp["normalize"], out["normal"]):
        checks.append(normal_form_check(text, combo, form))
    return checks


WORKLOADS = {
    "kirby": (kirby_inputs, kirby_run, kirby_gate),
    "lasagna": (lasagna_inputs, lasagna_run, lasagna_gate),
    "diagrams": (diagrams_inputs, diagrams_run, diagrams_gate),
}
