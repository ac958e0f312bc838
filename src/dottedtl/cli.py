"""Command-line interface.

Exit status: 0 when every requested check passes, 1 when a check fails
(the failing report is printed, as JSON with --json), 2 on usage errors.
A command raises the package's error on bad input, or OSError on a file it
cannot open, and main prints it as "error: ..." on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import expr, kirby, lasagna, projectors, selftest
from .ring import RingError
from .words import DtlParams, WordError, verify_relations


def _default_depth(fallback: int) -> str:
    """DOTTEDTL_DEPTH, else fallback, as text: argparse converts a text
    default with the option's type only when the option is not given."""
    return os.environ.get("DOTTEDTL_DEPTH", str(fallback))


def _depth(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad depth {text!r} (from --depth or DOTTEDTL_DEPTH)")


def _params(text: str) -> DtlParams:
    try:
        return DtlParams.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad parameter pair {text!r}: {exc}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _emit(report: dict, as_json: bool, lines) -> int:
    if as_json:
        print(json.dumps(report, sort_keys=True, default=str))
    else:
        for line in lines:
            print(line)
    return 0 if report.get("ok") else 1


def _cmd_verify(args) -> int:
    rep = verify_relations(args.params, n_max=args.n_max)
    lines = [
        f"relations at (a1, a2) = ({args.params.a1}, {args.params.a2}), "
        f"ambient width up to {args.n_max}"
    ]
    fails = [c for c in rep["checks"] if c["status"] != "pass"]
    lines.append(f"checks: {len(rep['checks'])}, failures: {len(fails)}")
    for c in fails:
        lines.append(f"FAIL {c['relation']} under {c['generator'] or 'eval'}")
    lines.append("PASS" if rep["ok"] else "FAIL")
    return _emit(rep, args.json, lines)


def _cmd_jw(args) -> int:
    n = args.n
    m = projectors.jw(n)
    checks = [("idempotent", projectors.idempotent(n)),
              ("matches symmetrizer", m == projectors.jw_bruteforce(n))]
    rep = {
        "n": n,
        "checks": [{"check": c, "status": "pass" if ok else "fail"}
                   for c, ok in checks],
        "ok": all(ok for _, ok in checks),
    }
    lines = [f"projector on {n} strands"]
    if n <= expr._macro_bound("jw"):
        text = expr.print_combo(expr._jw_combo(n))
        rep["diagram_form"] = text
        lines.append(text)
    lines += [f"{c}: {'pass' if ok else 'FAIL'}" for c, ok in checks]
    return _emit(rep, args.json, lines)


def _cmd_quiver(args) -> int:
    rep = projectors.quiver_check(args.n_max, args.params)
    fails = [c for c in rep["checks"] if c["status"] != "pass"]
    lines = [f"quiver relations up to {args.n_max} strands "
             f"at (a1, a2) = ({args.params.a1}, {args.params.a2})"]
    lines += [f"FAIL {c}" for c in fails]
    lines.append("PASS" if rep["ok"] else "FAIL")
    return _emit(rep, args.json, lines)


def _cmd_kirby(args) -> int:
    J = args.levels - 1
    if J < 1:
        raise kirby.KirbyError("need at least two levels")
    kirby.check_size(args.k, J)
    try:
        system = kirby.build_kirby(args.k, J, args.a2)
    except kirby.KirbyError as exc:
        rep = {"k": args.k, "levels": args.levels, "a2": str(args.a2),
               "ok": False, "error": str(exc)}
        return _emit(rep, args.json, [f"FAIL {exc}"])
    rep = system.report()
    comp = kirby.composite_check(system)
    rep["composites"] = comp["checks"]
    rep["ok"] = rep["ok"] and comp["ok"]
    lines = [f"Kirby system k={args.k}, {args.levels} levels, a2={args.a2}"]
    for lv in rep["levels"]:
        lines.append(f"  level n={lv['n']}: twist {lv['twist_a']}, "
                     f"shift {lv['q_shift']}")
    for c in rep["maps"]:
        lines.append(f"  {c['map']}: star-annihilated, net degree 0")
    for c in rep["composites"]:
        lines.append(f"  {c['composite']}: {c['status']} "
                     f"({c['star_check']})")
    lines.append("PASS" if rep["ok"] else "FAIL")
    return _emit(rep, args.json, lines)


def _cmd_b4(args) -> int:
    rep = lasagna.b4_report(args.depth)
    lines = [f"ball invariant module, depth {args.depth}"]
    lines.append("summands: Mdual(0) + "
                 + " + ".join(f"M({-4 * j})"
                              for j in range(1, args.depth // 4 + 1)))
    lines.append(f"highest weights: {rep['hwv_weights']}")
    lines.append(f"locally finite part: "
                 + ", ".join(f"L({s['lambda']})" for s in rep["zuckerman"]))
    for c in rep["checks"]:
        if c["status"] != "pass":
            lines.append(f"FAIL {c['check']}")
    lines.append("PASS" if rep["ok"] else "FAIL")
    return _emit(rep, args.json, lines)


def _cmd_b2s2(args) -> int:
    # the file is opened first, so a bad path fails before the summary runs
    with open(args.summary, "w") if args.summary else nullcontext() as fh:
        rep = lasagna.summary_report(args.depth)
        rep["status"] = "pass" if rep["ok"] else "fail"
        if fh:
            json.dump(rep, fh, sort_keys=True, default=str, indent=2)
            fh.write("\n")
    lines = [f"double sphere invariant module, depth {args.depth}"]
    for c in rep["claims"]:
        lines.append(f"  {c['status']:4}  {c['claim']}")
    lines.append(rep["caveat"])
    lines.append("PASS" if rep["ok"] else "FAIL")
    return _emit(rep, args.json, lines)


def _cmd_eval(args) -> int:
    combo = expr.parse_expr(args.expression)
    text = expr.normalized_string(combo)
    rep = {"expression": args.expression, "normalized": text,
           "shape": [combo.n_in, combo.n_out], "ok": True}
    return _emit(rep, args.json, [text])


def _cmd_selftest(args) -> int:
    rep = selftest.run_all(seed=args.seed, timings=args.timings)
    lines = []
    for r in rep["criteria"]:
        status = "pass" if r["ok"] else "FAIL"
        suffix = f"  [{r['seconds']}s]" if args.timings else ""
        lines.append(f"{r['criterion']:3}. {status:4}  {r['name']}{suffix}")
    lines.append("PASS" if rep["ok"] else "FAIL")
    return _emit(rep, args.json, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dottedtl",
        description="exact computations in the dotted diagram category",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")

    p = sub.add_parser("dtl-verify", help="check the defining relations and "
                       "their preservation under the action")
    p.add_argument("--params", type=_params, default=DtlParams(),
                   metavar="A1,A2", help="action parameters, e.g. 1,1/2")
    p.add_argument("--n-max", type=int, default=4)
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("jw", help="build and check a projector")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(fn=_cmd_jw)

    p = sub.add_parser("quiver", help="check the projector-level relation "
                       "quiver")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--params", type=_params, default=DtlParams(),
                   metavar="A1,A2")
    common(p)
    p.set_defaults(fn=_cmd_quiver)

    p = sub.add_parser("kirby-certify", help="build a truncated Kirby "
                       "system and certify its maps")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--a2", type=_fraction, default=Fraction(0))
    common(p)
    p.set_defaults(fn=_cmd_kirby)

    p = sub.add_parser("decompose-b4", help="decompose the ball invariant "
                       "module")
    p.add_argument("--depth", type=_depth, default=_default_depth(40))
    common(p)
    p.set_defaults(fn=_cmd_b4)

    p = sub.add_parser("decompose-b2s2", help="decompose the double sphere "
                       "invariant module")
    p.add_argument("--depth", type=_depth, default=_default_depth(20))
    p.add_argument("--summary", metavar="FILE",
                   help="also write the JSON summary to FILE")
    common(p)
    p.set_defaults(fn=_cmd_b2s2)

    p = sub.add_parser("eval-expr", help="evaluate a diagram expression and "
                       "normalize it over the outer-dot matching basis")
    p.add_argument("expression")
    common(p)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("selftest", help="run the full certification battery")
    p.add_argument("--seed", type=int, default=selftest.DEFAULT_SEED)
    p.add_argument("--timings", action="store_true")
    common(p)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (expr.ExprError, kirby.KirbyError, lasagna.LasagnaError,
            projectors.ProjectorError, RingError, WordError,
            OSError) as exc:  # bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
