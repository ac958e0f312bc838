"""dottedtl benchmark: cold-process certification jobs, timed from outside.

    python3 perfbench/run.py --workload kirby|lasagna|diagrams --seed N
                             --seconds 30 --trace 0|1

Every timed job runs in a fresh Python process (``child.py``), one at a
time, with no threads, so each number is what a command-line user pays for
one verdict.  With ``--trace 0`` the run repeats the workload in fresh
processes for about ``--seconds`` seconds (at least MIN_ITERATIONS times),
starting SETUP_REPEATS processes that only import dottedtl before each, and
reports the medians of the end-to-end metrics.  With ``--trace 1`` it runs the workload
once untraced and once with the per-layer tracer, and reports the tracer's
metrics plus ``trace_overhead``, the traced over the untraced ``wall_s``.
Spans go to ``.perfbench_out/`` in the checkout.

Every run gates the outputs: ``attempted`` counts the checks made and
``failed`` those that did not pass (``failed / attempted`` is the failed
checks ratio).  The last stdout line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("kirby", "lasagna", "diagrams")

SETUP_REPEATS = 4
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}
RATIO_SUFFIXES = ("hit_ratio", "distinct_ratio")


class ChildError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # fixed str hashing, so that the traced counts repeat exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args) -> dict:
    """Start one fresh process, wait for it, and return its JSON report."""
    cmd = [sys.executable, "-s", CHILD,
           "--spawned", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd + list(args), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildError(f"child {args} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float):
    """Cold workload runs for about `seconds`, each after SETUP_REPEATS
    import-only runs, so that the set-up samples span the whole run."""
    job = ["--workload", workload, "--seed", str(seed)]
    setups = []
    runs = []
    start = time.monotonic()
    while True:
        setups += [run_child(["--setup-only"])["setup_s"]
                   for _ in range(SETUP_REPEATS)]
        runs.append(run_child(job))
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_ITERATIONS and \
                elapsed + elapsed / len(runs) > seconds:
            break
    setups += [r["setup_s"] for r in runs]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
    }
    return runs, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                  for k, v in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(RATIO_SUFFIXES):
        return "ratio"
    return "count"


def trace(workload: str, seed: int):
    """One untraced and one traced cold run; the tracer's per-layer metrics.
    The untraced process also runs the costly seed-independent oracles."""
    job = ["--workload", workload, "--seed", str(seed)]
    plain = run_child(job + ["--full-gate"])
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")
    traced = run_child(job + ["--trace", path])
    metrics = {k: {"value": v, "unit": layer_unit(k)}
               for k, v in traced["layers"].items()}
    metrics["trace_overhead"] = {
        "value": traced["raw_wall_s"] / plain["raw_wall_s"], "unit": "ratio"}
    return [plain, traced], metrics


def result(runs, metrics) -> dict:
    """The result line: every gate check of every process counts."""
    attempted = sum(r["checks_total"] for r in runs)
    failed = sum(r["checks_failed"] for r in runs)
    return {"correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dottedtl", "__init__.py")):
        print(f"error: no dottedtl sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.trace:
            runs, metrics = trace(args.workload, args.seed)
        else:
            runs, metrics = measure(args.workload, args.seed, args.seconds)
    except (ChildError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for i, r in enumerate(runs):
        scaled = (f"wall_s={r['wall_s']:.3f} cpu_s={r['cpu_s']:.3f} "
                  if "wall_s" in r else "")
        print(f"{args.workload} seed={args.seed} run {i}: {scaled}"
              f"raw_wall_s={r['raw_wall_s']:.3f} "
              f"setup_s={r['setup_s']:.4f} rss={r['peak_rss_mib']:.1f}MiB "
              f"checks={r['checks_total']} failed={r['checks_failed']} "
              f"{r['failed_checks']}", file=sys.stderr)
    print(json.dumps(result(runs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
