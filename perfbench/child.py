"""One cold dottedtl process: import, one timed workload, gate, report.

Started by ``run.py`` with the checkout's ``src`` first on the path:

    python perfbench/child.py --spawned NS [--setup-only]
    python perfbench/child.py --spawned NS --workload NAME --seed N
                              [--trace PATH] [--full-gate]

``--spawned`` is the parent's CLOCK_MONOTONIC reading, in nanoseconds, just
before it started this process, so ``setup_s`` covers interpreter start
through ``import dottedtl``.  The last stdout line is one JSON object.

Times come in two forms (see ``hostprobe.py``): ``raw_*`` as measured, and
``setup_s``, ``wall_s`` and ``cpu_s`` scaled to the reference host by the
probe samples taken right after import and during the timed call.  A traced
process takes no probe samples during the call and reports raw times only.
"""

import time

import dottedtl

IMPORTED_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402  (after the set-up clock stops)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
# probe samples right after import, which scale setup_s; the first of them
# warms the probe up and is left out
SETUP_SAMPLES = 5


def main(argv) -> dict:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace")
    ap.add_argument("--full-gate", action="store_true")
    args = ap.parse_args(argv)

    package = os.path.dirname(os.path.realpath(dottedtl.__file__))
    if package != os.path.join(ROOT, "src", "dottedtl"):
        raise SystemExit(f"dottedtl imported from {package}, not from {ROOT}")
    from hostprobe import HostProbe

    raw_setup_s = (IMPORTED_NS - args.spawned) / 1e9
    probe = HostProbe()
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    setup = {"raw_setup_s": raw_setup_s,
             "setup_s": raw_setup_s * probe.scale(first=1)[0]}
    if args.setup_only:
        return setup

    from workloads import WORKLOADS

    make_inputs, run, gate = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if tracer is None:
        outputs, raw, scaled = probe.timed(run, inputs)
    else:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        outputs = run(inputs)
        raw = (time.perf_counter() - t0, time.process_time() - cpu0)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
    checks = gate(inputs, outputs, args.full_gate)
    failed = [name for name, ok in checks if not ok]
    result = {
        **setup,
        "raw_wall_s": raw[0],
        "raw_cpu_s": raw[1],
        "peak_rss_mib": peak_kib / 1024,
        "checks_total": len(checks),
        "checks_failed": len(failed),
        "failed_checks": failed[:10],
    }
    if tracer is None:
        result["wall_s"], result["cpu_s"] = scaled
    else:
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
