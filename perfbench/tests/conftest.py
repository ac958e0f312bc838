"""Shared fixtures for the benchmark's own tests.

    python3 -m pytest perfbench/tests

The layer and seed tests start real cold workload processes (traced and
untraced) and take a few minutes; each process is started once per session.
"""

import functools
import os
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402


@functools.lru_cache(maxsize=None)
def child_report(workload: str, seed: int, traced: bool, repeat: int = 0):
    """The JSON report of one cold process (cached per arguments)."""
    args = ["--workload", workload, "--seed", str(seed)]
    if traced:
        os.makedirs(run.OUT_DIR, exist_ok=True)
        args += ["--trace", os.path.join(
            run.OUT_DIR, f"test-{workload}-{seed}-{repeat}.json")]
    return run.run_child(args)
