"""Host-speed probe: a fixed pure-Python job timed while a workload runs.

On a VM that shares its machine, how fast the vCPU runs can change by up
to 2x over seconds to minutes, with no scheduling wait involved (CPU time
stretches with wall time).  A timed workload that takes 10 s in one minute
takes 14 s in the next.  Medians over a run cannot remove drift that lasts
longer than the run.

So every timed process also measures the host.  A ``HostProbe`` runs a small
fixed job (``probe_job``: a sparse product of Fraction matrices in dicts,
the kind of work dottedtl's kernels do, calling no dottedtl code) every
``INTERVAL_S`` seconds of wall time, from a SIGALRM handler, so that its
samples are spread evenly over the timed interval.  The probe's own time is
taken out of the workload's time, and the workload's time is then scaled to
a host on which ``probe_job`` takes ``REFERENCE_S``:

    normalised = (measured - probe time) * REFERENCE_S / mean(probe samples)

The mean of the probe's times is the right average: the workload's time is
the integral of 1/speed over the interval, and evenly spaced probe times
sample that same 1/speed.  The mean leaves out the highest and lowest tenth
of the samples (``trimmed_mean``).
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# wall-clock seconds between probe samples, and the probe time that defines
# the reference host (a round value: only ratios between runs matter)
INTERVAL_S = 0.2
REFERENCE_S = 0.01

_N = 24
_A = {i: {(i * 7 + j * 3) % _N: Fraction(i + 1, j + 2) for j in range(6)}
      for i in range(_N)}
_B = {i: {(i * 5 + j) % _N: Fraction(j - 3, i + 1) for j in range(6)}
      for i in range(_N)}


def probe_job() -> int:
    """One sparse Fraction matrix product and a rescale; about 10 ms."""
    out_rows = 0
    for i, row in _A.items():
        out = {}
        for k, x in row.items():
            for j, y in _B[k].items():
                out[j] = out.get(j, 0) + x * y
        scaled = {j: v / (1 + abs(v)) for j, v in out.items() if v}
        out_rows += len(scaled)
    return out_rows


def trimmed_mean(samples: list[float]) -> float:
    """The mean without the highest and lowest tenth of the samples.  A
    sample stands for INTERVAL_S of workload time, so one that the host
    preempted for 50 ms would otherwise move the mean of 35 samples by 15%."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)


class HostProbe:
    """Samples ``probe_job`` evenly in wall time while it is started.

    Collection is paused during a sample, so that garbage the workload made
    is collected on the workload's time, not the probe's.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            w0 = time.perf_counter()
            c0 = time.process_time()
            probe_job()
            self.cpu.append(time.process_time() - c0)
            self.wall.append(time.perf_counter() - w0)
        finally:
            if collecting:
                gc.enable()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int = 0) -> tuple[float, float]:
        """(wall, cpu) factors to the reference host, from the samples taken
        since sample number `first`."""
        return (REFERENCE_S / trimmed_mean(self.wall[first:]),
                REFERENCE_S / trimmed_mean(self.cpu[first:]))

    def timed(self, fn, *args):
        """Run fn(*args) while sampling.  Returns its result, its raw wall
        and CPU seconds without the probe's, and the same two scaled to the
        reference host by the samples taken during the call and the one
        taken before and after it."""
        if not self.wall:
            self.sample()
        first = len(self.wall)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        self.start()
        try:
            result = fn(*args)
        finally:
            self.stop()
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        wall = t1 - t0 - sum(self.wall[first:])
        cpu = cpu1 - cpu0 - sum(self.cpu[first:])
        self.sample()
        wall_scale, cpu_scale = self.scale(first - 1)
        return result, (wall, cpu), (wall * wall_scale, cpu * cpu_scale)
