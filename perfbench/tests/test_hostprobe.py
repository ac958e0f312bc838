"""The host probe: what it takes out of a timed call and how it scales."""

import signal
import time

import hostprobe


def busy(seconds):
    end = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < end:
        n += 1
    return n


def test_trimmed_mean_drops_a_preempted_sample():
    samples = [0.01] * 9 + [0.5]
    assert hostprobe.trimmed_mean(samples) == 0.01
    assert hostprobe.trimmed_mean([0.01, 0.03]) == 0.02


def test_timed_takes_the_probe_out_and_scales_by_its_samples():
    probe = hostprobe.HostProbe()
    t0 = time.perf_counter()
    result, raw, scaled = probe.timed(busy, 1.0)
    elapsed = time.perf_counter() - t0
    assert result > 0
    # the samples before and after the call, and about one per INTERVAL_S
    inside = probe.wall[1:-1]
    assert len(inside) >= 3
    # the busy loop ends at its deadline, so the probe's time comes out of it
    assert abs(raw[0] - (1.0 - sum(inside))) < 0.05
    assert raw[0] < elapsed
    wall_scale, cpu_scale = probe.scale()
    assert scaled[0] == raw[0] * wall_scale
    assert scaled[1] == raw[1] * cpu_scale
    assert wall_scale == hostprobe.REFERENCE_S / hostprobe.trimmed_mean(
        probe.wall)


def test_timed_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    hostprobe.HostProbe().timed(busy, 0.3)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
