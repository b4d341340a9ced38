"""Scale timings to a reference host speed.

On a small shared virtual machine (the bounds were set on a 2-vCPU one),
other tenants change the speed of its CPUs by up to ~1.7x, for stretches
of seconds to minutes.  So raw batch times from runs taken minutes apart
disagree by far more than any useful regression bound: ten runs of one
workload gave 1-worker rates that spread by 0.33 (IQR / median).

A fixed calibration loop that does not touch kldro is timed right before
and right after each timed unit, on the CPUs that unit uses.  The unit's
time is then scaled to a host on which the loop takes REFERENCE_LOOP_S.
A change to kldro moves the scaled time exactly as it moves the raw time,
because the loop stays the same.  A change in the host's speed moves the
loop and the unit together, and cancels.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

# The loop's median time over a 4-minute trace on the 2-vCPU host the
# bounds were set on.
REFERENCE_LOOP_S = 0.0125


def calibration_loop() -> float:
    """Fixed work in the mix of the pipeline's inner loops: scalar math and
    small numpy reductions."""
    x = np.linspace(1.0, 2.0, 50)
    acc = 0.0
    for i in range(4000):
        acc += math.log(1.0 + i) * math.exp(-i * 1e-4) + (i * i) % 7
        acc += float(np.dot(np.log(x + i), x))
    return acc


def _timed_loop() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def loop_seconds(every_cpu: bool) -> float:
    """One loop's time on the CPU this process runs on, or with
    ``every_cpu`` the mean over each CPU it may run on, pinned in turn (a
    pool of workers spreads over all of them)."""
    if not every_cpu:
        return _timed_loop()
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_timed_loop())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def scaled(seconds: float, loop_before: float, loop_after: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * REFERENCE_LOOP_S / ((loop_before + loop_after) / 2.0)
