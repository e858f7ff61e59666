"""Speed of the machine right now, read from a fixed loop of the benchmark's own code.

The host this benchmark was built on shares its cores with other tenants,
and its speed drifts by up to 1.7x over minutes to hours: the same
`enumerate --family lattice --up-to --delta 3 --dim 8` took 1.6 s in one
hour and 2.7 s in the next, and a pure-Python loop slowed by a like factor
at the same time, in CPU time as well as wall time. Two sets of runs made
an hour apart would then differ by more than any bound a change is held to.

So each timed sample is also scaled to a reference speed:

    scaled = measured * REFERENCE_S / calibration

where `calibration` is the time of one pass of the loop below, measured
right before and right after the sample on the same CPU (their mean), and
REFERENCE_S is that time on a quiet phase of the reference host. The loop
is exact integer and rational arithmetic from querygen.py (determinants and
vertices of fixed pool records), the same kind of work the program does,
and it runs none of the program's code, so a change to the program cannot
move it.
"""

from __future__ import annotations

import os
import statistics
import time

import querygen

# One pass of the loop on a quiet phase of the reference host (2-vCPU
# Intel Xeon at 2.1 GHz, Python 3.11.7).
REFERENCE_S = 0.0024
# Passes per calibration; their median ignores the sub-second jitter of
# the host (single passes of 2.2 ms and 3.8 ms within one second).
PASSES = 15
_RECORDS = querygen.load_pool()[:12]


def _one_pass() -> float:
    start = time.perf_counter()
    for _, _, a, b in _RECORDS:
        querygen.vertices(a, b)
    return time.perf_counter() - start


def calibration(cpus=None) -> float:
    """Seconds of one pass of the loop now: the median of PASSES passes (about 50 ms).

    With `cpus`, the mean of one such reading on each of those CPUs, for a
    sample that runs on all of them; the caller's CPUs are restored after.
    """
    if cpus is None:
        return statistics.median(_one_pass() for _ in range(PASSES))
    own = os.sched_getaffinity(0)
    try:
        readings = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            readings.append(calibration())
    finally:
        os.sched_setaffinity(0, own)
    return statistics.fmean(readings)


def scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two calibrations to the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
