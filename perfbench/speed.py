"""Correction of the benchmark's timings for the machine's speed.

The benchmark runs on virtual machines whose speed drifts by tens of
percent within a minute, as other tenants load the host.  Every
end-to-end timing is therefore expressed in reference seconds: the
measured time, multiplied by REFERENCE_S over the mean time of the
calibration passes just before and just after it, in the same process.
Per-layer span times are not rescaled.
A slowdown of the whole machine stretches both and cancels; a change to
the program changes only the first.

A calibration pass runs two fixed plain-Python loops, which use no code of
the program: the generator's membership scoring (`gen.Spec.infer`) over a
fixed network, which is dictionary lookups, comparisons and small
allocations, and an enumeration of float sums over every combination of
five short columns with a sort and fold of the results, which is
arithmetic, tuples and sorting.  Between them they do the kinds of
interpreter work that the program's layers do, so a slowdown that hits one
kind more than the other still shows in the pass.
"""
from __future__ import annotations

import itertools
import time

import gen

# A calibration pass's median on the reference machine (2-vCPU virtual
# machine, CPython 3.11.7), so that reference seconds read close to wall
# seconds there.  It must never change: every stored figure depends on it.
REFERENCE_S = 0.018
# A recorder calibrates again before an operation once this much time has
# passed since its last calibration.
CALIBRATE_EVERY_NS = 500_000_000

_spec = None
_COLUMNS = [[0.05 * k + j for k in range(5)] for j in range(5)]


def _enumerate_sums():
    pairs = []
    for combo in itertools.product(*_COLUMNS):
        total, degree = 0.0, 1.0
        for i, x in enumerate(combo):
            total += x
            degree = min(degree, 0.5 + 0.01 * i)
        pairs.append((total, degree))
    merged = []
    for s, d in sorted(pairs):
        if merged and s - merged[-1][0] <= 1e-9:
            merged[-1] = (merged[-1][0], max(merged[-1][1], d))
        else:
            merged.append((s, d))
    return merged


def calibration_s() -> float:
    """Seconds taken by one calibration pass."""
    global _spec
    if _spec is None:
        _spec = gen.network("calibration", 150, 40)
        _spec.infer()  # warm-up
        _enumerate_sums()
    start = time.perf_counter_ns()
    _spec.infer()
    _enumerate_sums()
    return (time.perf_counter_ns() - start) / 1e9


def factor(before: float, after: float) -> float:
    """Reference seconds per measured second for work timed between two
    calibrations."""
    return REFERENCE_S / ((before + after) / 2)
