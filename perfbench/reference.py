"""A fixed reference task that tracks the machine's speed, independent of fibmachine.

The baseline machine (2 vCPUs shared with other tenants) runs in a fast and a
slow state, in phases of 30-60 s, and the slow state takes up to 1.8 times as
long for the same work; process CPU time grows with it, so no clock avoids
it.  The benchmark times this task between its timed samples (set-up probes,
parts of passes) and scales the median sample by the task's nominal time
over the task's mean time in between, so that a run's figures depend little
on how much of it the slow state took.  The task mixes numpy complex
arithmetic with pure-Python integer, string and dict work, as the workloads
do.
"""

from __future__ import annotations

from statistics import mean, median
from time import perf_counter

import numpy as np

# About the task's time in the baseline machine's fast state, so that scaled
# times read close to wall times there.
NOMINAL_S = 0.020
REPEATS = 3

_LAM = np.linspace(0.0, 1.0, 50_000) * (0.3 + 0.3j)


def _task():
    z = _LAM.copy()
    for _ in range(40):
        z = z * z + _LAM  # stays inside |z| < 1
    words = {}
    for i in range(15_000):
        word = format(i * 0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF, "b")
        words[word[-12:]] = word.count("1") + i * i % 7
    return z, words


def reference_s() -> float:
    """Best of REPEATS timings of the task, which drops one-off interruptions."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _task()
        best = min(best, perf_counter() - t0)
    return best


def scaled_median(samples: list[float], refs: list[float]) -> float:
    """Median sample at the nominal speed, from task timings `refs` taken between them.

    The median resists a one-off slow sample; the mean of the task timings
    follows the share of the samples' time that the slow state took.
    """
    return median(samples) * NOMINAL_S / mean(refs)
