"""Machine-speed probe: what makes the time metrics repeat on this host.

The container is a 2-vCPU microVM that, for minutes at a time, runs
everything 50-70% slower: over one quarter of an hour the same
gcn/pubmed step went 0.185 s -> 0.28 s, a gat/cora step 0.105 -> 0.175,
an analytic sweep 0.70 -> 1.2, and a fixed pure-Python loop, a
cache-resident ``reduceat`` and a memory-bound one slowed with them
(x1.4, x1.9, x1.6).  No statistic taken inside a 10 s run removes a
phase that outlasts it, and two ten-seed passes an hour apart differed
by +54% on one workload.

So the harness runs this fixed probe — the three kinds of work the
workloads are made of — immediately before every timed iteration and
reports each iteration's wall time divided by the machine's speed at
that moment, ``probe seconds / REFERENCE_PROBE_S``.  Over ten seeds the
interquartile range of the per-run median fell from 5-18% of the median
(raw) to 2-8% (calibrated).  The probe lives in ``perf/`` and never
calls ``repro``, so no change to the program moves it.  Raw wall-clock
medians and the measured speed are reported beside the calibrated
numbers (``iter_p50_raw_s``, ``machine_speed``).
"""

from __future__ import annotations

import time

import numpy as np

#: The probe's time on the container that recorded BENCH_13, in a quiet
#: phase.  Only ratios matter; this constant makes a calibrated second
#: equal a wall-clock second on that machine at its usual speed.
REFERENCE_PROBE_S = 0.0085


class SpeedProbe:
    """~9 ms of fixed work: interpreter, cached kernel, memory-bound kernel."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.normal(size=(4_000, 16)).astype(np.float32)
        self._small_segments = np.arange(0, 4_000, 5)
        self._big = rng.normal(size=(100_000, 16)).astype(np.float32)
        self._big_segments = np.arange(0, 100_000, 5)

    def __call__(self) -> float:
        """Machine slowness now: 1.0 at the reference speed, 1.6 when
        everything takes 60% longer."""
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(20):
            np.add.reduceat(self._small, self._small_segments, axis=0)
        np.add.reduceat(self._big, self._big_segments, axis=0)
        return (time.perf_counter() - start) / REFERENCE_PROBE_S
