"""Figure-style normalisation of sweep rows.

Every table row is a :class:`~repro.session.SweepRow` priced by
:meth:`Session._price <repro.session.Session._price>` (analytic
counters on the workload's :class:`~repro.graph.stats.GraphStats`,
mapped to latency through the GPU cost model); this module turns a
grid of them into the paper's ratios.  Wall-clock measurements of the
concrete NumPy engine live in ``perf/``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.session import SweepRow

__all__ = ["normalized_rows"]


def normalized_rows(
    results: Sequence[SweepRow],
    *,
    baseline: str = "dgl-like",
) -> List[Dict[str, object]]:
    """Figure-7-style normalisation: ratios of baseline over strategy.

    For every workload (a row's ``dataset``), each strategy's speedup /
    IO-saving / memory-saving relative to ``baseline`` (>1 = better
    than baseline, matching the paper's bar charts).
    """
    by_workload: Dict[str, Dict[str, SweepRow]] = {}
    for r in results:
        by_workload.setdefault(r.dataset, {})[r.strategy] = r
    rows: List[Dict[str, object]] = []
    for workload, per_strategy in by_workload.items():
        if baseline not in per_strategy:
            raise KeyError(f"no {baseline!r} run for workload {workload!r}")
        base = per_strategy[baseline]
        for name, r in per_strategy.items():
            if name == baseline:
                continue
            rows.append(
                {
                    "workload": workload,
                    "strategy": name,
                    "speedup": base.latency_s / r.latency_s,
                    "io_saving": base.io_bytes / max(r.io_bytes, 1),
                    "memory_saving": base.peak_memory_bytes
                    / max(r.peak_memory_bytes, 1),
                }
            )
    return rows
