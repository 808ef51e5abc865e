"""Experiment runners: (model × workload × strategy × device) → metrics.

All measurements here are *analytic*: exact FLOP/IO/memory counters
evaluated on the workload's :class:`~repro.graph.stats.GraphStats`
(full published scale) and mapped to latency through the GPU cost
model.  Wall-clock measurements of the concrete NumPy engine are taken
separately by pytest-benchmark in ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.gpu.spec import GPUSpec
from repro.graph.stats import GraphStats
from repro.models.base import GNNModel
from repro.session import PlanCache, Session

__all__ = ["RunResult", "measure", "normalized_rows"]


@dataclass
class RunResult:
    """One (model, workload, strategy, device) measurement."""

    model: str
    workload: str
    strategy: str
    gpu: str
    latency_s: float
    io_bytes: int
    peak_memory_bytes: int
    flops: float
    stash_bytes: int
    launches: int
    oom: bool = False

    @property
    def memory_gb(self) -> float:
        return self.peak_memory_bytes / 2 ** 30

    @property
    def io_gb(self) -> float:
        return self.io_bytes / 2 ** 30


def measure(
    model: GNNModel,
    workload: str,
    stats: GraphStats,
    strategy_name: str,
    gpu: GPUSpec,
    *,
    training: bool = True,
    cache: Optional[PlanCache] = None,
) -> RunResult:
    """Analytic counters + modelled latency for one training step, or
    one inference pass with ``training=False``.

    Pass a shared ``cache`` to reuse compiled plans across workloads
    and devices (the per-figure grids do).
    """
    report = (
        Session(cache=cache)
        .model(model).stats(stats, workload).strategy(strategy_name).gpu(gpu)
        .report(training=training)
    )
    counters = report.counters
    return RunResult(
        model=report.model,
        workload=report.dataset,
        strategy=report.strategy,
        gpu=report.gpu,
        latency_s=report.latency_s,
        io_bytes=counters.io_bytes,
        peak_memory_bytes=counters.peak_memory_bytes,
        flops=counters.flops,
        stash_bytes=counters.stash_bytes,
        launches=counters.launches,
        oom=not report.fits_device,
    )


def normalized_rows(
    results: Sequence[RunResult],
    *,
    baseline: str = "dgl-like",
) -> List[Dict[str, object]]:
    """Figure-7-style normalisation: ratios of baseline over strategy.

    For every workload, each strategy's speedup / IO-saving /
    memory-saving relative to ``baseline`` (>1 = better than baseline,
    matching the paper's bar charts).
    """
    by_workload: Dict[str, Dict[str, RunResult]] = {}
    for r in results:
        by_workload.setdefault(r.workload, {})[r.strategy] = r
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
