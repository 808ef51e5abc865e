"""Plan inspection utilities: schedules, traffic tables, memory timelines.

Human-oriented views of an :class:`~repro.exec.plan.ExecPlan` used by
examples, debugging sessions, and EXPERIMENTS analysis:

- :func:`format_plan` — the kernel schedule with per-kernel mapping,
  fused-op count, and boundary traffic,
- :func:`memory_timeline` — resident DRAM bytes at each kernel (the
  trace behind the peak-memory figures),
- :func:`format_memory_timeline` — the same as an ASCII bar chart.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.exec.plan import ExecPlan
from repro.graph.stats import GraphStats

__all__ = ["format_plan", "memory_timeline", "format_memory_timeline"]


def format_plan(plan: ExecPlan, stats: GraphStats) -> str:
    """Render the kernel schedule with counters, one kernel per line."""
    lines = [
        f"plan for module {plan.module.name!r} "
        f"({len(plan.kernels)} kernels, keep={sorted(plan.keep)})"
    ]
    header = (
        f"  {'#':>3s} {'mapping':8s} {'ops':>4s} {'flops':>12s} "
        f"{'reads':>12s} {'writes':>12s}  label"
    )
    lines.append(header)
    records = plan.cost_forms().evaluate([stats])[0].records
    for i, (kernel, rec) in enumerate(zip(plan.kernels, records)):
        flags = ""
        if rec.atomic:
            flags += " [atomic]"
        if rec.reduce_scatter:
            flags += " [smem]"
        lines.append(
            f"  {i:3d} {rec.mapping:8s} {rec.fused_ops:4d} "
            f"{rec.flops:12.3e} {rec.read_bytes:12d} {rec.write_bytes:12d}"
            f"  {kernel.label}{flags}"
        )
    return "\n".join(lines)


def memory_timeline(
    plan: ExecPlan, stats: GraphStats
) -> List[Tuple[str, int]]:
    """Resident DRAM bytes at each kernel step.

    The first entry is the pre-execution residency (inputs + params);
    each kernel's entry is taken once its writes have landed and before
    its frees.  The trace of :func:`repro.exec.memory.ledger_walk` with
    every input pinned.
    """
    module = plan.module
    pinned = list(module.inputs) + list(module.params)
    walk = plan.cost_forms(pinned).walk(stats)
    labels = ["<inputs>"] + [kernel.label for kernel in plan.kernels]
    return list(zip(labels, walk.timeline))


def format_memory_timeline(
    plan: ExecPlan, stats: GraphStats, *, width: int = 40
) -> str:
    """ASCII bar chart of the memory timeline."""
    timeline = memory_timeline(plan, stats)
    peak = max(b for _, b in timeline) or 1
    lines = [f"memory timeline (peak {peak / 2**20:.2f} MiB)"]
    for label, nbytes in timeline:
        bar = "#" * max(1, round(width * nbytes / peak))
        lines.append(f"  {nbytes / 2**20:10.2f} MiB |{bar:<{width}s}| {label[:48]}")
    return "\n".join(lines)
