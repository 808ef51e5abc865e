"""Per-kernel thread-mapping autotuning (§5's "based on performance
profiling").

The paper selects between vertex-balanced and edge-balanced mapping for
each fused kernel by profiling.  Here the cost model *is* the profiler:
for every graph kernel whose mapping is free (no internal ReduceScatter
— that case is pinned to vertex-balanced with shared-memory buffering),
both mappings are evaluated on the target workload/device and the
cheaper one is kept.

The result is a new :class:`~repro.exec.plan.ExecPlan` with identical
kernels up to the ``mapping``/``atomic`` flags — values are unaffected,
only the latency model's view changes (and, through the atomic flag,
the IO-time accounting of reduction writes).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

from repro.exec.cost_form import kernel_shape
from repro.exec.plan import ExecPlan, Kernel
from repro.gpu.cost_model import CostModel
from repro.graph.stats import GraphStats
from repro.ir.ops import OpKind

__all__ = ["autotune_plan", "mapping_choices"]


def mapping_choices(kernel: Kernel) -> Tuple[str, ...]:
    """Legal mappings for a kernel (§5 legality rules)."""
    if kernel.mapping in ("dense", "none"):
        return (kernel.mapping,)
    if kernel.reduce_scatter:
        # An internal Gather feeding a Scatter needs the vertex feature
        # buffered in shared memory: vertex-balanced only.
        return ("vertex",)
    has_gather = any(n.kind is OpKind.GATHER for n in kernel.nodes)
    has_scatter = any(n.kind is OpKind.SCATTER for n in kernel.nodes)
    if has_gather or has_scatter:
        return ("vertex", "edge")
    return (kernel.mapping,)


def _with_mapping(kernel: Kernel, mapping: str) -> Kernel:
    has_gather = any(n.kind is OpKind.GATHER for n in kernel.nodes)
    return replace(
        kernel,
        mapping=mapping,
        atomic=(mapping == "edge" and has_gather),
    )


def autotune_plan(
    plan: ExecPlan,
    stats: GraphStats,
    cost_model: CostModel,
) -> ExecPlan:
    """Pick the cheaper legal mapping for every kernel of ``plan``.

    Kernels are independent in the latency model, so per-kernel argmin
    is globally optimal.  A mapping moves no byte or FLOP, only the
    record's ``work`` / ``rows`` / ``atomic``, so every candidate is the
    plan's own record with those three replaced.  Returns a new plan
    (the input is unchanged).
    """
    records = plan.cost_forms().evaluate([stats])[0].records
    V, E = stats.num_vertices, stats.num_edges
    tuned: List[Kernel] = []
    for kernel, record in zip(plan.kernels, records):
        choices = mapping_choices(kernel)
        if len(choices) == 1:
            tuned.append(_with_mapping(kernel, choices[0])
                         if choices[0] != kernel.mapping else kernel)
            continue
        best, best_time = None, None
        for mapping in choices:
            candidate = _with_mapping(kernel, mapping)
            work, rows = kernel_shape(candidate, plan.module.specs, V, E)
            t = cost_model.kernel_seconds(
                replace(
                    record, mapping=mapping, work=work, rows=max(rows),
                    atomic=candidate.atomic,
                ),
                stats,
            )
            if best_time is None or t < best_time:
                best, best_time = mapping, t
        tuned.append(_with_mapping(kernel, best))
    return ExecPlan(module=plan.module, kernels=tuned, keep=plan.keep)
