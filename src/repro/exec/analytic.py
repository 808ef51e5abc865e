"""Analytic pricing: exact counters without touching arrays.

This is the no-execution twin of :class:`repro.exec.engine.Engine`.  A
plan's FLOP/IO/memory formulas are lowered once into integer affine
forms in (V, E) (:meth:`ExecPlan.cost_forms
<repro.exec.plan.ExecPlan.cost_forms>`, :mod:`repro.exec.cost_form`)
and evaluated on any :class:`~repro.graph.stats.GraphStats` — which is
how every experiment runs at the paper's full published scale (the
115M-edge Reddit graph exists here only as a degree distribution).
Several stats price in one evaluation: a partition's parts, an epoch's
batches.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.plan import ExecPlan
from repro.exec.profiler import (
    BatchCost,
    CommRecord,
    Counters,
    GPUShard,
    MiniBatchCounters,
    MultiGPUCounters,
    PhaseCounters,
)
from repro.graph.partition import PartitionStats, allreduce_bytes_per_gpu
from repro.graph.stats import GraphStats
from repro.ir.functions import get_scatter_fn
from repro.ir.module import GRAPH_CONSTANTS
from repro.ir.ops import OpKind
from repro.ir.tensorspec import Domain

__all__ = [
    "analyze_plan",
    "analyze_training",
    "analyze_plan_multi",
    "analyze_training_multi",
    "analyze_minibatch",
    "feature_gather_row_bytes",
    "vertex_data_inputs",
    "plan_comm_records",
    "kernel_comm_records",
]


def analyze_plan(
    plan: ExecPlan,
    stats: GraphStats,
    *,
    pinned: Iterable[str] = (),
) -> PhaseCounters:
    """Kernel records of a plan plus what the §6 ledger saw.

    ``pinned`` value names are never freed (model features, labels,
    parameters — memory the user owns regardless of scheduling); the
    memory figures are those of :func:`repro.exec.memory.ledger_walk`.
    """
    return plan.cost_forms(pinned).evaluate([stats])[0]


def _step_counters(
    fwd_plan: ExecPlan,
    bwd_plan: Optional[ExecPlan],
    stats: Sequence[GraphStats],
    stash: Iterable[str],
    pinned: Iterable[str],
) -> List[Counters]:
    """One step's :class:`Counters` on each of ``stats`` (forward only
    when ``bwd_plan`` is ``None``), both phases in one evaluation each."""
    pinned = list(pinned)
    forward = fwd_plan.cost_forms(pinned).evaluate(stats)
    if bwd_plan is None:
        return [Counters(forward=phase) for phase in forward]
    backward = bwd_plan.cost_forms(pinned).evaluate(stats)
    specs = fwd_plan.module.specs
    stashed = [specs[fwd_plan.root_of(s)] for s in set(stash)]
    return [
        Counters(
            forward=fwd,
            backward=bwd,
            stash_bytes=sum(
                spec.nbytes(s.num_vertices, s.num_edges) for spec in stashed
            ),
        )
        for fwd, bwd, s in zip(forward, backward, stats)
    ]


def analyze_training(
    fwd_plan: ExecPlan,
    bwd_plan: ExecPlan,
    stats: GraphStats,
    *,
    stash: Iterable[str],
    pinned: Iterable[str] = (),
) -> Counters:
    """Counters for one training step (forward + backward).

    The backward ledger carries the stash (declared among the backward
    module's inputs) plus gradient seeds; peak memory is the max over
    both phases.  ``stash_bytes`` reports the §6 quantity directly.
    """
    return _step_counters(fwd_plan, bwd_plan, [stats], stash, pinned)[0]


# ======================================================================
# Mini-batch (sampled subgraph) pricing
# ======================================================================
def vertex_data_inputs(module) -> "list[str]":
    """Module inputs gathered per receptive-field vertex.

    Vertex-domain *data* inputs only: graph constants (degrees) are
    synthesised from the subgraph topology, and edge-domain inputs
    (MoNet pseudo-coordinates etc.) are derived from the induced
    subgraph — neither is fetched from host feature storage.  This
    single predicate defines the exact-reconciliation contract between
    the analytic walker and the engine-side measurement
    (:meth:`repro.train.minibatch.MiniBatchTrainer`).
    """
    return [
        name
        for name in module.inputs
        if name not in GRAPH_CONSTANTS
        and module.specs[name].domain is Domain.VERTEX
    ]


def feature_gather_row_bytes(plan: ExecPlan) -> int:
    """Bytes one receptive-field vertex costs to gather from host.

    Sums the per-row bytes of every :func:`vertex_data_inputs` entry —
    for every model in the zoo this is exactly the feature matrix row.
    Dtype-aware: fp16/bf16 rows cost half of fp32, and qint8 rows carry
    their 4-byte per-row dequantisation scale (``TensorSpec.row_bytes``).
    """
    specs = plan.module.specs
    return sum(
        specs[name].row_bytes for name in vertex_data_inputs(plan.module)
    )


def analyze_minibatch(
    fwd_plan: ExecPlan,
    bwd_plan: Optional[ExecPlan],
    batches: "Iterable[Tuple[int, GraphStats]]",
    *,
    num_vertices: int,
    stash: Iterable[str] = (),
    pinned: Iterable[str] = (),
) -> MiniBatchCounters:
    """Per-batch costs of one sampled training epoch.

    ``batches`` yields ``(num_seeds, field_stats)`` pairs — exact
    receptive-field stats when sampled from a concrete graph
    (:func:`repro.graph.sampling.plan_minibatches`), or degree-model
    realisations (:func:`repro.graph.stats.expected_field_stats`) for
    stats-only workloads.  Each batch is charged

    - the ordinary kernel counters of both plans on its field's stats
      (as :func:`analyze_training`, every batch in one evaluation; peak
      memory feeds the existing
      :class:`~repro.gpu.cost_model.SimulatedOOM` machinery unchanged),
    - plus the feature-gather IO of fetching its field's vertex rows
      (:func:`feature_gather_row_bytes` × field size) — the term the
      full-graph walkers never see because resident features are pinned.

    ``num_vertices`` is the *full* graph's vertex count, used for the
    epoch expansion factor.
    """
    batches = list(batches)
    fields = [field_stats for _, field_stats in batches]
    row_bytes = feature_gather_row_bytes(fwd_plan)
    costs = [
        BatchCost(
            seeds=int(num_seeds),
            field=field_stats.num_vertices,
            edges=field_stats.num_edges,
            gather_bytes=field_stats.num_vertices * row_bytes,
            compute=compute,
            stats=field_stats,
        )
        for (num_seeds, field_stats), compute in zip(
            batches, _step_counters(fwd_plan, bwd_plan, fields, stash, pinned)
        )
    ]
    return MiniBatchCounters(batches=costs, num_vertices=num_vertices)


# ======================================================================
# Partitioned (multi-GPU) pricing
# ======================================================================
def plan_comm_records(
    plan: ExecPlan, pstats: PartitionStats
) -> "list[list[CommRecord]]":
    """Interconnect traffic each GPU receives while executing ``plan``.

    Mirrors the exchange schedule of the concrete
    :class:`~repro.exec.multi.MultiEngine` exactly:

    - a Scatter reading a vertex tensor through the edge *source* pulls
      the part's ghost rows once per (kernel, tensor) — fusion cannot
      eliminate cross-GPU traffic, but kernels sharing an operand share
      one exchange (``halo_in``),
    - an out-edge aggregation (:meth:`ExecPlan.chains`: ``copy_v`` → ×
      weight → ``sum|mean`` over out-edges) pulls the ghost-destination
      rows of its vertex operand at its copy (``halo_dst``) and the
      remotely-owned rows of its weight at its multiply (``halo_out``),
      never its message,
    - any other out-orientation Gather pulls the remotely-owned rows of
      its edge operand once per (kernel, tensor) (``halo_out``),
    - every parameter-gradient node costs a ring all-reduce share of
      its output buffer.

    ``max_grad`` is exempt: it routes owned vertex gradients onto owned
    in-edges, which is purely local under destination edge ownership.
    """
    P = pstats.num_parts
    per_gpu: "list[list[CommRecord]]" = [[] for _ in range(P)]
    if P <= 1:
        return per_gpu
    for index in range(len(plan.kernels)):
        per_kernel = kernel_comm_records(plan, index, pstats)
        for p in range(P):
            per_gpu[p].extend(per_kernel[p])
    return per_gpu


def kernel_comm_records(
    plan: ExecPlan, index: int, pstats: PartitionStats
) -> "list[list[CommRecord]]":
    """One kernel's slice of :func:`plan_comm_records`, per GPU.

    Records come in the order the concrete exchange log holds them:
    each at the first node that needs it, in node order, so
    concatenating the kernels reproduces ``plan_comm_records`` exactly.
    """
    specs = plan.module.specs
    P = pstats.num_parts
    per_gpu: "list[list[CommRecord]]" = [[] for _ in range(P)]
    if P <= 1:
        return per_gpu
    kernel = plan.kernels[index]
    # Chains are classified only where an out-edge aggregation can be.
    out_chains = {
        n.name: c
        for c in plan.chains(index).values() if c.over_out_edges
        for n in c.interior + (c.head,)
    } if any(
        n.kind is OpKind.GATHER and n.orientation == "out" for n in kernel.nodes
    ) else {}
    # (kind, root or node name) -> bytes per row, first need first.
    needs: Dict[Tuple[str, str], int] = {}

    def need(kind: str, name: str) -> None:
        needs.setdefault((kind, plan.root_of(name)), specs[name].row_bytes)

    for node in kernel.nodes:
        chain = out_chains.get(node.name)
        if chain is not None:
            if node is chain.interior[0]:
                need("halo_dst", chain.operands[0])
            elif node is not chain.head:
                need("halo_out", chain.weight)
        elif node.kind is OpKind.SCATTER:
            fn = get_scatter_fn(node.fn)
            name = node.inputs[0]
            if (
                fn.reads_u and not fn.vertex_direct_read
                and specs[name].domain is Domain.VERTEX
            ):
                need("halo_in", name)
        elif node.kind is OpKind.GATHER and node.orientation == "out":
            need("halo_out", node.inputs[0])
        elif node.kind is OpKind.PARAM_GRAD:
            if {specs[n].domain for n in node.inputs} <= {Domain.PARAM, Domain.DENSE}:
                # Replicated operands: every GPU computes the same
                # gradient locally, no reduction (the MultiEngine
                # applies the identical exemption).
                continue
            needs[("allreduce", node.name)] = specs[node.outputs[0]].row_bytes
    rows = {
        "halo_in": pstats.halo_in_rows,
        "halo_dst": pstats.halo_dst_rows,
        "halo_out": pstats.halo_out_rows,
    }
    for (kind, name), row_bytes in needs.items():
        for p in range(P):
            per_gpu[p].append(
                CommRecord(
                    label=f"{kernel.label}:{name}",
                    kind=kind,
                    bytes=(
                        allreduce_bytes_per_gpu(row_bytes, P) if kind == "allreduce"
                        else rows[kind][p] * row_bytes
                    ),
                )
            )
    return per_gpu


def analyze_plan_multi(
    plan: ExecPlan,
    pstats: PartitionStats,
    *,
    pinned: Iterable[str] = (),
) -> MultiGPUCounters:
    """Partitioned twin of :func:`analyze_plan` (inference).

    Each GPU prices the *same* plan on its own partition's stats —
    vertex extents cover owned + ghost rows, edge extents the owned
    edges — and additionally receives the halo traffic scheduled by
    :func:`plan_comm_records`.
    """
    comm = plan_comm_records(plan, pstats)
    shards = [
        GPUShard(compute=compute, comm=comm[p])
        for p, compute in enumerate(
            _step_counters(plan, None, pstats.parts, (), pinned)
        )
    ]
    return MultiGPUCounters(per_gpu=shards, cut_edges=pstats.cut_edges)


def analyze_training_multi(
    fwd_plan: ExecPlan,
    bwd_plan: ExecPlan,
    pstats: PartitionStats,
    *,
    stash: Iterable[str],
    pinned: Iterable[str] = (),
) -> MultiGPUCounters:
    """Partitioned twin of :func:`analyze_training` (one step).

    Per-GPU compute counters price both plans on the partition's
    stats; comm records concatenate the forward and backward exchange
    schedules (gradient all-reduces naturally appear in the backward
    plan's ``PARAM_GRAD`` nodes).
    """
    fwd_comm = plan_comm_records(fwd_plan, pstats)
    bwd_comm = plan_comm_records(bwd_plan, pstats)
    shards = [
        GPUShard(compute=compute, comm=fwd_comm[p] + bwd_comm[p])
        for p, compute in enumerate(
            _step_counters(fwd_plan, bwd_plan, pstats.parts, stash, pinned)
        )
    ]
    return MultiGPUCounters(per_gpu=shards, cut_edges=pstats.cut_edges)
