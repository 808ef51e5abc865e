"""Counter structures shared by the analytic walker and the engine.

Counting conventions (documented once, used everywhere):

- **FLOPs** — exact per-node formulas (:meth:`repro.ir.ops.OpNode.flops`)
  summed per kernel.
- **DRAM IO** — bytes crossing kernel boundaries.  Vertex operands read
  through an edge index count one row per edge (the random-access
  convention behind the paper's ``2|E|h`` for reading GAT's attention
  operands); index arrays (CSR/CSC structure) are not counted, matching
  the paper's §5 arithmetic which tracks feature traffic only.
- **Memory** — a byte ledger over the kernel schedule: inputs/params
  resident throughout, each boundary value alive from its producing
  kernel to its last consumer, keep-set values (outputs + stash) alive
  to the end of the phase.  Peak is the max over kernel steps; fused
  internal values never enter the ledger (they live on-chip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.stats import GraphStats

__all__ = [
    "KernelRecord",
    "PhaseCounters",
    "Counters",
    "CommRecord",
    "GPUShard",
    "MultiGPUCounters",
    "BatchCost",
    "MiniBatchCounters",
]


@dataclass(frozen=True)
class KernelRecord:
    """Everything the GPU cost model needs about one kernel launch."""

    label: str
    mapping: str          # "edge" | "vertex" | "dense" | "none"
    work: str             # "uniform" | "degree_in" | "degree_out"
    rows: int             # parallel rows (|V|, |E|, or dense rows)
    flops: float
    read_bytes: int
    write_bytes: int
    atomic: bool = False  # vertex reduction under edge-balanced mapping
    fused_ops: int = 1
    reduce_scatter: bool = False  # smem-buffered vertex intermediate

    @property
    def io_bytes(self) -> int:
        return self.read_bytes + self.write_bytes


@dataclass
class PhaseCounters:
    """Aggregated counters for one plan walk (forward or backward)."""

    records: List[KernelRecord] = field(default_factory=list)
    peak_memory_bytes: int = 0
    end_resident_bytes: int = 0

    @property
    def flops(self) -> float:
        return sum(r.flops for r in self.records)

    @property
    def io_bytes(self) -> int:
        return sum(r.io_bytes for r in self.records)

    @property
    def read_bytes(self) -> int:
        return sum(r.read_bytes for r in self.records)

    @property
    def write_bytes(self) -> int:
        return sum(r.write_bytes for r in self.records)

    @property
    def launches(self) -> int:
        return sum(1 for r in self.records if r.mapping != "none")


@dataclass
class Counters:
    """Whole-step counters: forward plus (optionally) backward.

    ``stash_bytes`` is the §6 quantity: bytes stored solely so the
    backward pass can run.  ``peak_memory_bytes`` is the max over both
    phases of the ledger.
    """

    forward: PhaseCounters
    backward: Optional[PhaseCounters] = None
    stash_bytes: int = 0

    @property
    def flops(self) -> float:
        return self.forward.flops + (self.backward.flops if self.backward else 0.0)

    @property
    def io_bytes(self) -> int:
        return self.forward.io_bytes + (self.backward.io_bytes if self.backward else 0)

    @property
    def peak_memory_bytes(self) -> int:
        peak = self.forward.peak_memory_bytes
        if self.backward is not None:
            peak = max(peak, self.backward.peak_memory_bytes)
        return peak

    @property
    def launches(self) -> int:
        return self.forward.launches + (
            self.backward.launches if self.backward else 0
        )

    def all_records(self) -> List[KernelRecord]:
        records = list(self.forward.records)
        if self.backward is not None:
            records.extend(self.backward.records)
        return records


# ======================================================================
# Multi-GPU counters (partitioned execution)
# ======================================================================
@dataclass(frozen=True)
class CommRecord:
    """One interconnect transfer received by one GPU.

    ``kind`` is one of ``halo_in`` (ghost source rows fetched before a
    Scatter or an in-edge chain), ``halo_dst`` (ghost destination rows
    fetched before an out-edge aggregation), ``halo_out``
    (remotely-owned edge rows fetched before an out-orientation Gather,
    or an out-edge aggregation's weight) and ``allreduce``
    (parameter-gradient ring all-reduce share).
    """

    label: str
    kind: str
    bytes: int


@dataclass
class GPUShard:
    """One GPU's view of a partitioned step: its compute + its comm."""

    compute: Counters
    comm: List[CommRecord] = field(default_factory=list)

    @property
    def comm_bytes(self) -> int:
        return sum(r.bytes for r in self.comm)

    @property
    def exchanges(self) -> int:
        return len(self.comm)


@dataclass
class MultiGPUCounters:
    """Whole-cluster counters: per-GPU shards plus cut statistics.

    Aggregate FLOPs/IO sum over GPUs (total work); peak memory is the
    per-GPU maximum (each partition must fit its own DRAM);
    ``comm_fraction`` is the interconnect share of all off-chip traffic
    — the byte-level communication-vs-computation breakdown (the
    time-level split lives in the cluster cost model).
    """

    per_gpu: List[GPUShard]
    cut_edges: int = 0

    @property
    def num_gpus(self) -> int:
        return len(self.per_gpu)

    @property
    def flops(self) -> float:
        return sum(s.compute.flops for s in self.per_gpu)

    @property
    def io_bytes(self) -> int:
        return sum(s.compute.io_bytes for s in self.per_gpu)

    @property
    def comm_bytes(self) -> int:
        return sum(s.comm_bytes for s in self.per_gpu)

    @property
    def peak_memory_bytes(self) -> int:
        return max((s.compute.peak_memory_bytes for s in self.per_gpu), default=0)

    @property
    def stash_bytes(self) -> int:
        return sum(s.compute.stash_bytes for s in self.per_gpu)

    @property
    def launches(self) -> int:
        return sum(s.compute.launches for s in self.per_gpu)

    @property
    def comm_fraction(self) -> float:
        """Interconnect bytes over all off-chip bytes (DRAM + halo)."""
        total = self.comm_bytes + self.io_bytes
        return self.comm_bytes / total if total > 0 else 0.0


# ======================================================================
# Mini-batch counters (sampled subgraph training)
# ======================================================================
@dataclass(frozen=True)
class BatchCost:
    """One sampled training step's exact cost on its receptive field.

    ``gather_bytes`` is the feature-gather IO: the bytes of every
    vertex-domain module input row fetched for the receptive field
    before the step can run — the term that dominates sampled training
    (seeds are few, but their k-hop fields are large).  ``compute``
    holds the ordinary kernel-level counters of running the compiled
    plans on the induced subgraph; ``stats`` is that subgraph's
    degree summary (the latency model needs its skew).
    """

    seeds: int
    field: int
    edges: int
    gather_bytes: int
    compute: Counters
    stats: GraphStats

    @property
    def io_bytes(self) -> int:
        """Off-chip bytes of this step: feature gather + kernel traffic."""
        return self.gather_bytes + self.compute.io_bytes


@dataclass
class MiniBatchCounters:
    """Whole-epoch counters of sampled mini-batch training.

    One epoch visits every vertex once as a seed, so epoch totals
    compare directly against one full-graph training step: total IO
    (including feature gathers) is what the epoch moves off-chip, while
    ``peak_memory_bytes`` is the *per-batch* maximum — the quantity
    that must fit the device and that shrinks with the batch size (the
    memory-footprint/IO tradeoff mini-batching buys, orthogonal to the
    §6 stash-vs-recompute axis).
    """

    batches: List[BatchCost]
    num_vertices: int

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def gather_bytes(self) -> int:
        """Epoch feature-gather traffic (sum of per-batch field rows)."""
        return sum(b.gather_bytes for b in self.batches)

    @property
    def flops(self) -> float:
        return sum(b.compute.flops for b in self.batches)

    @property
    def compute_io_bytes(self) -> int:
        """Kernel-level DRAM traffic, excluding feature gathers."""
        return sum(b.compute.io_bytes for b in self.batches)

    @property
    def io_bytes(self) -> int:
        """All off-chip bytes the epoch moves (gathers + kernels)."""
        return self.gather_bytes + self.compute_io_bytes

    @property
    def peak_memory_bytes(self) -> int:
        """Largest single-batch footprint — the device-fit quantity."""
        return max((b.compute.peak_memory_bytes for b in self.batches), default=0)

    @property
    def stash_bytes(self) -> int:
        """Largest single-batch stash (batches free it before the next)."""
        return max((b.compute.stash_bytes for b in self.batches), default=0)

    @property
    def launches(self) -> int:
        return sum(b.compute.launches for b in self.batches)

    @property
    def field_vertices(self) -> int:
        """Total receptive-field rows gathered across the epoch."""
        return sum(b.field for b in self.batches)

    @property
    def expansion(self) -> float:
        """Epoch field rows over ``|V|`` — receptive-field overlap.

        1.0 in the full-batch limit (each vertex gathered once); grows
        as batches shrink because neighbouring fields re-gather shared
        vertices — the IO amplification sampled training pays for its
        smaller footprint.
        """
        return (
            self.field_vertices / self.num_vertices
            if self.num_vertices > 0
            else 0.0
        )
