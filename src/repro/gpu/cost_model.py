"""Kernel latency model: counters × device spec → time.

Per-kernel time is a roofline over the exact counters::

    t = launch + max(flops / effective_flops, bytes / effective_bw) × penalties

with three graph-specific penalties:

- **Degree imbalance** (vertex-balanced kernels whose work follows the
  degree distribution): CUDA blocks are dispatched dynamically, so the
  makespan is ``max(ideal, heaviest single block)``; with one block per
  vertex the heaviest block is the max-degree vertex.  The multiplier
  is ``max(1, max_degree × concurrent_blocks / |E|)`` — negligible when
  total work dwarfs the tail (full-size Reddit), punishing on small
  skewed graphs.
- **Atomics** (vertex reductions under edge-balanced mapping,
  Fig. 5(d)): reduction writes are read-modify-write with contention;
  their time is multiplied by ``atomic_overhead``.
- **Shared-memory fusion overhead** (fused ReduceScatter kernels, §5's
  special case): buffering the vertex intermediate costs occupancy;
  compute time is multiplied by ``smem_fusion_overhead``.

Totals are a sequential sum over the stream, matching how the paper's
systems execute.  The model also enforces the device DRAM capacity:
exceeding it raises :class:`SimulatedOOM` — that is the mechanism
behind Figure 11's "DGL cannot run on the RTX 2080".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.exec.profiler import (
    Counters,
    KernelRecord,
    MiniBatchCounters,
    PhaseCounters,
)
from repro.graph.stats import GraphStats
from repro.gpu.spec import GPUSpec

__all__ = ["CostModel", "LatencyBreakdown", "SimulatedOOM"]


class SimulatedOOM(RuntimeError):
    """Peak memory of a plan exceeds the simulated device's DRAM."""

    def __init__(self, required_bytes: int, capacity_bytes: int, device: str):
        self.required_bytes = required_bytes
        self.capacity_bytes = capacity_bytes
        self.device = device
        super().__init__(
            f"simulated OOM on {device}: requires "
            f"{required_bytes / 2**30:.2f} GiB, capacity "
            f"{capacity_bytes / 2**30:.2f} GiB"
        )


@dataclass
class LatencyBreakdown:
    """Per-kernel and aggregate times for one counted run."""

    kernel_seconds: List[float] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(self.kernel_seconds)

    def top(self, n: int = 5) -> List[tuple]:
        order = sorted(
            zip(self.kernel_seconds, self.labels), reverse=True
        )
        return order[:n]


@dataclass(frozen=True)
class CostModel:
    """Latency evaluation of counter records on one device.

    ``neighbor_group_size`` enables the GNNAdvisor-style runtime
    optimization the paper's §8.1 describes: a preprocessing pass splits
    each vertex's edge list into groups of at most this many edges, each
    scheduled as its own block, which caps the serial floor of
    vertex-balanced kernels at the group size (the preprocessing itself
    is a one-time cost outside the steady-state step modelled here).
    """

    spec: GPUSpec
    neighbor_group_size: Optional[int] = None

    # ------------------------------------------------------------------
    def kernel_seconds(self, record: KernelRecord, stats: GraphStats) -> float:
        """Roofline time of one kernel launch."""
        return self._roofline(stats)(record)

    def _roofline(self, stats: GraphStats) -> Callable[[KernelRecord], float]:
        """The roofline of one device on one graph, as a per-record
        function: the spec's throughput products are taken once, and the
        imbalance factor once per distinct ``(mapping, work)``, so a
        phase is priced in one pass.  Each record's arithmetic is the
        same sequence of float operations either way."""
        spec = self.spec
        launch = spec.kernel_launch_s
        dense_flops = spec.peak_flops * spec.dense_efficiency
        graph_flops = spec.peak_flops * spec.graph_compute_efficiency
        stream_bw = spec.bandwidth * spec.stream_bw_efficiency
        gather_bw = spec.bandwidth * spec.gather_bw_efficiency
        fusion, atomic = spec.smem_fusion_overhead, spec.atomic_overhead
        factors: Dict[Tuple[str, str], float] = {}

        def seconds(record: KernelRecord) -> float:
            mapping = record.mapping
            if mapping == "none" or (record.flops == 0 and record.io_bytes == 0):
                return 0.0
            if mapping == "dense":
                t_comp = record.flops / dense_flops
                t_io = record.io_bytes / stream_bw
                return launch + max(t_comp, t_io)

            t_comp = record.flops / graph_flops
            if record.reduce_scatter:
                t_comp *= fusion

            bw = gather_bw if mapping in ("edge", "vertex") else stream_bw
            write_time = record.write_bytes / bw
            if record.atomic:
                write_time *= atomic
            t_io = record.read_bytes / bw + write_time

            t = max(t_comp, t_io)
            key = (mapping, record.work)
            factor = factors.get(key)
            if factor is None:
                factor = factors[key] = self.imbalance_factor(record, stats)
            t *= factor
            return launch + t

        return seconds

    def imbalance_factor(self, record: KernelRecord, stats: GraphStats) -> float:
        """Makespan inflation of degree-shaped vertex-balanced work.

        With one block per vertex and dynamic dispatch, the per-block
        ideal share is ``|E| / min(|V|, concurrent_blocks)`` (parallelism
        cannot exceed the vertex count), and the serial floor is the
        max-degree vertex.  Regular graphs therefore see factor 1.
        """
        if record.mapping != "vertex" or not record.work.startswith("degree"):
            return 1.0
        max_degree = (
            stats.max_in_degree if record.work == "degree_in" else stats.max_out_degree
        )
        if stats.num_edges == 0:
            return 1.0
        if self.neighbor_group_size is not None:
            # Neighbor grouping splits hub edge lists across blocks,
            # capping any block's serial work at the group size.
            max_degree = min(max_degree, self.neighbor_group_size)
        parallelism = min(stats.num_vertices, self.spec.concurrent_blocks)
        ideal_share = stats.num_edges / max(parallelism, 1)
        return max(1.0, max_degree / ideal_share)

    # ------------------------------------------------------------------
    def phase_latency(
        self, phase: PhaseCounters, stats: GraphStats
    ) -> LatencyBreakdown:
        seconds = self._roofline(stats)
        return LatencyBreakdown(
            kernel_seconds=[seconds(r) for r in phase.records],
            labels=[r.label for r in phase.records],
        )

    def latency_seconds(self, counters: Counters, stats: GraphStats) -> float:
        """End-to-end time of one training/inference step."""
        total = self.phase_latency(counters.forward, stats).total_seconds
        if counters.backward is not None:
            total += self.phase_latency(counters.backward, stats).total_seconds
        return total

    # ------------------------------------------------------------------
    def gather_seconds(self, nbytes: int) -> float:
        """Time to fetch scattered feature rows (random row access).

        Receptive-field gathers touch arbitrary vertex rows, so they
        are priced at the random-access bandwidth fraction
        (``gather_bw_efficiency``), matching how edge/vertex-mapped
        kernel traffic is priced above.
        """
        return nbytes / (self.spec.bandwidth * self.spec.gather_bw_efficiency)

    def minibatch_latency_seconds(self, minibatch: "MiniBatchCounters") -> float:
        """Modelled epoch time of sampled training: per-batch kernel
        rooflines on each batch's own field stats, plus the gather cost
        of fetching each field's feature rows."""
        return sum(
            self.latency_seconds(b.compute, b.stats)
            + self.gather_seconds(b.gather_bytes)
            for b in minibatch.batches
        )

    def check_memory(self, counters: Counters) -> None:
        """Raise :class:`SimulatedOOM` if the run cannot fit in DRAM."""
        peak = counters.peak_memory_bytes
        if peak > self.spec.dram_bytes:
            raise SimulatedOOM(peak, self.spec.dram_bytes, self.spec.name)

    def fits(self, counters: Counters) -> bool:
        return counters.peak_memory_bytes <= self.spec.dram_bytes
