"""Multi-GPU cluster specs and the partitioned latency model.

A :class:`Cluster` is ``num_gpus`` copies of a registered
:class:`~repro.gpu.spec.GPUSpec` joined by an interconnect
(bandwidth + per-exchange latency).  Clusters carry a ``.name``
(``"V100x4"``) and can be registered on the unified GPU registry like
any single device, so ``Session.gpu("V100x4")`` and ``.cluster("V100",
4)`` are interchangeable.

:class:`ClusterCostModel` extends the single-device roofline to the
partitioned execution model:

- each GPU runs every kernel on its own partition (per-part counters
  from :func:`repro.exec.analytic.analyze_training_multi`) — the step's
  compute time is the **slowest GPU**,
- halo exchanges and gradient all-reduces serialise with compute (the
  bulk-synchronous schedule the paper's systems use): each costs
  ``bytes / interconnect_bandwidth`` plus a fixed latency per exchange,
- per-GPU peak memory is checked against the *single device's* DRAM —
  partitioning is also how a model that OOMs on one board fits on four.

The communication/computation breakdown this produces is the quantity
the scaling experiments report: the comm fraction grows with the GPU
count (each part's ghost rows approach every vertex it does not own
while per-GPU compute shrinks as ``1/P``); whether the step goes
communication-bound depends on how many rows each exchange ships.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.exec.profiler import Counters, MultiGPUCounters
from repro.gpu.cost_model import CostModel, SimulatedOOM
from repro.gpu.spec import GPUSpec, _require_positive
from repro.graph.partition import PartitionStats
from repro.registry import GPUS, register_gpu

__all__ = ["Cluster", "ClusterCostModel", "CommBreakdown", "make_cluster"]


@dataclass(frozen=True)
class Cluster:
    """N identical GPUs joined by an interconnect.

    ``interconnect_gbps`` is the effective per-GPU exchange bandwidth
    in **gigabytes per second** (the same GB/s convention as
    :attr:`GPUSpec.mem_bandwidth_gbps`; NVLink-class by default); every
    halo exchange or all-reduce round also pays a fixed 5 µs
    (:attr:`interconnect_latency_s`).
    """

    name: str
    gpu: GPUSpec
    num_gpus: int
    interconnect_gbps: float = 64.0

    def __post_init__(self) -> None:
        _require_positive(self, "num_gpus")
        _require_positive(self, "interconnect_gbps")
        if not float(self.num_gpus).is_integer():
            raise ValueError(f"Cluster.num_gpus must be a whole number, got {self.num_gpus!r}")

    @property
    def interconnect_bandwidth(self) -> float:
        """Bytes/second."""
        return self.interconnect_gbps * 1e9

    @property
    def interconnect_latency_s(self) -> float:
        return 5.0 * 1e-6

    @property
    def dram_bytes_per_gpu(self) -> int:
        return self.gpu.dram_bytes

    @property
    def total_dram_bytes(self) -> int:
        return self.gpu.dram_bytes * self.num_gpus


def make_cluster(
    gpu: Union[str, GPUSpec],
    num_gpus: int,
    *,
    interconnect_gbps: Optional[float] = None,
    register: bool = False,
) -> Cluster:
    """Build (and optionally register) ``num_gpus`` copies of a GPU.

    ``gpu`` is a registry name or a spec instance; the cluster is named
    ``"<gpu>x<n>"``.  ``interconnect_gbps`` sets the link (default: the
    :class:`Cluster` field's).  With ``register=True`` the cluster joins
    the GPU registry so sessions can refer to it by name.
    """
    spec = GPUS.resolve(gpu)
    if isinstance(spec, Cluster):
        raise TypeError("cannot build a cluster of clusters")
    kwargs = {}
    if interconnect_gbps is not None:
        kwargs["interconnect_gbps"] = interconnect_gbps
    cluster = Cluster(
        name=f"{spec.name}x{num_gpus}", gpu=spec, num_gpus=num_gpus, **kwargs
    )
    if register:
        register_gpu(cluster, replace=True)
    return cluster


# ======================================================================
@dataclass(frozen=True)
class CommBreakdown:
    """Communication-vs-computation split of one partitioned step."""

    compute_seconds: float
    comm_seconds: float
    comm_bytes: int
    exchanges: int

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds

    @property
    def comm_fraction(self) -> float:
        """Share of step time spent on the interconnect."""
        total = self.total_seconds
        return self.comm_seconds / total if total > 0 else 0.0

    @property
    def comm_bound(self) -> bool:
        return self.comm_seconds > self.compute_seconds


@dataclass(frozen=True)
class ClusterCostModel:
    """Latency/memory evaluation of multi-GPU counters on a cluster."""

    cluster: Cluster

    def breakdown(
        self, multi: MultiGPUCounters, pstats: PartitionStats
    ) -> CommBreakdown:
        """Slowest-GPU compute plus serialised interconnect traffic."""
        if multi.num_gpus != self.cluster.num_gpus:
            raise ValueError(
                f"counters describe {multi.num_gpus} GPUs, cluster has "
                f"{self.cluster.num_gpus}"
            )
        device = CostModel(self.cluster.gpu)
        compute = max(
            (
                device.latency_seconds(shard.compute, pstats.parts[p])
                for p, shard in enumerate(multi.per_gpu)
            ),
            default=0.0,
        )
        comm = 0.0
        for shard in multi.per_gpu:
            t = (
                shard.comm_bytes / self.cluster.interconnect_bandwidth
                + shard.exchanges * self.cluster.interconnect_latency_s
            )
            comm = max(comm, t)
        return CommBreakdown(
            compute_seconds=compute,
            comm_seconds=comm,
            comm_bytes=multi.comm_bytes,
            exchanges=max((s.exchanges for s in multi.per_gpu), default=0),
        )

    def latency_seconds(
        self, multi: MultiGPUCounters, pstats: PartitionStats
    ) -> float:
        return self.breakdown(multi, pstats).total_seconds

    # ------------------------------------------------------------------
    def fits(self, multi: MultiGPUCounters) -> bool:
        """Every GPU's partition fits its own DRAM."""
        return all(
            shard.compute.peak_memory_bytes <= self.cluster.dram_bytes_per_gpu
            for shard in multi.per_gpu
        )

    def check_memory(self, multi: MultiGPUCounters) -> None:
        for i, shard in enumerate(multi.per_gpu):
            peak = shard.compute.peak_memory_bytes
            if peak > self.cluster.dram_bytes_per_gpu:
                raise SimulatedOOM(
                    peak,
                    self.cluster.dram_bytes_per_gpu,
                    f"{self.cluster.name}[gpu{i}]",
                )
