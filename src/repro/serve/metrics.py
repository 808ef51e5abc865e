"""Serving metrics: per-request outcomes rolled up into a ServeReport.

The report is the serving twin of :class:`~repro.session.ExperimentReport`:
tail latency (p50/p95/p99 over per-request latencies on the virtual
clock), throughput over the makespan, SLO-violation accounting per
tenant, cache hit rates with exact byte reconciliation, and per-GPU
utilization.  ``counters`` reuses
:class:`~repro.exec.profiler.MiniBatchCounters` — a served batch is
priced exactly like a sampled-training batch (kernel counters on its
field stats plus the gather bill), with the one serving twist that
``gather_bytes`` only charges cache *misses*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exec.profiler import BatchCost, MiniBatchCounters

__all__ = ["RequestOutcome", "BatchTrace", "ServeReport"]


@dataclass(frozen=True)
class RequestOutcome:
    """One request's journey through the server on the virtual clock.

    ``snapshot_s`` is the virtual-clock time of the graph/feature
    snapshot the request was answered against (dynamic serving only;
    ``None`` on a static run).
    """

    request_id: int
    tenant: str
    num_seeds: int
    arrival_s: float
    start_s: float
    finish_s: float
    deadline_s: float
    gpu: int
    snapshot_s: Optional[float] = None

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion time (queueing + batching + service)."""
        return self.finish_s - self.arrival_s

    @property
    def violated(self) -> bool:
        return self.finish_s > self.deadline_s

    @property
    def staleness_s(self) -> float:
        """How old the answered-against snapshot is at delivery time —
        the freshness cost of answering from the dispatch-time state.
        0 on static runs."""
        if self.snapshot_s is None:
            return 0.0
        return self.finish_s - self.snapshot_s


@dataclass(frozen=True)
class BatchTrace:
    """One micro-batch's costing and placement.

    ``cost.gather_bytes`` is the *paid* (cache-miss plus invalidated
    re-gather) gather bill; the split reconciles exactly with the
    uncached convention:
    ``hit_bytes + miss_bytes + invalidated_bytes == cost.field × row
    bytes``.  ``graph_version``/``feature_version`` record the dynamic
    state the batch was costed and executed against (0 on static runs);
    the snapshot is the one current at ``dispatch_s``.
    """

    tenant: str
    request_ids: Tuple[int, ...]
    dispatch_s: float
    start_s: float
    finish_s: float
    gpu: int
    cost: BatchCost
    hit_bytes: int
    miss_bytes: int
    invalidated_bytes: int = 0
    graph_version: int = 0
    feature_version: int = 0

    @property
    def num_requests(self) -> int:
        return len(self.request_ids)

    @property
    def service_s(self) -> float:
        return self.finish_s - self.start_s

    @property
    def queue_s(self) -> float:
        """Time the dispatched batch waited for a free GPU."""
        return self.start_s - self.dispatch_s

    @property
    def uncached_gather_bytes(self) -> int:
        """What the gather would cost with no cache (the reconciliation
        anchor: always equals ``hit + miss + invalidated`` bytes)."""
        return self.hit_bytes + self.miss_bytes + self.invalidated_bytes


@dataclass
class ServeReport:
    """Everything one serving run produced.

    ``outputs`` maps request ids to their delivered seed-row model
    outputs (empty when the server ran with ``execute=False`` — the
    virtual clock and every metric are analytic and do not depend on
    concrete execution).
    """

    outcomes: List[RequestOutcome]
    batches: List[BatchTrace]
    num_gpus: int
    gpu_busy_s: List[float]
    batch_policy_max: int
    batch_policy_wait_s: float
    scheduler_policy: str
    cache_rows: int
    num_vertices: int
    outputs: Dict[int, np.ndarray] = field(default_factory=dict)
    # -- dynamic serving (all zero/defaulted on a static run) ----------
    graph_version: int = 0
    feature_version: int = 0
    num_graph_updates: int = 0
    num_feature_updates: int = 0
    compactions: int = 0
    delta_apply_bytes: int = 0
    compact_bytes: int = 0
    feature_put_bytes: int = 0

    # -- request-level aggregates --------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.outcomes)

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def latencies_s(self) -> np.ndarray:
        return np.array([o.latency_s for o in self.outcomes], dtype=np.float64)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile (``q`` in [0, 100]) over all requests."""
        lat = self.latencies_s
        return float(np.percentile(lat, q)) if lat.size else 0.0

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50)

    @property
    def p95_latency_s(self) -> float:
        return self.latency_percentile(95)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99)

    @property
    def mean_latency_s(self) -> float:
        lat = self.latencies_s
        return float(lat.mean()) if lat.size else 0.0

    @property
    def makespan_s(self) -> float:
        """Virtual-clock horizon: the last batch completion."""
        return max((o.finish_s for o in self.outcomes), default=0.0)

    @property
    def throughput_rps(self) -> float:
        span = self.makespan_s
        return self.num_requests / span if span > 0 else 0.0

    @property
    def mean_batch_requests(self) -> float:
        return (
            self.num_requests / self.num_batches if self.num_batches else 0.0
        )

    # -- SLO accounting ------------------------------------------------
    @property
    def slo_violations(self) -> int:
        return sum(1 for o in self.outcomes if o.violated)

    @property
    def slo_violation_rate(self) -> float:
        n = self.num_requests
        return self.slo_violations / n if n else 0.0

    @property
    def violations_by_tenant(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for o in self.outcomes:
            out.setdefault(o.tenant, 0)
            if o.violated:
                out[o.tenant] += 1
        return out

    # -- cache accounting ----------------------------------------------
    @property
    def gather_hit_bytes(self) -> int:
        return sum(b.hit_bytes for b in self.batches)

    @property
    def gather_miss_bytes(self) -> int:
        return sum(b.miss_bytes for b in self.batches)

    @property
    def gather_invalidated_bytes(self) -> int:
        """Re-gather bytes attributable to feature-write invalidations."""
        return sum(b.invalidated_bytes for b in self.batches)

    @property
    def uncached_gather_bytes(self) -> int:
        return sum(b.uncached_gather_bytes for b in self.batches)

    @property
    def cache_hit_rate(self) -> float:
        """Byte-level hit share of all field-row gathers."""
        total = self.uncached_gather_bytes
        return self.gather_hit_bytes / total if total > 0 else 0.0

    @property
    def invalidation_rate(self) -> float:
        """Byte share of the gather bill re-fetched because a feature
        write invalidated the cached row."""
        total = self.uncached_gather_bytes
        return self.gather_invalidated_bytes / total if total > 0 else 0.0

    # -- freshness accounting ------------------------------------------
    @property
    def num_updates(self) -> int:
        return self.num_graph_updates + self.num_feature_updates

    @property
    def mutation_io_bytes(self) -> int:
        """Total write-side IO: delta appends + compactions + feature
        puts."""
        return (
            self.delta_apply_bytes + self.compact_bytes
            + self.feature_put_bytes
        )

    @property
    def mean_staleness_s(self) -> float:
        """Mean snapshot age at delivery, over requests that carried a
        dynamic snapshot (0.0 for a static run)."""
        ages = [
            o.staleness_s for o in self.outcomes if o.snapshot_s is not None
        ]
        return float(np.mean(ages)) if ages else 0.0

    # -- device accounting ---------------------------------------------
    @property
    def gpu_utilization(self) -> List[float]:
        span = self.makespan_s
        if span <= 0:
            return [0.0] * self.num_gpus
        return [busy / span for busy in self.gpu_busy_s]

    @property
    def counters(self) -> MiniBatchCounters:
        """Served batches as mini-batch counters (flops / IO / per-batch
        peak roll up through the existing aggregation)."""
        return MiniBatchCounters(
            batches=[b.cost for b in self.batches],
            num_vertices=self.num_vertices,
        )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        counters = self.counters
        util = self.gpu_utilization
        lines = [
            f"served {self.num_requests} requests in {self.num_batches} "
            f"batches ({self.mean_batch_requests:.1f} req/batch, "
            f"{self.scheduler_policy} on {self.num_gpus} gpu"
            f"{'s' if self.num_gpus != 1 else ''})",
            f"  latency        p50 {self.p50_latency_s * 1e3:.2f} ms, "
            f"p95 {self.p95_latency_s * 1e3:.2f} ms, "
            f"p99 {self.p99_latency_s * 1e3:.2f} ms",
            f"  throughput     {self.throughput_rps:.0f} req/s over "
            f"{self.makespan_s * 1e3:.1f} ms",
            f"  slo            {self.slo_violations} violated "
            f"({self.slo_violation_rate * 100:.1f}%)",
            f"  gather         {self.gather_miss_bytes / 2**20:.2f} MiB paid, "
            f"{self.gather_hit_bytes / 2**20:.2f} MiB cached "
            f"(hit rate {self.cache_hit_rate * 100:.1f}%, "
            f"{self.cache_rows} cache rows)",
        ]
        if self.num_updates:
            lines += [
                f"  updates        {self.num_graph_updates} graph + "
                f"{self.num_feature_updates} feature "
                f"(graph v{self.graph_version}, features "
                f"v{self.feature_version}, {self.compactions} compactions)",
                f"  mutation io    "
                f"{self.delta_apply_bytes / 2**20:.3f} MiB delta, "
                f"{self.compact_bytes / 2**20:.3f} MiB compact, "
                f"{self.feature_put_bytes / 2**20:.3f} MiB puts",
                f"  freshness      "
                f"{self.gather_invalidated_bytes / 2**20:.3f} MiB "
                f"invalidated re-gathers "
                f"({self.invalidation_rate * 100:.1f}%), mean staleness "
                f"{self.mean_staleness_s * 1e3:.2f} ms",
            ]
        lines += [
            f"  kernel io      {counters.compute_io_bytes / 2**20:.2f} MiB, "
            f"per-batch peak {counters.peak_memory_bytes / 2**20:.2f} MiB",
            "  utilization    "
            + ", ".join(f"gpu{i} {u * 100:.0f}%" for i, u in enumerate(util)),
        ]
        return "\n".join(lines)
