"""Dynamic micro-batching of queued inference requests.

A GNN inference request is dominated by its receptive-field gather, and
nearby requests share field vertices — so the server coalesces queued
requests into one receptive-field batch.  The policy is the classic
``max_batch`` / ``max_wait`` micro-batcher: a batch dispatches as soon
as it holds ``max_batch`` requests, or when its oldest request has
waited ``max_wait_s``, whichever comes first.

Batching trades latency for efficiency both ways: at low load requests
eat the ``max_wait`` timeout; at high load batches fill instantly and
amortise the per-batch receptive-field expansion.

:func:`receptive_field` reuses the sampling-layer machinery (the
expansion and induction behind
:func:`~repro.graph.sampling.khop_neighborhood` +
:func:`~repro.graph.sampling.induced_subgraph`) and returns the same
:class:`~repro.graph.sampling.MiniBatch` schedule the mini-batch
trainer consumes — serving is the inference-side twin of sampled
training.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.csr import Graph
from repro.graph.sampling import MiniBatch, _sample
from repro.serve.request import InferenceRequest

__all__ = ["BatchPolicy", "MicroBatch", "coalesce", "receptive_field"]


@dataclass(frozen=True)
class BatchPolicy:
    """Micro-batching knobs.

    ``max_batch`` is in *requests* (their seed sets are unioned);
    ``max_wait_s`` bounds how long the oldest queued request may wait
    before the batch dispatches anyway.
    """

    max_batch: int = 8
    max_wait_s: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")


@dataclass(frozen=True)
class MicroBatch:
    """A coalesced group of requests dispatched together.

    ``dispatch_s`` is when the batcher released the batch (the fill
    time if ``max_batch`` was reached, the oldest request's timeout
    otherwise); ``deadline_s`` is the earliest member deadline — what
    an EDF scheduler sorts on.
    """

    tenant: str
    requests: Tuple[InferenceRequest, ...]
    dispatch_s: float

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValueError("a MicroBatch needs at least one request")

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def seeds(self) -> np.ndarray:
        """Deduplicated, sorted union of the member requests' seeds."""
        return np.unique(np.concatenate([r.seeds for r in self.requests]))

    @property
    def oldest_arrival_s(self) -> float:
        return min(r.arrival_s for r in self.requests)

    @property
    def deadline_s(self) -> float:
        return min(r.deadline_s for r in self.requests)


def coalesce(
    requests: Sequence[InferenceRequest], policy: BatchPolicy
) -> List[MicroBatch]:
    """Run the open-loop batcher over one tenant's request stream.

    Requests are processed in arrival order.  A batch opens at its
    first request's arrival ``t0`` and closes at ``t0 + max_wait_s``;
    every request arriving before the close joins until ``max_batch``
    is reached.  A filled batch dispatches at the arrival that filled
    it, an unfilled one at its close — the batcher is open-loop
    (dispatch times depend only on arrivals, never on downstream GPU
    availability; queueing happens in the scheduler).
    """
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    tenants = {r.tenant for r in ordered}
    if len(tenants) > 1:
        raise ValueError(
            f"coalesce() batches one tenant queue at a time, got {sorted(tenants)}"
        )
    batches: List[MicroBatch] = []
    i, n = 0, len(ordered)
    while i < n:
        close = ordered[i].arrival_s + policy.max_wait_s
        j = i
        while (
            j < n
            and j - i < policy.max_batch
            and ordered[j].arrival_s <= close
        ):
            j += 1
        filled = j - i == policy.max_batch
        dispatch = ordered[j - 1].arrival_s if filled else close
        batches.append(
            MicroBatch(
                tenant=ordered[i].tenant,
                requests=tuple(ordered[i:j]),
                dispatch_s=float(dispatch),
            )
        )
        i = j
    return batches


def receptive_field(graph: Graph, seeds: np.ndarray, hops: int) -> MiniBatch:
    """Expand a seed set to its ``hops``-hop receptive-field schedule.

    Identical construction to one :func:`~repro.graph.sampling.plan_minibatches`
    step (sorted unique seeds → k-hop in-neighbourhood, laid out hop by
    hop → induced subgraph), so a server batch is bit-compatible with a
    direct engine run on the same induced subgraph.
    """
    return _sample(
        ((graph, 0),), graph.num_vertices,
        np.unique(np.asarray(seeds, dtype=np.int64)), hops,
    )
