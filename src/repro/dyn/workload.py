"""Seeded update/read mixed workloads for dynamic serving.

Production GNN serving interleaves reads (inference requests) with
writes: feature drift (user embeddings refreshed upstream) and topology
growth (new interactions, new entities).  This module generates both
sides of that mix from one seeded event stream:

- :class:`UpdateEvent` — one timestamped write: a feature ``put``
  batch, an edge-insertion :class:`~repro.dyn.delta.GraphDelta`, or
  both (a delta whose new vertices arrive with their feature rows),
- :func:`mixed_workload` — a single Poisson event process where each
  event is a write with probability ``update_frac`` and a read
  otherwise; reads are ordinary
  :class:`~repro.serve.request.InferenceRequest` objects, so the
  stream plugs straight into :meth:`InferenceServer.serve`; its
  ``updates`` half replays against any other request trace.

Hot-vertex skew uses the same Zipf popularity model as the read path
(:func:`~repro.serve.request.zipf_seed_probabilities`), re-derived as
the vertex count grows.  Everything is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dyn.delta import GraphDelta
from repro.serve.request import (
    InferenceRequest,
    SeedCDF,
    _resolve_rng,
    draw_seeds,
    zipf_seed_probabilities,
)

__all__ = ["UpdateEvent", "mixed_workload"]

#: Rows a feature put refreshes, edges an edge batch inserts, and
#: vertices an edge batch brings when it grows the graph.
_PUT_ROWS = 8
_EDGE_BATCH = 16
_NEW_VERTICES = 2


@dataclass(frozen=True)
class UpdateEvent:
    """One timestamped write against the serving state.

    Attributes
    ----------
    update_id:
        Unique id; ties in ``arrival_s`` break on it, so replay order
        is total and deterministic.
    arrival_s:
        Arrival time on the virtual clock (seconds) — the same clock
        request arrivals live on.
    feature_vertices / feature_rows:
        A :meth:`FeatureStore.put` batch (empty arrays = no put).
    delta:
        A :class:`GraphDelta` edge/vertex insertion batch (``None`` =
        no topology change).
    new_vertex_rows:
        Feature rows for ``delta.num_new_vertices`` freshly inserted
        vertices, applied via :meth:`FeatureStore.add_vertices`.
    """

    update_id: int
    arrival_s: float
    feature_vertices: np.ndarray
    feature_rows: np.ndarray
    delta: Optional[GraphDelta] = None
    new_vertex_rows: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        vertices = np.asarray(self.feature_vertices, dtype=np.int64)
        rows = np.asarray(self.feature_rows, dtype=np.float64)
        if vertices.ndim != 1:
            raise ValueError("feature_vertices must be a 1-D id array")
        if rows.ndim != 2 or rows.shape[0] != vertices.size:
            raise ValueError(
                "feature_rows must be 2-D with one row per feature vertex"
            )
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        new_vertices = (
            self.delta.num_new_vertices if self.delta is not None else 0
        )
        if self.new_vertex_rows is not None:
            nvr = np.asarray(self.new_vertex_rows, dtype=np.float64)
            if nvr.ndim != 2 or nvr.shape[0] != new_vertices:
                raise ValueError(
                    "new_vertex_rows must carry one row per inserted vertex"
                )
            object.__setattr__(self, "new_vertex_rows", nvr)
        elif new_vertices:
            raise ValueError(
                "a delta inserting vertices must supply new_vertex_rows"
            )
        if vertices.size == 0 and self.delta is None:
            raise ValueError("an UpdateEvent must write something")
        object.__setattr__(self, "feature_vertices", vertices)
        object.__setattr__(self, "feature_rows", rows)

    @property
    def num_feature_rows(self) -> int:
        return int(self.feature_vertices.size)

    @property
    def num_edges(self) -> int:
        return self.delta.num_edges if self.delta is not None else 0

    @property
    def num_new_vertices(self) -> int:
        return self.delta.num_new_vertices if self.delta is not None else 0


def _zipf_cache(
    cache: Dict[int, SeedCDF],
    num_vertices: int,
    alpha: float,
) -> Optional[SeedCDF]:
    """Popularity CDF for the current vertex count, cached per count
    (vertex insertions re-derive it lazily)."""
    if alpha == 0.0:
        return None
    if num_vertices not in cache:
        cache[num_vertices] = SeedCDF(
            zipf_seed_probabilities(num_vertices, alpha)
        )
    return cache[num_vertices]


def _draw_update(
    update_id: int,
    arrival_s: float,
    *,
    num_vertices: int,
    feature_dim: int,
    rng: np.random.Generator,
    zipf_p: Optional[SeedCDF],
    zipf_alpha: float,
    edge_frac: float,
    new_vertex_prob: float,
) -> UpdateEvent:
    """One write event over the current ``num_vertices`` vertex space."""
    if rng.random() >= edge_frac:
        # Feature drift: refresh rows of (Zipf-)hot vertices.
        k = min(_PUT_ROWS, num_vertices)
        draws = draw_seeds(
            num_vertices, k, rng=rng, zipf_alpha=zipf_alpha, p=zipf_p
        )
        vertices = np.unique(draws)
        return UpdateEvent(
            update_id=update_id,
            arrival_s=arrival_s,
            feature_vertices=vertices,
            feature_rows=rng.normal(size=(vertices.size, feature_dim)),
        )
    # Topology growth: an edge batch, optionally bringing new vertices.
    new_vertices = (
        _NEW_VERTICES
        if new_vertex_prob and rng.random() < new_vertex_prob
        else 0
    )
    grown = num_vertices + new_vertices
    src = draw_seeds(
        num_vertices, _EDGE_BATCH, rng=rng,
        zipf_alpha=zipf_alpha, p=zipf_p,
    )
    # Destinations may be brand-new vertices (attachment edges).
    dst = rng.integers(0, grown, size=_EDGE_BATCH, dtype=np.int64)
    delta = GraphDelta(src=src, dst=dst, num_new_vertices=new_vertices)
    return UpdateEvent(
        update_id=update_id,
        arrival_s=arrival_s,
        feature_vertices=np.array([], dtype=np.int64),
        feature_rows=np.zeros((0, feature_dim)),
        delta=delta,
        new_vertex_rows=(
            rng.normal(size=(new_vertices, feature_dim))
            if new_vertices
            else None
        ),
    )


def mixed_workload(
    num_requests: int,
    *,
    qps: float,
    num_vertices: int,
    feature_dim: int,
    update_frac: float = 0.2,
    seeds_per_request: int = 1,
    slo_s: float = 0.05,
    tenant: str = "default",
    zipf_alpha: float = 0.0,
    edge_frac: float = 0.5,
    new_vertex_prob: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
) -> Tuple[List[InferenceRequest], List[UpdateEvent]]:
    """A mixed read/write stream on one virtual clock.

    Events arrive as a single Poisson process at rate
    ``qps / (1 - update_frac)`` (so *reads* still arrive at ``qps``);
    each event is independently a write with probability
    ``update_frac``.  Writes split ``edge_frac`` topology /
    ``1 - edge_frac`` feature drift (a put of 8 rows, a batch of 16
    edges); both target (Zipf-)hot vertices over the *current* vertex
    count, which grows as edge batches bring 2 fresh vertices with
    probability ``new_vertex_prob``.  Generation stops once
    ``num_requests`` reads have been emitted.

    Returns ``(requests, updates)`` — both sorted by arrival, ready for
    ``InferenceServer.serve(requests, updates=updates)``.  The whole
    stream is a pure function of ``seed``.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if not 0 < qps < np.inf:
        raise ValueError(f"qps must be positive and finite, got {qps!r}")
    if not 0.0 <= update_frac < 1.0:
        raise ValueError("update_frac must lie in [0, 1)")
    if not 0.0 <= edge_frac <= 1.0:
        raise ValueError("edge_frac must lie in [0, 1]")
    if not 0.0 <= new_vertex_prob <= 1.0:
        raise ValueError("new_vertex_prob must lie in [0, 1]")
    rng = _resolve_rng(rng, seed)
    event_rate = qps / (1.0 - update_frac)
    p_cache: Dict[int, SeedCDF] = {}
    requests: List[InferenceRequest] = []
    updates: List[UpdateEvent] = []
    live_vertices = num_vertices
    clock = 0.0
    while len(requests) < num_requests:
        clock += float(rng.exponential(1.0 / event_rate))
        if update_frac and rng.random() < update_frac:
            event = _draw_update(
                len(updates),
                clock,
                num_vertices=live_vertices,
                feature_dim=feature_dim,
                rng=rng,
                zipf_p=_zipf_cache(p_cache, live_vertices, zipf_alpha),
                zipf_alpha=zipf_alpha,
                edge_frac=edge_frac,
                new_vertex_prob=new_vertex_prob,
            )
            live_vertices += event.num_new_vertices
            updates.append(event)
        else:
            # Reads target the *initial* vertex space: a request for a
            # vertex inserted mid-stream could arrive before its
            # insertion, and the server validates seeds upfront.
            requests.append(
                InferenceRequest(
                    request_id=len(requests),
                    tenant=tenant,
                    seeds=draw_seeds(
                        num_vertices, seeds_per_request, rng=rng,
                        zipf_alpha=zipf_alpha,
                        p=_zipf_cache(p_cache, num_vertices, zipf_alpha),
                    ),
                    arrival_s=clock,
                    slo_s=slo_s,
                )
            )
    return requests, updates

