"""Inference requests and synthetic open-loop workload generators.

Online serving is driven by *requests*: a tenant asks for the model
outputs of a handful of seed vertices and expects them within an SLO.
This module defines the request record and the seeded generators the
serving experiments run on:

- :func:`poisson_workload` — open-loop Poisson arrivals (exponential
  inter-arrival gaps at a target QPS),
- :func:`bursty_workload` — the same mean rate delivered in bursts
  (requests arrive in groups, the worst case for a micro-batcher's
  queueing delay),
- :func:`zipf_seed_probabilities` / :func:`draw_seeds` — Zipf-skewed
  seed popularity, the access pattern that makes feature caching pay
  off; a stream builds its :class:`SeedCDF` once and every draw bisects
  into it.

Every generator takes an explicit ``rng``/``seed`` (no module-global
``np.random``): the same seed reproduces the identical workload, which
is what makes :class:`~repro.serve.metrics.ServeReport` deterministic
end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

__all__ = [
    "InferenceRequest",
    "zipf_seed_probabilities",
    "SeedCDF",
    "draw_seeds",
    "poisson_workload",
    "bursty_workload",
]


@dataclass(frozen=True)
class InferenceRequest:
    """One online inference request: seed vertices plus a deadline.

    Attributes
    ----------
    request_id:
        Unique id; the server keys delivered outputs by it.
    tenant:
        Which (model, tenant) queue the request belongs to.
    seeds:
        Vertex ids whose model outputs the client wants.
    arrival_s:
        Arrival time on the virtual clock (seconds).
    slo_s:
        Latency budget; the request's absolute deadline is
        ``arrival_s + slo_s``.
    """

    request_id: int
    tenant: str
    seeds: np.ndarray
    arrival_s: float
    slo_s: float

    def __post_init__(self) -> None:
        seeds = np.asarray(self.seeds, dtype=np.int64)
        if seeds.ndim != 1 or seeds.size == 0:
            raise ValueError("seeds must be a non-empty 1-D id array")
        if self.slo_s <= 0:
            raise ValueError("slo_s must be positive")
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        object.__setattr__(self, "seeds", seeds)

    @property
    def num_seeds(self) -> int:
        return int(self.seeds.size)

    @property
    def deadline_s(self) -> float:
        return self.arrival_s + self.slo_s


def _resolve_rng(
    rng: Optional[np.random.Generator], seed: int
) -> np.random.Generator:
    """One explicit randomness path: a Generator wins over a seed."""
    if rng is not None:
        if not isinstance(rng, np.random.Generator):
            raise TypeError("rng must be a numpy Generator (got legacy state?)")
        return rng
    return np.random.default_rng(seed)


def zipf_seed_probabilities(num_vertices: int, alpha: float) -> np.ndarray:
    """Zipf popularity over vertex ids: ``p(v) ∝ 1 / (v + 1)**alpha``.

    ``alpha = 0`` is uniform.  Rank equals vertex id (documented
    convention — reordering the graph reorders the popularity), so the
    distribution is fully determined by ``(num_vertices, alpha)``.
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    weights = 1.0 / np.power(np.arange(1, num_vertices + 1, dtype=np.float64), alpha)
    return weights / weights.sum()


class SeedCDF:
    """A seed-popularity vector as its normalised CDF, built once per
    stream so each draw is a bisection instead of an O(|V|) cumsum.

    Validates ``p`` the way ``Generator.choice(p=p)`` does and raises
    the same ``ValueError`` for the same inputs: ``p`` must be 1-D,
    NaN-free, non-negative and sum to 1 within ``sqrt(eps)``.
    """

    __slots__ = ("cdf",)

    def __init__(self, p: np.ndarray):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        p_sum = p.sum()
        if np.isnan(p_sum):
            raise ValueError("probabilities contain NaN")
        if (p < 0).any():
            raise ValueError("probabilities are not non-negative")
        if abs(p_sum - 1.0) > np.sqrt(np.finfo(np.float64).eps):
            raise ValueError("probabilities do not sum to 1")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf


def draw_seeds(
    num_vertices: int,
    size: int,
    *,
    rng: np.random.Generator,
    zipf_alpha: float = 0.0,
    p: Union[SeedCDF, np.ndarray, None] = None,
) -> np.ndarray:
    """Draw ``size`` seed vertices (with replacement) from the popularity
    model.  Uniform when ``zipf_alpha == 0``; otherwise Zipf-skewed —
    the hot-vertex pattern real request streams show.

    Pass a :class:`SeedCDF` as ``p`` (built once per stream from
    :func:`zipf_seed_probabilities`) and a draw costs ``size`` uniforms
    and a bisection.  A probability vector, or ``None``, is still
    accepted but is validated and accumulated into a fresh CDF on every
    call — O(|V|).  Either way the draw is ``Generator.choice(
    num_vertices, size, replace=True, p=p)`` value for value, generator
    state included; the returned array is the caller's.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if zipf_alpha == 0.0:
        return rng.integers(0, num_vertices, size=size, dtype=np.int64)
    if not isinstance(p, SeedCDF):
        if p is None:
            p = zipf_seed_probabilities(num_vertices, zipf_alpha)
        p = SeedCDF(p)
    if p.cdf.size != num_vertices:
        raise ValueError("num_vertices and p must have same size")
    draws = p.cdf.searchsorted(rng.random(size), side="right")
    return draws.astype(np.int64, copy=False)


def _make_requests(
    arrivals: np.ndarray,
    *,
    num_vertices: int,
    seeds_per_request: int,
    slo_s: float,
    tenant: str,
    zipf_alpha: float,
    rng: np.random.Generator,
    start_id: int,
) -> List[InferenceRequest]:
    # One CDF for the whole stream; per-request draws reuse it.
    p = (
        SeedCDF(zipf_seed_probabilities(num_vertices, zipf_alpha))
        if zipf_alpha != 0.0
        else None
    )
    return [
        InferenceRequest(
            request_id=start_id + i,
            tenant=tenant,
            seeds=draw_seeds(
                num_vertices, seeds_per_request,
                rng=rng, zipf_alpha=zipf_alpha, p=p,
            ),
            arrival_s=float(t),
            slo_s=slo_s,
        )
        for i, t in enumerate(arrivals)
    ]


def poisson_workload(
    num_requests: int,
    *,
    qps: float,
    num_vertices: int,
    seeds_per_request: int = 1,
    slo_s: float = 0.05,
    tenant: str = "default",
    zipf_alpha: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    start_id: int = 0,
) -> List[InferenceRequest]:
    """Open-loop Poisson arrivals at ``qps`` requests per second.

    Inter-arrival gaps are exponential with mean ``1/qps``; the first
    request arrives after one gap.  Seed vertices are drawn per request
    from the ``zipf_alpha`` popularity model.  All randomness flows
    through the explicit ``rng`` (or ``seed``).
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if not 0 < qps < np.inf:
        raise ValueError(f"qps must be positive and finite, got {qps!r}")
    rng = _resolve_rng(rng, seed)
    arrivals = np.cumsum(rng.exponential(1.0 / qps, size=num_requests))
    return _make_requests(
        arrivals,
        num_vertices=num_vertices,
        seeds_per_request=seeds_per_request,
        slo_s=slo_s,
        tenant=tenant,
        zipf_alpha=zipf_alpha,
        rng=rng,
        start_id=start_id,
    )


def bursty_workload(
    num_requests: int,
    *,
    qps: float,
    num_vertices: int,
    burst: int = 8,
    seeds_per_request: int = 1,
    slo_s: float = 0.05,
    tenant: str = "default",
    zipf_alpha: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    start_id: int = 0,
) -> List[InferenceRequest]:
    """Bursty arrivals at the same mean rate as a ``qps`` Poisson stream.

    Requests arrive in bursts of ``burst`` simultaneous requests; burst
    gaps are exponential with mean ``burst/qps``, so the long-run rate
    is still ``qps``.  The pattern stresses the micro-batcher: bursts
    fill batches instantly while the gaps between them leave stragglers
    waiting out ``max_wait``.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if not 0 < qps < np.inf:
        raise ValueError(f"qps must be positive and finite, got {qps!r}")
    if burst <= 0:
        raise ValueError("burst must be positive")
    rng = _resolve_rng(rng, seed)
    num_bursts = -(-num_requests // burst)  # ceil
    gaps = rng.exponential(burst / qps, size=num_bursts)
    burst_times = np.cumsum(gaps)
    arrivals = np.repeat(burst_times, burst)[:num_requests]
    return _make_requests(
        arrivals,
        num_vertices=num_vertices,
        seeds_per_request=seeds_per_request,
        slo_s=slo_s,
        tenant=tenant,
        zipf_alpha=zipf_alpha,
        rng=rng,
        start_id=start_id,
    )
