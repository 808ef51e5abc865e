"""Degree-level graph summaries for analytic (no-execution) accounting.

Every FLOP / IO / memory formula in the library is a function of
``|V|``, ``|E|`` and, for workload-imbalance modelling, the degree
distribution.  :class:`GraphStats` packages exactly that, so the analytic
pipeline (counters + GPU cost model) can run on topologies far too large
to materialise — most importantly the full 115M-edge Reddit graph used by
the paper's Figure 7/9/10/11 experiments, which we only ever need at the
stats level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "GraphStats",
    "expected_khop_membership",
    "expected_field_stats",
]


@dataclass(frozen=True)
class GraphStats:
    """Summary of a directed graph sufficient for cost accounting.

    Attributes
    ----------
    num_vertices, num_edges:
        ``|V|`` and ``|E|``.
    in_degrees, out_degrees:
        Integer arrays of shape ``(num_vertices,)``.  Their sums must both
        equal ``num_edges``.  Stored read-only (copied first when the
        caller's array would be aliased), so the degree maxima computed
        at construction can never go stale.
    """

    num_vertices: int
    num_edges: int
    in_degrees: np.ndarray
    out_degrees: np.ndarray

    def __post_init__(self) -> None:
        ind = _frozen_degrees(self.in_degrees)
        outd = _frozen_degrees(self.out_degrees)
        if ind.shape != (self.num_vertices,) or outd.shape != (self.num_vertices,):
            raise ValueError(
                "degree arrays must have shape (num_vertices,); got "
                f"{ind.shape} / {outd.shape} for num_vertices={self.num_vertices}"
            )
        if int(ind.sum()) != self.num_edges or int(outd.sum()) != self.num_edges:
            raise ValueError(
                "degree sums must equal num_edges: "
                f"sum(in)={int(ind.sum())}, sum(out)={int(outd.sum())}, "
                f"num_edges={self.num_edges}"
            )
        object.__setattr__(self, "in_degrees", ind)
        object.__setattr__(self, "out_degrees", outd)
        # Every vertex-mapped kernel record the cost model prices reads
        # a maximum: take each once here, not once per record.
        object.__setattr__(self, "_max_in", int(ind.max()) if ind.size else 0)
        object.__setattr__(self, "_max_out", int(outd.max()) if outd.size else 0)

    # ------------------------------------------------------------------
    @property
    def mean_in_degree(self) -> float:
        """Average in-degree, ``|E| / |V|``."""
        return self.num_edges / max(self.num_vertices, 1)

    @property
    def max_in_degree(self) -> int:
        """Largest in-degree; the serialisation floor of vertex-balanced kernels."""
        return self._max_in

    @property
    def max_out_degree(self) -> int:
        return self._max_out

    def degree_imbalance(self) -> float:
        """``max_in_degree / mean_in_degree`` — a scalar skew indicator.

        A regular graph (e.g. a k-NN graph) has imbalance 1; the Reddit
        power-law graph has imbalance in the thousands, which is why the
        paper observes vertex-balanced fused kernels losing latency there
        (Section 7.3, "Fusion").
        """
        mean = self.mean_in_degree
        return self.max_in_degree / mean if mean > 0 else 1.0

    # ------------------------------------------------------------------
    @classmethod
    def from_degree_model(
        cls,
        num_vertices: int,
        mean_degree: float,
        *,
        alpha: float = 1.8,
        max_degree: Optional[int] = None,
        seed: int = 0,
    ) -> "GraphStats":
        """Sample power-law degree arrays without building any edges.

        Degrees follow a discrete Pareto-like law ``P(d) ∝ d^(-alpha)``
        rescaled to the requested mean, optionally clipped at
        ``max_degree`` (real social graphs have bounded hubs — the
        GraphSAGE Reddit graph tops out around 22K — whereas an
        unclipped Pareto tail at 233K samples produces million-degree
        outliers that would distort the imbalance model).  ``in`` and
        ``out`` degrees are sampled independently and then adjusted so
        both sum to the same ``num_edges``.  This is how the full-size
        Reddit topology enters the analytic pipeline: 233K degree
        entries instead of 115M edges.
        """
        if num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        if mean_degree <= 0:
            raise ValueError("mean_degree must be positive")
        rng = np.random.default_rng(seed)

        def sample(n: int) -> np.ndarray:
            raw = rng.pareto(alpha, size=n) + 1.0
            scaled = raw * (mean_degree / raw.mean())
            deg = np.maximum(np.round(scaled), 0).astype(np.int64)
            if max_degree is not None:
                deg = np.minimum(deg, max_degree)
            return deg

        ind = sample(num_vertices)
        outd = sample(num_vertices)
        target = int(round(mean_degree * num_vertices))
        ind = _adjust_sum(ind, target, rng, cap=max_degree)
        outd = _adjust_sum(outd, target, rng, cap=max_degree)
        return cls(num_vertices, target, ind, outd)

    @classmethod
    def regular(cls, num_vertices: int, degree: int) -> "GraphStats":
        """Stats of a ``degree``-regular directed graph (e.g. k-NN)."""
        deg = np.full(num_vertices, degree, dtype=np.int64)
        return cls(num_vertices, num_vertices * degree, deg, deg)


def _frozen_degrees(degrees) -> np.ndarray:
    """``degrees`` as a read-only int64 array that aliases no caller's."""
    arr = np.asarray(degrees, dtype=np.int64)
    if arr is degrees or np.may_share_memory(arr, degrees):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _degree_order(degrees: np.ndarray) -> np.ndarray:
    """Vertex ids by descending degree, ties by ascending id (greedy
    partitioning's visit order)."""
    return np.argsort(-degrees, kind="stable")


# ======================================================================
# Expected receptive fields (degree-model estimates for sampled training)
# ======================================================================
def expected_khop_membership(
    stats: "GraphStats", batch_size: int, hops: int
) -> np.ndarray:
    """Per-vertex probability of lying in a random batch's k-hop field.

    Degree-model estimate under configuration-model independence: with
    ``b = min(batch_size, |V|)`` uniform seeds, every vertex starts at
    membership ``b/|V|``; each hop, a vertex joins if any of its
    out-edges points into the current field.  The endpoint of a random
    edge is in-degree biased, so the per-edge hit probability is
    ``t = Σ_v in_deg(v)·m(v) / |E|`` and the update is::

        m'(u) = 1 - (1 - m(u)) · (1 - t)^{out_deg(u)}

    Exact receptive-field sizes come from sampling concrete batches
    (:func:`repro.graph.sampling.plan_minibatches`); this estimator is
    how stats-only workloads (e.g. the 115M-edge ``reddit-full``) enter
    the per-batch IO/memory accounting.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if hops < 0:
        raise ValueError("hops must be non-negative")
    V, E = stats.num_vertices, stats.num_edges
    m = np.full(V, min(batch_size, V) / V, dtype=np.float64)
    for _ in range(hops):
        if E == 0:
            break
        t = float((stats.in_degrees * m).sum()) / E
        m = 1.0 - (1.0 - m) * np.power(1.0 - t, stats.out_degrees)
    return m


def expected_field_stats(
    stats: "GraphStats",
    batch_size: int,
    hops: int,
    *,
    rng: np.random.Generator,
) -> "GraphStats":
    """One Monte-Carlo realisation of a batch's receptive-field stats.

    Draws a field of the expected size with vertices weighted by their
    membership probability, then thins each member's degrees binomially
    by the probability that the corresponding edge endpoint also landed
    in the field (``s`` for in-edges' sources, ``t`` for out-edges'
    destinations).  Both degree arrays are nudged to the common
    expected induced-edge count ``|E|·s·t`` so the result is a valid
    :class:`GraphStats` for the analytic walkers.  Deterministic given
    ``rng`` — the stats-only twin of inducing a sampled batch.
    """
    m = expected_khop_membership(stats, batch_size, hops)
    V, E = stats.num_vertices, stats.num_edges
    n_field = max(1, int(round(m.sum())))
    weights = m / m.sum()
    members = np.sort(
        rng.choice(V, size=min(n_field, V), replace=False, p=weights)
    )
    if E == 0:
        zeros = np.zeros(members.size, dtype=np.int64)
        return GraphStats(members.size, 0, zeros, zeros)
    # Edge-endpoint membership probabilities (degree-biased).
    t = float((stats.in_degrees * m).sum()) / E    # dst of a random edge
    s = float((stats.out_degrees * m).sum()) / E   # src of a random edge
    ind = rng.binomial(stats.in_degrees[members], min(s, 1.0)).astype(np.int64)
    outd = rng.binomial(stats.out_degrees[members], min(t, 1.0)).astype(np.int64)
    target = int(round(E * s * t))
    target = min(target, int(stats.in_degrees[members].sum()),
                 int(stats.out_degrees[members].sum()))
    ind = _adjust_sum(ind, target, rng)
    outd = _adjust_sum(outd, target, rng)
    return GraphStats(members.size, target, ind, outd)


def _adjust_sum(
    deg: np.ndarray,
    target: int,
    rng: np.random.Generator,
    *,
    cap: "Optional[int]" = None,
) -> np.ndarray:
    """Nudge a degree array so it sums exactly to ``target``.

    The difference is spread over uniformly chosen vertices one unit at a
    time (vectorised via bincount), clamping at zero and, when ``cap`` is
    given, at the maximum degree.
    """
    deg = deg.copy()
    diff = target - int(deg.sum())
    while diff != 0:
        step = 1 if diff > 0 else -1
        picks = rng.integers(0, deg.size, size=abs(diff))
        delta = np.bincount(picks, minlength=deg.size) * step
        if step < 0:
            # Cannot take more than a vertex already has.
            delta = np.maximum(delta, -deg)
        elif cap is not None:
            delta = np.minimum(delta, np.maximum(cap - deg, 0))
        deg = deg + delta
        diff = target - int(deg.sum())
    return deg
