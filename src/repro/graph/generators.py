"""Synthetic topology generators.

The paper evaluates on four citation/social graphs (Cora, Citeseer,
Pubmed, Reddit) and on k-NN graphs built from ModelNet40 point clouds.
None of those raw datasets are available offline, so this module provides
generators that reproduce the *structural* properties the paper's
techniques are sensitive to:

- vertex/edge counts (set exactly from the published numbers),
- degree skew (Chung–Lu power-law sampling for the social graphs;
  exactly-regular out-degree for k-NN graphs),
- batched disjoint unions (EdgeConv processes a minibatch of point
  clouds as one block-diagonal graph).

All generators are deterministic given a seed and fully vectorised.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.graph.csr import Graph

__all__ = [
    "erdos_renyi",
    "chung_lu",
    "knn_graph",
    "sample_point_cloud",
    "batch_point_clouds",
    "disjoint_union",
    "POINT_CLOUD_SHAPES",
]


def erdos_renyi(num_vertices: int, num_edges: int, *, seed: int = 0) -> Graph:
    """Uniform random directed multigraph with exactly ``num_edges`` edges."""
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return Graph(src, dst, num_vertices)


def chung_lu(
    num_vertices: int,
    num_edges: int,
    *,
    alpha: float = 1.8,
    seed: int = 0,
) -> Graph:
    """Heavy-tailed random graph via the Chung–Lu endpoint-weight model.

    Each endpoint of each edge is drawn independently with probability
    proportional to a per-vertex Pareto weight, giving power-law in- and
    out-degree distributions with exactly ``num_edges`` edges.  This is
    the stand-in for Reddit-like social graphs: the property that matters
    to the paper (a few extremely high-degree vertices that serialise
    vertex-balanced kernels) is preserved.

    Parameters
    ----------
    alpha:
        Pareto shape; smaller = heavier tail.  1.8 gives max-degree /
        mean-degree ratios in the hundreds at Reddit-lite scale, matching
        the skew regime of the real graph.
    """
    if num_vertices <= 0:
        raise ValueError("num_vertices must be positive")
    rng = np.random.default_rng(seed)
    weights = rng.pareto(alpha, size=num_vertices) + 1.0
    p = weights / weights.sum()
    src = rng.choice(num_vertices, size=num_edges, p=p).astype(np.int64)
    dst = rng.choice(num_vertices, size=num_edges, p=p).astype(np.int64)
    return Graph(src, dst, num_vertices)


# ----------------------------------------------------------------------
# Point clouds and k-NN graphs (EdgeConv / ModelNet40 substitute)
# ----------------------------------------------------------------------
def _sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True) + 1e-12
    return x


def _cube(rng: np.random.Generator, n: int) -> np.ndarray:
    # Points on the surface of the unit cube: pick a face, then uniform.
    face = rng.integers(0, 6, size=n)
    pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    axis = face % 3
    sign = np.where(face < 3, 1.0, -1.0)
    pts[np.arange(n), axis] = sign
    return pts


def _cylinder(rng: np.random.Generator, n: int) -> np.ndarray:
    theta = rng.uniform(0, 2 * np.pi, size=n)
    z = rng.uniform(-1.0, 1.0, size=n)
    return np.stack([np.cos(theta), np.sin(theta), z], axis=1)


def _torus(rng: np.random.Generator, n: int) -> np.ndarray:
    theta = rng.uniform(0, 2 * np.pi, size=n)
    phi = rng.uniform(0, 2 * np.pi, size=n)
    r, R = 0.35, 1.0
    x = (R + r * np.cos(phi)) * np.cos(theta)
    y = (R + r * np.cos(phi)) * np.sin(theta)
    z = r * np.sin(phi)
    return np.stack([x, y, z], axis=1)


POINT_CLOUD_SHAPES: Dict[str, Callable[[np.random.Generator, int], np.ndarray]] = {
    "sphere": _sphere,
    "cube": _cube,
    "cylinder": _cylinder,
    "torus": _torus,
}


def sample_point_cloud(
    shape: str,
    num_points: int,
    *,
    jitter: float = 0.02,
    seed: int = 0,
) -> np.ndarray:
    """Sample a jittered 3-D point cloud from a parametric surface.

    These play the role of ModelNet40 CAD models: EdgeConv's behaviour
    depends only on the k-NN topology and feature dimensionality, both of
    which synthetic surfaces reproduce.
    """
    if shape not in POINT_CLOUD_SHAPES:
        raise KeyError(
            f"unknown shape {shape!r}; available: {sorted(POINT_CLOUD_SHAPES)}"
        )
    rng = np.random.default_rng(seed)
    pts = POINT_CLOUD_SHAPES[shape](rng, num_points)
    if jitter:
        pts = pts + rng.normal(scale=jitter, size=pts.shape)
    return pts.astype(np.float64)


def knn_graph(points: np.ndarray, k: int) -> Graph:
    """Directed k-NN graph: an edge ``u → v`` for each of ``v``'s k nearest ``u``.

    Every vertex has in-degree exactly ``k`` (self excluded), matching the
    DGL/EdgeConv convention where messages flow from neighbours into the
    centre point.  Coincident points are neighbours of each other, never
    of themselves.  ``scipy.spatial`` is imported here, on first use.
    """
    from scipy.spatial import cKDTree

    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be (n, dims)")
    n = points.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n}), got {k}")
    # k+1 so that dropping the point itself leaves k.  A tie at distance
    # zero may put it anywhere in its row, or (past k+1 copies) nowhere:
    # such a row drops its farthest neighbour instead.
    _, idx = cKDTree(points).query(points, k=k + 1)
    drop = idx == np.arange(n)[:, None]
    drop[~drop.any(axis=1), -1] = True
    dst = np.repeat(np.arange(n, dtype=np.int64), k)
    src = idx[~drop].astype(np.int64)
    return Graph(src, dst, n)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """Block-diagonal union of graphs, relabelling vertices contiguously.

    Built by folding :meth:`~repro.graph.csr.Graph.with_edges` (the
    shared append path), so block ``i``'s edges occupy a contiguous
    edge-id range after block ``i-1``'s — edge-feature tensors for each
    member graph stay aligned as consecutive slices.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    out = graphs[0]
    for g in graphs[1:]:
        out = out.with_edges(
            g.src + out.num_vertices,
            g.dst + out.num_vertices,
            num_new_vertices=g.num_vertices,
        )
    return out


def batch_point_clouds(
    batch_size: int,
    num_points: int,
    k: int,
    *,
    seed: int = 0,
) -> tuple[Graph, np.ndarray]:
    """A minibatch of point clouds as one graph, plus stacked coordinates.

    Shapes cycle through the four parametric surfaces, mimicking a
    ModelNet40 minibatch.  Returns ``(graph, points)`` where ``points``
    has shape ``(batch_size * num_points, 3)`` aligned with graph vertex
    ids.
    """
    names = list(POINT_CLOUD_SHAPES)
    graphs = []
    clouds = []
    for i in range(batch_size):
        pts = sample_point_cloud(
            names[i % len(names)], num_points, seed=seed * 10007 + i
        )
        clouds.append(pts)
        graphs.append(knn_graph(pts, k))
    return disjoint_union(graphs), np.concatenate(clouds, axis=0)
