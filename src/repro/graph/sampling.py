"""Subgraph sampling for mini-batch training.

The paper trains full-graph, but Reddit-scale GNNs are commonly trained
on sampled subgraphs (GraphSAGE / Cluster-GCN style).  This module
provides the vertex-induced-subgraph machinery that makes the library's
single-graph training loop usable in mini-batch form:

- :func:`induced_subgraph` — restrict a graph to a vertex subset,
- :func:`khop_neighborhood` — the receptive field of a seed set (an
  L-layer GNN needs the L-hop in-neighbourhood for exact embeddings),
- :func:`random_vertex_batches` — a partition sampler for epochs,
- :func:`plan_minibatches` — one epoch's worth of :class:`MiniBatch`
  schedules (seeds → receptive field → induced subgraph), consumed both
  by the concrete :class:`~repro.train.minibatch.MiniBatchTrainer` and
  by the analytic per-batch walker
  (:func:`repro.exec.analytic.analyze_minibatch`).

Everything composes with the existing engine: a sampled subgraph is
just another :class:`~repro.graph.csr.Graph` — one that inherits its
CSC/CSR groupings from its parent's instead of sorting its own edge
list (:func:`_inherit`; equal arrays, so no value moves).  A sampled
field is laid out hop by hop: its vertices are ordered by (hop
distance, id), so ring *d* — the vertices within *d* hops of the seeds
— is rows ``[0, n_d)`` and its in-edges are a prefix of the CSC
grouping (``Graph.row_block("in", 0, n_d)``), the layout of GraphSAGE's
minibatch algorithm and DGL's message-flow blocks.  The
expansion, the induction and the schedule are written once, over *edge
layouts*, and serve three callers: :func:`plan_minibatches`,
:func:`repro.serve.batcher.receptive_field` and the two-layout overlay
:class:`repro.dyn.delta.DynamicGraph`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.graph.csr import Graph, _append_grouping

__all__ = [
    "induced_subgraph",
    "khop_neighborhood",
    "random_vertex_batches",
    "MiniBatch",
    "plan_minibatches",
]


def _segment_positions(indptr: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Positions of the segments of ``vertices``, concatenated in the
    order given.

    One ``np.repeat`` over ``indptr`` diffs instead of a slice per
    vertex — on heavy-tailed graphs the difference between
    O(|vertices|) Python-level loop steps and a handful of NumPy calls.
    A vertex past the layout's last (an overlay's compacted CSR can be
    behind the vertex space) has an empty segment.
    """
    last = indptr.shape[0] - 1
    starts = indptr[np.minimum(vertices, last)]
    counts = indptr[np.minimum(vertices + 1, last)] - starts
    # Position p of segment j reads starts[j] + (p - offsets[j]).
    offsets = np.cumsum(counts) - counts
    index = np.repeat(starts - offsets, counts)
    index += np.arange(index.shape[0])
    return index


def _distinct(ids: np.ndarray, num_vertices: int, what: str) -> np.ndarray:
    """``ids`` checked and without repeats, in first-seen order.

    Strictly increasing input — every sorted seed set — is already that
    and comes back as is (the same array).  Otherwise each id keeps its
    first position: one scatter over the vertex space, no Python loop
    (a hop-ordered field is distinct but not increasing).
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError(f"{what} must be a 1-D id array")
    if ids.size and (ids.min() < 0 or ids.max() >= num_vertices):
        raise ValueError(f"{what} ids out of range")
    if (ids[1:] > ids[:-1]).all():
        return ids
    count = ids.shape[0]
    first = np.empty(num_vertices, dtype=np.int64)
    # Repeated indices keep the last write: reversed, that is the first.
    first[ids[::-1]] = np.arange(count - 1, -1, -1)
    return ids[first[ids] == np.arange(count)]


def _mark_in_neighbours(
    layouts, frontier: np.ndarray, reached: np.ndarray
) -> None:
    """Set ``reached[u]`` for every edge ``u → v``, ``v`` in ``frontier``."""
    for graph, _ in layouts:
        index = _segment_positions(graph.csc_indptr, frontier)
        reached[graph.csc_src[index]] = True


def _khop(
    layouts, num_vertices: int, seeds: np.ndarray, hops: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`khop_neighborhood` over edge layouts sharing one vertex space,
    laid out hop by hop, with each field vertex's hop distance.

    A layout is ``(graph, global id of its first edge)``, the first at
    edge 0; a plain graph is one, a
    :class:`~repro.dyn.delta.DynamicGraph` two (compacted CSR, pending
    edges).  A hop marks the frontier's in-neighbours in a
    boolean over the vertex space and reads the unvisited ones back in
    ascending order: no sort, no ``np.unique``.  Returns the field as
    the concatenation of its rings — the seeds ascending, then each
    hop's new vertices ascending, i.e. ordered by (hop distance, id) —
    and, aligned with it, the non-decreasing hop at which each vertex
    was first reached (0 for the seeds).
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    visited = np.zeros(num_vertices, dtype=bool)
    visited[_distinct(seeds, num_vertices, "seed")] = True
    frontier = np.flatnonzero(visited)
    reached = np.zeros(num_vertices, dtype=bool)
    rings = [frontier]
    for _ in range(hops):
        if frontier.size == 0:
            break
        _mark_in_neighbours(layouts, frontier, reached)
        reached[visited] = False
        frontier = np.flatnonzero(reached)
        visited[frontier] = True
        reached[frontier] = False
        rings.append(frontier)
    distance = np.repeat(
        np.arange(len(rings), dtype=np.int64), [ring.shape[0] for ring in rings]
    )
    return np.concatenate(rings), distance


def _inherit(
    parent: Graph,
    vertices: np.ndarray,
    member: np.ndarray,
    kept: np.ndarray,
    orientation: str,
    home: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, eids)`` of an induced subgraph, read off its parent's.

    Local vertex ``i`` is ``parent`` vertex ``vertices[i]``, in any
    order; ``member`` marks them over the vertex space.  The subgraph's
    first ``len(kept)`` edges are ``parent``'s edges ``kept``
    (ascending); any later ones come from later layouts, whose ids
    follow.  ``home`` is each edge's home endpoint among the local
    vertices.  A local vertex's segment is its parent vertex's, in the
    parent's grouped order, less the edges whose far endpoint is left
    out: the parent orders each segment by ascending edge id and local
    ids ascend with parent ids, so that is the grouping
    :func:`~repro.graph.csr._group_edges` would compute, with no sort,
    whatever the vertex order; the later layouts' edges follow at each
    vertex (:func:`~repro.graph.csr._append_grouping`).  The
    parent-length scratch dies with the call.
    """
    count, n = kept.shape[0], vertices.shape[0]
    indptr, order = parent.segments(orientation)
    far = parent.csc_src if orientation == "in" else parent.csr_dst
    positions = _segment_positions(indptr, vertices)
    # Parent edge id → local edge id; read where kept only.
    local = np.empty(parent.num_edges, dtype=np.int64)
    local[kept] = np.arange(count)
    grouped = local[order[positions[member[far[positions]]]]]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(home[:count], minlength=n), out=indptr[1:])
    if count == home.shape[0]:
        return indptr, grouped
    return _append_grouping(indptr, grouped, home[count:], n)


def _induce(
    layouts, num_vertices: int, vertices: np.ndarray
) -> Tuple[Graph, np.ndarray, np.ndarray]:
    """:func:`induced_subgraph` over edge layouts (see :func:`_khop`).

    The subgraph inherits its groupings (:func:`_inherit`), whatever
    the vertex order: ``"in"`` now, ``"out"`` on first use
    (forward-only serving never asks) and only while the first layout's
    graph is still around — it is referenced weakly, so a batch keeps
    nothing of its parent alive — else from the edge list as for any
    graph.  Every array equals what ``Graph(src, dst, n)`` would build
    either way.
    """
    kept = _distinct(vertices, num_vertices, "vertex")
    if kept.size == 0:
        raise ValueError(
            "induced_subgraph: empty vertex set — a Graph must have "
            "num_vertices > 0; filter out empty batches before inducing"
        )
    n = int(kept.size)
    new_id = np.full(num_vertices, -1, dtype=np.int64)
    new_id[kept] = np.arange(n)
    member = new_id >= 0
    src, dst, eids = [], [], []
    for graph, first_eid in layouts:
        found = np.flatnonzero(member[graph.src] & member[graph.dst])
        src.append(new_id[graph.src[found]])
        dst.append(new_id[graph.dst[found]])
        eids.append(found + first_eid)
    count = eids[0].shape[0]
    src, dst, eids = map(np.concatenate, (src, dst, eids))
    # The first layout starts at edge 0: its kept ids are its own.
    parent, own = layouts[0][0], eids[:count]
    parent_ref = weakref.ref(parent)

    def out_segments():
        graph = parent_ref()
        return (
            None if graph is None
            else _inherit(graph, kept, member, own, "out", src)
        )

    sub = Graph.grouped(
        src, dst, n,
        {"in": _inherit(parent, kept, member, own, "in", dst), "out": out_segments},
    )
    return sub, kept, eids


def induced_subgraph(
    graph: Graph, vertices: np.ndarray
) -> Tuple[Graph, np.ndarray, np.ndarray]:
    """The subgraph induced by ``vertices``.

    Returns ``(subgraph, kept_vertices, kept_edge_ids)``:

    - ``subgraph`` has ``len(kept_vertices)`` vertices, relabeled
      ``0..len-1`` in the order given, and inherits both groupings from
      ``graph``'s (:func:`_induce`),
    - ``kept_vertices`` is the (deduplicated, order-preserving) vertex
      list — index new id → old id; slice vertex features with it,
    - ``kept_edge_ids`` are the original COO edge ids retained (in
      ascending edge-id order, so per-destination reduction order
      matches the full graph) — slice edge features with it.

    ``vertices`` must be non-empty after deduplication:
    :class:`~repro.graph.csr.Graph` requires ``num_vertices > 0``, and a
    phantom vertex would desynchronise ``subgraph.num_vertices`` from
    ``len(kept_vertices)``-based feature slicing.  Empty batches raise
    ``ValueError``; callers sampling batches should skip them upstream
    (``random_vertex_batches`` never yields one).
    """
    return _induce(((graph, 0),), graph.num_vertices, vertices)


def khop_neighborhood(
    graph: Graph, seeds: np.ndarray, hops: int
) -> np.ndarray:
    """Vertices reachable by following ≤ ``hops`` in-edges backwards.

    The receptive field of ``seeds`` under ``hops`` rounds of message
    passing: seeds plus every vertex with a directed path of length
    ≤ hops *into* a seed.  Returned sorted.  Each round is one
    vectorised expansion (:func:`_khop`).
    """
    return np.sort(_khop(((graph, 0),), graph.num_vertices, seeds, hops)[0])


def random_vertex_batches(
    num_vertices: int,
    batch_size: int,
    *,
    rng: np.random.Generator,
) -> Iterator[np.ndarray]:
    """Yield a random partition of the vertex set in fixed-size batches.

    The degenerate-epoch contract (relied on by
    :class:`~repro.train.minibatch.MiniBatchTrainer` and the analytic
    per-batch walker, which both assume ≥ 1 step per epoch):

    - ``num_vertices`` must be positive — an empty vertex set cannot
      produce a training step, so it raises ``ValueError`` instead of
      silently yielding an empty epoch;
    - ``batch_size > num_vertices`` yields exactly one batch covering
      every vertex (the full-graph limit — one epoch is one step);
    - otherwise batches have exactly ``batch_size`` vertices, except the
      last which may be smaller (never empty).

    One full pass = one epoch of Cluster-GCN-style subgraph training.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if num_vertices <= 0:
        raise ValueError(
            "random_vertex_batches: num_vertices must be positive — an "
            "epoch over an empty vertex set has no training steps"
        )
    order = rng.permutation(num_vertices)
    for start in range(0, num_vertices, batch_size):
        yield order[start:start + batch_size]


# ======================================================================
# Mini-batch schedules
# ======================================================================
@dataclass(frozen=True)
class MiniBatch:
    """One sampled training step: seeds, receptive field, topology.

    Attributes
    ----------
    seeds:
        Original vertex ids whose losses this step optimises.
    vertices:
        The receptive field (original ids): seeds plus their
        ``hops``-hop in-neighbourhood, laid out hop by hop — the seeds
        ascending, then each hop's new vertices ascending.  Slice vertex
        features with it — these are the rows the step gathers from host
        feature storage, the IO term that dominates sampled training.
    subgraph:
        ``vertices``-induced subgraph, relabeled ``0..len-1`` in
        ``vertices`` order.
    edge_ids:
        Original COO edge ids retained by the induced subgraph.
    seed_index:
        Positions of ``seeds`` within ``vertices`` (= subgraph-local
        seed ids, all in the ring-0 prefix); mask losses with it.
    distance:
        Hop distance of each field vertex from the seeds, aligned with
        ``vertices`` and so non-decreasing: ring *d* is the prefix of
        rows with distance ≤ *d*, what an engine run that reads only the
        seeds' rows computes each layer on
        (``Engine.run_plan(distance=)``).
    """

    seeds: np.ndarray
    vertices: np.ndarray
    subgraph: Graph
    edge_ids: np.ndarray
    seed_index: np.ndarray
    distance: np.ndarray

    @property
    def num_seeds(self) -> int:
        return int(self.seeds.size)

    @property
    def field_size(self) -> int:
        return int(self.vertices.size)

    def seed_mask(self) -> np.ndarray:
        """Boolean mask over subgraph vertices selecting the seeds."""
        mask = np.zeros(self.subgraph.num_vertices, dtype=bool)
        mask[self.seed_index] = True
        return mask


def _sample(
    layouts, num_vertices: int, seeds: np.ndarray, hops: int
) -> MiniBatch:
    """Sorted unique seeds → k-hop field → induced subgraph → positions:
    the one construction behind :func:`plan_minibatches`,
    :func:`repro.serve.batcher.receptive_field` and
    :meth:`repro.dyn.delta.DynamicGraph.receptive_field`, over edge
    layouts (see :func:`_khop`)."""
    field, distance = _khop(layouts, num_vertices, seeds, hops)
    sub, kept, eids = _induce(layouts, num_vertices, field)
    # Ring 0 is the seeds, ascending: positions come from bisect.
    ring0 = kept[: np.searchsorted(distance, 0, side="right")]
    return MiniBatch(
        seeds=seeds,
        vertices=kept,
        subgraph=sub,
        edge_ids=eids,
        seed_index=np.searchsorted(ring0, seeds),
        distance=distance,
    )


def plan_minibatches(
    graph: Graph,
    batch_size: int,
    hops: int,
    *,
    rng: np.random.Generator,
) -> Iterator[MiniBatch]:
    """One epoch of mini-batch schedules over ``graph``.

    Draws :func:`random_vertex_batches`, expands each batch to its
    :func:`khop_neighborhood` receptive field, laid out hop by hop, and
    induces the subgraph.  A batch that covers every vertex is all ring
    0, so its field is sorted, and ``induced_subgraph`` preserves
    ascending edge-id order within every segment: it reproduces the
    original graph exactly — the bit-consistency anchor of the
    mini-batch trainer.
    """
    for seeds in random_vertex_batches(
        graph.num_vertices, batch_size, rng=rng
    ):
        yield _sample(((graph, 0),), graph.num_vertices, np.sort(seeds), hops)
