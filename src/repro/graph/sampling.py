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
just another :class:`~repro.graph.csr.Graph`.  A sampled field is laid
out hop by hop: its vertices are ordered by (hop distance, id), so ring
*d* — the vertices within *d* hops of the seeds — is rows ``[0, n_d)``
and its in-edges are a prefix of the CSC grouping
(``Graph.row_block("in", 0, n_d)``), the layout of GraphSAGE's
minibatch algorithm and DGL's message-flow blocks.

A batch builds what its step reads and nothing else.  Its subgraph is
made from its in-edges (:class:`~repro.graph.csr.InEdges`): each row's
in-segment in the parent's CSC, less the edges from outside the field.
Every ring but the last was expanded by the k-hop search, whose reads
the induction reuses as they are (all those rows' in-neighbours are in
the field); only the last ring's segments are read and filtered here.
That gives the edge count, both degree vectors, every ring's row block
(a prefix view) and every ring's operator.  The edge list, the edge
ids, ``MiniBatch.edge_ids`` and the ``"out"`` grouping are built on
first use, from the batch's own arrays — no reference to the parent,
weak or strong, and no array of its length — and equal what the cold
``Graph(src, dst, n)`` builds, so no value downstream can tell.  The
expansion, the induction and the schedule are written once, over *edge
layouts*, and serve three callers: :func:`plan_minibatches`,
:func:`repro.serve.batcher.receptive_field` and the two-layout overlay
:class:`repro.dyn.delta.DynamicGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

import numpy as np

from repro.graph.csr import Graph, InEdges, _append_grouping

__all__ = [
    "induced_subgraph",
    "khop_neighborhood",
    "random_vertex_batches",
    "MiniBatch",
    "plan_minibatches",
]


def _segment_positions(
    indptr: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions of the segments of ``vertices``, concatenated in the
    order given, and the running total of their lengths (where each
    segment ends among them).

    One ``np.repeat`` over ``indptr`` diffs instead of a slice per
    vertex — on heavy-tailed graphs the difference between
    O(|vertices|) Python-level loop steps and a handful of NumPy calls.
    A vertex past the layout's last (an overlay's compacted CSR can be
    behind the vertex space) has an empty segment.
    """
    last = indptr.shape[0] - 1
    starts = indptr[np.minimum(vertices, last)]
    stops = indptr[np.minimum(vertices + 1, last)]
    lengths = stops - starts
    ends = np.cumsum(lengths)
    # Position p of segment j reads stops[j] - ends[j] + p.
    index = np.repeat(stops - ends, lengths)
    index += np.arange(index.shape[0])
    return index, ends


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
    increasing = bool((ids[1:] > ids[:-1]).all())
    if ids.size:
        lo, hi = (ids[0], ids[-1]) if increasing else (ids.min(), ids.max())
        if lo < 0 or hi >= num_vertices:
            raise ValueError(f"{what} ids out of range")
    if increasing:
        return ids
    count = ids.shape[0]
    first = np.empty(num_vertices, dtype=np.int64)
    # Repeated indices keep the last write: reversed, that is the first.
    first[ids[::-1]] = np.arange(count - 1, -1, -1)
    return ids[first[ids] == np.arange(count)]


def _khop(layouts, num_vertices: int, seeds: np.ndarray, hops: int):
    """:func:`khop_neighborhood` over edge layouts sharing one vertex space,
    laid out hop by hop, with each field vertex's hop distance and the
    in-edges the expansion read.

    A layout is ``(graph, global id of its first edge)``, the first at
    edge 0; a plain graph is one, a
    :class:`~repro.dyn.delta.DynamicGraph` two (compacted CSR, pending
    edges).  A hop marks the frontier's in-neighbours in a
    boolean over the vertex space and reads the unvisited ones back in
    ascending order: no sort, no ``np.unique``.  Returns the field as
    the concatenation of its rings — the seeds ascending, then each
    hop's new vertices ascending, i.e. ordered by (hop distance, id) —
    and, aligned with it, the non-decreasing hop at which each vertex
    was first reached (0 for the seeds).  The third value holds, per
    layout, one ``(positions, ends, sources)`` per expanded ring: its
    rows' in-segments in the layout's CSC, read in field order
    (:func:`_segment_positions`), and their sources.  Every ring but the
    last is expanded, so those rows' in-edges all come from the field.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    seeds = np.asarray(seeds, dtype=np.int64)
    distinct = _distinct(seeds, num_vertices, "seed")
    visited = np.zeros(num_vertices, dtype=bool)
    visited[distinct] = True
    # Strictly increasing seeds come back as they are: ring 0 already.
    frontier = distinct if distinct is seeds else np.flatnonzero(visited)
    reached = np.zeros(num_vertices, dtype=bool)
    rings, reads = [frontier], [[] for _ in layouts]
    for _ in range(hops):
        if frontier.size == 0:
            break
        for (graph, _), read in zip(layouts, reads):
            index, ends = _segment_positions(graph.csc_indptr, frontier)
            far = graph.csc_src[index]
            reached[far] = True
            read.append((index, ends, far))
        # Every vertex reached so far is visited from here on.
        frontier = np.flatnonzero(reached > visited)
        visited |= reached
        rings.append(frontier)
    distance = np.repeat(
        np.arange(len(rings), dtype=np.int64), [ring.shape[0] for ring in rings]
    )
    return np.concatenate(rings), distance, reads


def _joined(arrays):
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _induce(layouts, num_vertices: int, vertices: np.ndarray, reads=None):
    """:func:`induced_subgraph` over edge layouts (see :func:`_khop`).

    Returns ``(subgraph, kept, edge_ids)``, ``edge_ids`` a function of no
    arguments.  The subgraph is made from its in-edges
    (:class:`~repro.graph.csr.InEdges`, whatever the vertex order): each
    kept vertex's in-segment in each layout's CSC, less the edges whose
    source is left out — in the layout's order, which ascends with edge
    id as the subgraph's own does — keyed by global edge id; a later
    layout's edges follow each row's segment
    (:func:`~repro.graph.csr._append_grouping`).  ``reads``
    (from :func:`_khop`, whose field this is) holds the segments of the
    expanded rows, which need no filtering; the remaining rows' are read
    here.  The in-edges are all the subgraph keeps: its edge ids, edge
    list, ``"out"`` grouping and ``edge_ids`` are built from them on
    first use, so it holds nothing of any layout.
    """
    if reads is None:
        kept = _distinct(vertices, num_vertices, "vertex")
        reads = [[] for _ in layouts]
    else:
        kept = vertices
    if kept.size == 0:
        raise ValueError(
            "induced_subgraph: empty vertex set — a Graph must have "
            "num_vertices > 0; filter out empty batches before inducing"
        )
    n = int(kept.size)
    new_id = np.full(num_vertices, -1, dtype=np.int64)
    new_id[kept] = np.arange(n)
    rest = kept[sum(ends.shape[0] for _, ends, _ in reads[0]):]
    parts = []
    for (graph, first_eid), read in zip(layouts, reads):
        pieces = list(read)
        if rest.size:
            # Rows not expanded: keep the in-edges from field vertices.
            index, ends = _segment_positions(graph.csc_indptr, rest)
            far = graph.csc_src[index]
            inside = np.flatnonzero(new_id[far] >= 0)
            pieces.append((index[inside], np.searchsorted(inside, ends), far[inside]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        row = 0
        for _, ends, _ in pieces:
            indptr[row + 1 : row + 1 + ends.shape[0]] = ends + indptr[row]
            row += ends.shape[0]
        index = _joined([piece[0] for piece in pieces])
        far = new_id[_joined([piece[2] for piece in pieces])]
        keys = graph.csc_eids[index]
        parts.append((indptr, far, keys + first_eid if first_eid else keys))
    indptr, far, keys = parts[0]
    if len(parts) > 1:
        # A row's edges from later layouts follow its segment: their ids do.
        homes = [np.repeat(np.arange(n), np.diff(part[0])) for part in parts[1:]]
        indptr, merged = _append_grouping(
            indptr, np.arange(far.shape[0]), np.concatenate(homes), n
        )
        far = np.concatenate([part[1] for part in parts])[merged]
        keys = np.concatenate([part[2] for part in parts])[merged]
    in_edges = InEdges(indptr, far, keys)
    sub = Graph.grouped(None, None, n, {"in": in_edges})
    return sub, kept, lambda: keys[in_edges.order()]


def induced_subgraph(
    graph: Graph, vertices: np.ndarray
) -> Tuple[Graph, np.ndarray, np.ndarray]:
    """The subgraph induced by ``vertices``.

    Returns ``(subgraph, kept_vertices, kept_edge_ids)``:

    - ``subgraph`` has ``len(kept_vertices)`` vertices, relabeled
      ``0..len-1`` in the order given, made from its in-edges read off
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
    sub, kept, edge_ids = _induce(((graph, 0),), graph.num_vertices, vertices)
    return sub, kept, edge_ids()


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
        Original COO edge ids retained by the induced subgraph, built on
        first read (a ring step never reads them).
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
    _edge_ids: Callable[[], np.ndarray]
    seed_index: np.ndarray
    distance: np.ndarray

    @property
    def edge_ids(self) -> np.ndarray:
        ids = self.__dict__.get("edge_ids")
        if ids is None:
            ids = self.__dict__["edge_ids"] = self._edge_ids()
        return ids

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
    layouts (see :func:`_khop`).  The induction reuses the segments the
    expansion read."""
    field, distance, reads = _khop(layouts, num_vertices, seeds, hops)
    sub, kept, edge_ids = _induce(layouts, num_vertices, field, reads)
    # Ring 0 is the seeds, ascending: positions come from bisect.
    ring0 = kept[: np.searchsorted(distance, 0, side="right")]
    return MiniBatch(
        seeds=seeds,
        vertices=kept,
        subgraph=sub,
        _edge_ids=edge_ids,
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
