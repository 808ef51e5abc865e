"""Vertex partitioning for multi-GPU execution.

A :class:`GraphPartition` splits the vertex set of one
:class:`~repro.graph.csr.Graph` into ``num_parts`` disjoint *owned*
sets.  Edge ownership follows the destination vertex (the owner of an
edge's destination owns the edge), which makes every **Gather over
in-edges a purely local reduction** — the layout DistDGL and NeuGraph
use, and the one that keeps partitioned execution bit-identical to
single-graph execution:

- Each part's :attr:`~PartSubgraph.in_graph` holds exactly the owned
  edges, in ascending global edge-id order, over local vertex ids where
  owned vertices come first and *ghost* sources (remote endpoints of cut
  edges) come after.  Stable grouping preserves the per-segment edge
  order of the global CSC, so segmented reductions accumulate in the
  same order as the unpartitioned kernel.
- Scatter needs the source-side rows of cut edges — the
  :attr:`~PartSubgraph.ghost_src` *halo map* lists exactly the remote
  vertex rows a part must fetch before any edge kernel runs.
- Gather over out-edges (backward passes) reduces each owned vertex's
  full out-edge list over :attr:`~PartSubgraph.out_graph`: an
  out-edge aggregation fetches the rows of its remote endpoints
  (:attr:`~PartSubgraph.ghost_dst`), any other out-edge Gather the
  remotely-owned edge rows (:attr:`~PartSubgraph.halo_out_edges`).

Three partitioners are provided: ``hash`` (pseudo-random, perfectly
balanced in expectation), ``range`` (contiguous blocks of vertex ids),
and ``greedy`` (streaming linear-deterministic-greedy edge-cut
minimisation, visiting vertices by descending degree).

:class:`PartitionStats` is the degree-level summary the multi-GPU
analytic walker consumes — exact when derived from a concrete
partition, expectation-based when derived from raw
:class:`~repro.graph.stats.GraphStats` (how the 115M-edge Reddit graph
is partitioned without ever materialising an edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Tuple

import numpy as np

from repro.graph.csr import Graph
from repro.graph.stats import GraphStats, _degree_order

__all__ = [
    "PartSubgraph",
    "GraphPartition",
    "PartitionStats",
    "partition_graph",
    "hash_assignment",
    "range_assignment",
    "greedy_edge_cut_assignment",
    "receptive_field",
    "allreduce_bytes_per_gpu",
    "PARTITION_METHODS",
]

PARTITION_METHODS = ("hash", "range", "greedy")


# ======================================================================
# Assignment functions: graph -> part id per vertex
# ======================================================================
def hash_assignment(
    num_vertices: int, num_parts: int, *, seed: int = 0
) -> np.ndarray:
    """Pseudo-random assignment via a splitmix64-style integer mix.

    Deterministic in ``(num_vertices, num_parts, seed)`` and
    independent of vertex ordering — the standard baseline partitioner
    of distributed GNN systems.
    """
    _check_parts(num_parts)
    v = np.arange(num_vertices, dtype=np.uint64)
    z = v + np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(
        0x9E3779B97F4A7C15
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(num_parts)).astype(np.int64)


def range_assignment(num_vertices: int, num_parts: int) -> np.ndarray:
    """Contiguous blocks (``np.array_split`` sizing: remainders first)."""
    _check_parts(num_parts)
    out = np.empty(num_vertices, dtype=np.int64)
    start = 0
    for p, chunk in enumerate(np.array_split(np.arange(num_vertices), num_parts)):
        out[start:start + chunk.size] = p
        start += chunk.size
    return out


def greedy_edge_cut_assignment(
    graph: Graph,
    num_parts: int,
    *,
    balance_slack: float = 1.05,
) -> np.ndarray:
    """Streaming greedy edge-cut minimisation (LDG-style).

    Vertices are visited in descending total-degree order; each goes to
    the part holding most of its already-placed neighbours, scaled by
    remaining capacity (``cap = ceil(|V|/P · slack)``) so no part
    overfills.  O(|V| + |E|) and deterministic.
    """
    _check_parts(num_parts)
    V = graph.num_vertices
    cap = int(np.ceil(V / num_parts * balance_slack))
    assignment = np.full(V, -1, dtype=np.int64)
    # One neighbour CSR: each vertex's in-neighbours (CSC order), then
    # its out-neighbours (CSR order).
    in_deg, out_deg = graph.in_degrees, graph.out_degrees
    indptr = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(in_deg + out_deg, out=indptr[1:])
    neighbours = np.empty(int(indptr[-1]), dtype=np.int64)
    rank = np.arange(graph.num_edges)
    at_in = np.repeat(indptr[:-1] - graph.csc_indptr[:-1], in_deg) + rank
    at_out = np.repeat(indptr[:-1] + in_deg - graph.csr_indptr[:-1], out_deg) + rank
    neighbours[at_in] = graph.csc_src
    neighbours[at_out] = graph.csr_dst
    # Per part: the capacity factor ``1 - size / cap``, ``None`` once full.
    sizes = [0] * num_parts
    factors = [1.0] * num_parts
    bounds = indptr.tolist()
    for v in _degree_order(in_deg + out_deg).tolist():
        # Slot 0 counts unplaced neighbours; part q's count is slot q + 1.
        counts = np.bincount(
            assignment[neighbours[bounds[v]:bounds[v + 1]]] + 1,
            minlength=num_parts + 1,
        ).tolist()
        # The part holding most placed neighbours, scaled by remaining
        # capacity (a capacity-aware tie-break: prefer emptier parts);
        # the first on ties, never a full one.
        best, best_score = 0, float("-inf")
        for q, factor in enumerate(factors):
            if factor is not None:
                score = counts[q + 1] * factor
                if score > best_score:
                    best, best_score = q, score
        assignment[v] = best
        sizes[best] += 1
        factors[best] = None if sizes[best] >= cap else 1.0 - sizes[best] / cap
    return assignment


_ASSIGNERS: Dict[str, Callable] = {
    "hash": lambda g, p, seed: hash_assignment(g.num_vertices, p, seed=seed),
    "range": lambda g, p, seed: range_assignment(g.num_vertices, p),
    "greedy": lambda g, p, seed: greedy_edge_cut_assignment(g, p),
}


def _check_parts(num_parts: int) -> None:
    if num_parts <= 0:
        raise ValueError("num_parts must be positive")


# ======================================================================
# Per-part subgraphs
# ======================================================================
@dataclass(frozen=True)
class PartSubgraph:
    """One part's local view of the partitioned graph.

    Local vertex ids: owned vertices first (``0 .. num_owned-1``, in
    ascending global-id order), ghost vertices after.  Both local
    graphs keep their edges in ascending global edge-id order, so
    per-segment reduction order matches the global kernels exactly.
    """

    part_id: int
    #: Global ids of owned vertices, ascending.
    owned: np.ndarray
    #: Global ids of remote sources of owned edges (the halo map a
    #: vertex-tensor exchange must fetch before a Scatter), ascending.
    ghost_src: np.ndarray
    #: Global edge ids owned by this part (destination owned), ascending.
    in_edge_ids: np.ndarray
    #: Owned edges over local ids ``owned ++ ghost_src``.
    in_graph: Graph
    #: Global ids of remote destinations of outgoing edges, ascending.
    ghost_dst: np.ndarray
    #: Global edge ids whose source is owned (the out-gather edge set),
    #: ascending.
    out_edge_ids: np.ndarray
    #: Out-edges of owned vertices over local ids ``owned ++ ghost_dst``.
    out_graph: Graph

    @property
    def num_owned(self) -> int:
        return int(self.owned.size)

    @property
    def num_local_vertices(self) -> int:
        """Rows a vertex tensor occupies on this GPU (owned + halo)."""
        return int(self.owned.size + self.ghost_src.size)

    @property
    def halo_in_rows(self) -> int:
        """Vertex rows fetched per vertex-tensor halo exchange."""
        return int(self.ghost_src.size)

    @cached_property
    def halo_out_edges(self) -> int:
        """Remotely-owned edge rows fetched per out-orientation Gather.

        An out-edge is remotely owned exactly when its destination is a
        ghost, i.e. a local id past the owned block of ``out_graph``.
        """
        return int((self.out_graph.dst >= self.num_owned).sum())

    def stats(self) -> GraphStats:
        """Degree summary of the local in-graph (owned + ghost rows).

        Owned rows keep their exact global in-degree (every in-edge of
        an owned vertex is local); ghost rows contribute out-degree
        only.  Both degree sums equal the owned-edge count, so the
        result is a valid :class:`GraphStats` whose vertex extent is the
        rows a vertex tensor really occupies on this GPU.
        """
        n_local = self.num_local_vertices
        if n_local == 0:
            empty = np.zeros(0, dtype=np.int64)
            return GraphStats(0, 0, empty, empty)
        return GraphStats(
            num_vertices=n_local,
            num_edges=int(self.in_edge_ids.size),
            in_degrees=self.in_graph.in_degrees[:n_local],
            out_degrees=self.in_graph.out_degrees[:n_local],
        )


def _build_part(graph: Graph, assignment: np.ndarray, part: int) -> PartSubgraph:
    owned_mask = assignment == part
    owned = np.flatnonzero(owned_mask)

    def ghost_ids(endpoints: np.ndarray) -> np.ndarray:
        # A mask over V, so the ids come out ascending with no sort.
        mask = np.zeros(graph.num_vertices, dtype=bool)
        mask[endpoints] = True
        mask &= ~owned_mask
        return np.flatnonzero(mask)

    in_eids = np.flatnonzero(owned_mask[graph.dst])
    src_g, dst_g = graph.src[in_eids], graph.dst[in_eids]
    ghost_src = ghost_ids(src_g)

    out_eids = np.flatnonzero(owned_mask[graph.src])
    osrc_g, odst_g = graph.src[out_eids], graph.dst[out_eids]
    ghost_dst = ghost_ids(odst_g)

    def local_graph(ghosts: np.ndarray, s: np.ndarray, d: np.ndarray) -> Graph:
        lookup = np.full(graph.num_vertices, -1, dtype=np.int64)
        lookup[owned] = np.arange(owned.size)
        lookup[ghosts] = owned.size + np.arange(ghosts.size)
        # Empty parts keep a 1-vertex placeholder graph (Graph requires
        # a positive vertex count); callers slice by num_owned.
        return Graph(lookup[s], lookup[d], max(int(owned.size + ghosts.size), 1))

    return PartSubgraph(
        part_id=part,
        owned=owned,
        ghost_src=ghost_src,
        in_edge_ids=in_eids,
        in_graph=local_graph(ghost_src, src_g, dst_g),
        ghost_dst=ghost_dst,
        out_edge_ids=out_eids,
        out_graph=local_graph(ghost_dst, osrc_g, odst_g),
    )


# ======================================================================
# The partition object
# ======================================================================
@dataclass(frozen=True)
class GraphPartition:
    """A graph split into disjoint owned vertex sets plus halo maps."""

    graph: Graph
    assignment: np.ndarray
    num_parts: int
    method: str
    parts: Tuple[PartSubgraph, ...]
    #: ``vertex_owner_row[v]`` — row of global vertex ``v`` inside its
    #: owner's owned-vertex block (halo fetches index through this).
    vertex_owner_row: np.ndarray
    #: ``edge_owner_row[e]`` — row of global edge ``e`` inside its
    #: owner's owned-edge block.
    edge_owner_row: np.ndarray

    # ------------------------------------------------------------------
    @property
    def edge_owner(self) -> np.ndarray:
        """Owning part of each edge (the owner of its destination)."""
        return self.assignment[self.graph.dst]

    @property
    def cut_edges(self) -> int:
        """Edges whose endpoints live on different parts: each is one
        remotely-owned out-edge of its source's part."""
        return sum(p.halo_out_edges for p in self.parts)

    @property
    def replication_factor(self) -> float:
        """Mean copies of a vertex row across GPUs (owned + ghosts)."""
        total = sum(p.num_local_vertices for p in self.parts)
        return total / max(self.graph.num_vertices, 1)

    def validate(self) -> None:
        """Assert the partition invariants (tests call this).

        Thin shim over the static analyzer's RP6xx partition checker
        (:func:`repro.analysis.partition_checks.check_partition`) —
        one diagnostic vocabulary — keeping the historical
        ``AssertionError`` contract with the same message text.
        """
        from repro.analysis.partition_checks import check_partition

        diags = check_partition(self)
        if diags:
            raise AssertionError(diags[0].message)

    def stats(self) -> "PartitionStats":
        return PartitionStats.from_partition(self)


def partition_graph(
    graph: Graph,
    num_parts: int,
    *,
    method: str = "hash",
    seed: int = 0,
) -> GraphPartition:
    """Split ``graph`` into ``num_parts`` parts with halo maps.

    ``method`` is one of :data:`PARTITION_METHODS`.  Every vertex lands
    in exactly one part; every edge is owned by its destination's part.
    """
    if method not in PARTITION_METHODS:
        raise ValueError(
            f"unknown partition method {method!r}; choose from {PARTITION_METHODS}"
        )
    assignment = _ASSIGNERS[method](graph, num_parts, seed)
    parts = tuple(_build_part(graph, assignment, p) for p in range(num_parts))
    vertex_owner_row = np.empty(graph.num_vertices, dtype=np.int64)
    edge_owner_row = np.empty(graph.num_edges, dtype=np.int64)
    for part in parts:
        vertex_owner_row[part.owned] = np.arange(part.num_owned)
        edge_owner_row[part.in_edge_ids] = np.arange(part.in_edge_ids.size)
    return GraphPartition(
        graph=graph,
        assignment=assignment,
        num_parts=num_parts,
        method=method,
        parts=parts,
        vertex_owner_row=vertex_owner_row,
        edge_owner_row=edge_owner_row,
    )


def receptive_field(graph: Graph, seeds: np.ndarray, hops: int) -> np.ndarray:
    """L-hop in-neighbourhood closure via edge-mask sweeps.

    Equivalent to :func:`~repro.graph.sampling.khop_neighborhood` but
    computed by whole-edge-set membership tests rather than frontier
    BFS — the two implementations cross-check each other in the fuzz
    suite.  This is exactly the vertex set a part must hold (owned plus
    ``hops`` rounds of halo) to compute exact ``hops``-layer GNN
    embeddings of its owned vertices.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    member = np.zeros(graph.num_vertices, dtype=bool)
    seeds = np.asarray(seeds, dtype=np.int64)
    member[seeds] = True
    for _ in range(hops):
        reached = member.copy()
        np.logical_or.at(reached, graph.src, member[graph.dst])
        if (reached == member).all():
            break
        member = reached
    return np.nonzero(member)[0].astype(np.int64)


# ======================================================================
# Degree-level partition summary (analytic substrate)
# ======================================================================
def allreduce_bytes_per_gpu(nbytes: int, num_parts: int) -> int:
    """Bytes each GPU moves in a ring all-reduce of one ``nbytes`` buffer."""
    if num_parts <= 1:
        return 0
    return int(round(2.0 * (num_parts - 1) / num_parts * nbytes))


@dataclass(frozen=True)
class PartitionStats:
    """Per-part :class:`GraphStats` plus halo extents.

    ``parts[p]`` describes part ``p``'s *local* in-graph: vertex extent
    is owned + ghost rows (what a vertex tensor occupies on that GPU),
    edge extent is the owned edges.  ``halo_in_rows[p]`` is the ghost
    row count fetched per vertex-tensor exchange, ``halo_out_rows[p]``
    the remotely-owned edge rows fetched per out-orientation Gather (or
    per weight of an out-edge aggregation), ``halo_dst_rows[p]`` the
    ghost destination rows an out-edge aggregation fetches.
    """

    num_parts: int
    parts: Tuple[GraphStats, ...]
    owned_vertices: Tuple[int, ...]
    halo_in_rows: Tuple[int, ...]
    halo_out_rows: Tuple[int, ...]
    halo_dst_rows: Tuple[int, ...]
    cut_edges: int
    total_vertices: int
    total_edges: int

    def __post_init__(self) -> None:
        for field in (
            "parts", "owned_vertices", "halo_in_rows", "halo_out_rows", "halo_dst_rows",
        ):
            if len(getattr(self, field)) != self.num_parts:
                raise ValueError(f"{field} must have one entry per part")

    @property
    def cut_fraction(self) -> float:
        return self.cut_edges / max(self.total_edges, 1)

    # ------------------------------------------------------------------
    @classmethod
    def from_partition(cls, partition: GraphPartition) -> "PartitionStats":
        """Exact summary of a concrete :class:`GraphPartition`."""
        return cls(
            num_parts=partition.num_parts,
            parts=tuple(p.stats() for p in partition.parts),
            owned_vertices=tuple(p.num_owned for p in partition.parts),
            halo_in_rows=tuple(p.halo_in_rows for p in partition.parts),
            halo_out_rows=tuple(p.halo_out_edges for p in partition.parts),
            halo_dst_rows=tuple(int(p.ghost_dst.size) for p in partition.parts),
            cut_edges=partition.cut_edges,
            total_vertices=partition.graph.num_vertices,
            total_edges=partition.graph.num_edges,
        )

    @classmethod
    def from_stats(
        cls, stats: GraphStats, num_parts: int
    ) -> "PartitionStats":
        """Expected hash-partition summary from degree arrays alone.

        This is how stats-only workloads (the full 115M-edge Reddit
        graph) enter the multi-GPU pipeline.  Under uniform random
        vertex assignment:

        - part ``p`` owns the stride sample ``p::P`` of the degree
          arrays (its owned edge count is that sample's in-degree sum),
        - a vertex ``u`` is a ghost of part ``p`` with probability
          ``(1 - 1/P) · (1 - (1 - 1/P)^d_out(u))`` — not owned there,
          but at least one out-edge lands there — and a ghost
          destination with ``(1 - 1/P) · (1 - (1 - 1/P)^d_in(u))``,
        - a fraction ``(P-1)/P`` of edges are cut.
        """
        _check_parts(num_parts)
        if num_parts == 1:
            return cls(
                num_parts=1,
                parts=(stats,),
                owned_vertices=(stats.num_vertices,),
                halo_in_rows=(0,),
                halo_out_rows=(0,),
                halo_dst_rows=(0,),
                cut_edges=0,
                total_vertices=stats.num_vertices,
                total_edges=stats.num_edges,
            )
        P = num_parts
        cut_frac = (P - 1) / P
        # ``(1 - 1/P)^d`` read off one table of powers per degree: the
        # same ``pow`` of the same operands, one pass for both sides.
        misses = (1.0 - 1.0 / P) ** np.arange(
            max(stats.max_in_degree, stats.max_out_degree) + 1, dtype=np.float64
        )
        ghost_prob = (1.0 - 1.0 / P) * (1.0 - misses[stats.out_degrees])
        expected_ghosts = int(round(ghost_prob.sum()))
        dst_prob = (1.0 - 1.0 / P) * (1.0 - misses[stats.in_degrees])
        expected_dst_ghosts = int(round(dst_prob.sum()))

        parts, owned, halo_in, halo_out = [], [], [], []
        for p in range(P):
            ind = stats.in_degrees[p::P]
            outd_sample = stats.out_degrees[p::P]
            edges_p = int(ind.sum())
            ghosts_p = expected_ghosts
            # Local out-degrees: owned vertices keep the uncut share of
            # their out-edges, ghosts carry the cut edges in — rescaled
            # so both degree sums equal the owned edge count exactly.
            own_out = _rescale_to_sum(
                outd_sample, int(round((1.0 - cut_frac) * edges_p))
            )
            ghost_out = _even_split(ghosts_p, edges_p - int(own_out.sum()))
            parts.append(
                GraphStats(
                    num_vertices=int(ind.size + ghosts_p),
                    num_edges=edges_p,
                    in_degrees=np.concatenate(
                        [ind, np.zeros(ghosts_p, dtype=np.int64)]
                    ),
                    out_degrees=np.concatenate([own_out, ghost_out]),
                )
            )
            owned.append(int(ind.size))
            halo_in.append(ghosts_p)
            halo_out.append(int(round(cut_frac * outd_sample.sum())))
        return cls(
            num_parts=P,
            parts=tuple(parts),
            owned_vertices=tuple(owned),
            halo_in_rows=tuple(halo_in),
            halo_out_rows=tuple(halo_out),
            halo_dst_rows=(expected_dst_ghosts,) * P,
            cut_edges=int(round(cut_frac * stats.num_edges)),
            total_vertices=stats.num_vertices,
            total_edges=stats.num_edges,
        )


def _rescale_to_sum(arr: np.ndarray, target: int) -> np.ndarray:
    """Round ``arr`` to integers summing exactly to ``target`` (≥ 0).

    Deterministic largest-remainder rounding; degenerate inputs (empty,
    all-zero) spread the target uniformly.  The ``remainder`` largest
    fractional parts get one more unit, ties going to the lowest
    indices; a selection threshold finds them in O(n), no sort.

    A total that is subnormal, overflows, or leaves ``target / total``
    unrepresentable is first brought into range by one power-of-two
    scaling (``np.ldexp``: exact, bar entries too small to hold a unit
    of any share); ``inf`` or ``nan`` entries raise ``ValueError``.
    """
    target = max(int(target), 0)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("cannot rescale non-finite entries to a sum")
    arr = np.maximum(arr, 0.0)
    with np.errstate(over="ignore"):
        total = arr.sum()
        in_range = (np.finfo(np.float64).tiny <= total < np.inf
                    and np.isfinite(target / total))
    if total <= 0:
        arr = np.ones(arr.size, dtype=np.float64)
        total = float(arr.size)
    elif not in_range:
        arr = np.ldexp(arr, -np.frexp(arr.max())[1])
        total = arr.sum()
    scaled = arr * (target / total)
    base = np.floor(scaled).astype(np.int64)
    remainder = target - int(base.sum())
    if remainder >= base.size:
        base += 1
    elif remainder > 0:
        frac = scaled - base
        kth = np.partition(frac, base.size - remainder)[base.size - remainder]
        above = frac > kth
        ties = np.flatnonzero(frac == kth)[:remainder - np.count_nonzero(above)]
        base += above
        base[ties] += 1
    return base


def _even_split(n: int, target: int) -> np.ndarray:
    """``_rescale_to_sum(np.ones(n), target)`` in closed form: every
    entry ``target // n``, one more on the first ``target % n``."""
    target = max(int(target), 0)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    q, r = divmod(target, n)
    out = np.full(n, q, dtype=np.int64)
    out[:r] += 1
    return out
