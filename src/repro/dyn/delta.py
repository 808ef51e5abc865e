"""Incremental CSR deltas: batched insertions over an immutable base.

The library's :class:`~repro.graph.csr.Graph` is deliberately frozen —
every analytic walker and kernel assumes a fixed COO edge-id order.
Production serving breaks that assumption: recommendation and fraud
graphs see continuous edge insertions and new entities.  This module
extends the paper's IO perspective to that read/write mix without
giving up a single exactness contract:

- :class:`GraphDelta` — one batch of vertex/edge insertions,
- :class:`DynamicGraph` — an *overlay* over the last compacted CSR plus
  a pending edge log.  Neighbourhood, degree, and induced-subgraph
  queries are answered delta-aware (base CSR expansion ∪ pending-edge
  expansion) and are **bit-identical** to the same queries on a graph
  rebuilt from scratch at the same version,
- :meth:`DynamicGraph.compact` — folds the pending log into a fresh
  CSR via :meth:`~repro.graph.csr.Graph.with_edges` (the shared,
  validated append path).  An append keeps its receiver's grouping
  (merge, no sort): the fresh CSR's CSC/CSR are the old segments with
  the pending edges inserted after them, for each orientation the old
  one had materialised, and nothing else of the old CSR — no operator,
  no reference — survives the fold.

Every mutation is charged to an exact analytic IO ledger:

- ``apply`` appends ``(src, dst)`` int64 pairs to the pending log —
  :func:`delta_apply_bytes` = ``16 × num_edges``;
- ``compact`` reads the old COO plus the pending log and writes the new
  COO together with both index structures (CSR and CSC: ``indptr`` +
  edge-id permutation each) — :func:`compact_io_bytes`.

Edge-id discipline: appended edges always take the highest ids in apply
order, so global edge ids are stable across compactions and overlay
induced subgraphs list edges in ascending global edge-id order — the
property that makes serving on a :class:`DynamicGraph` reproduce a
from-scratch rebuild bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import Graph
from repro.graph.sampling import MiniBatch, _induce, _khop, _sample

__all__ = [
    "GraphDelta",
    "DynamicGraph",
    "ENDPOINT_BYTES",
    "delta_apply_bytes",
    "compact_io_bytes",
]

#: Edge endpoints are int64 everywhere in the library.
ENDPOINT_BYTES = 8


def delta_apply_bytes(num_edges: int) -> int:
    """IO bytes of applying one delta: append ``(src, dst)`` int64
    pairs to the pending edge log.  Vertex insertions are a metadata
    count bump and charge nothing."""
    return 2 * ENDPOINT_BYTES * num_edges


def compact_io_bytes(
    num_vertices: int, csr_edges: int, pending_edges: int
) -> int:
    """IO bytes of one compaction.

    Reads the previous COO (``2 × 8 × csr_edges``) and the pending log
    (``2 × 8 × pending_edges``); writes the merged COO plus both lazily
    consumed index structures — CSR and CSC each need an
    ``indptr`` (``8 × (V + 1)``) and an edge-id permutation
    (``8 × E``).  Exact by construction; the ledger tests recompute
    this closed form from the mutation history.
    """
    total = csr_edges + pending_edges
    read = 2 * ENDPOINT_BYTES * csr_edges + 2 * ENDPOINT_BYTES * pending_edges
    coo_write = 2 * ENDPOINT_BYTES * total
    index_write = 2 * (
        ENDPOINT_BYTES * (num_vertices + 1) + ENDPOINT_BYTES * total
    )
    return read + coo_write + index_write


@dataclass(frozen=True)
class GraphDelta:
    """One batch of graph mutations: new vertices plus inserted edges.

    Attributes
    ----------
    src, dst:
        Endpoint arrays of the inserted edges (may reference the new
        vertex ids, which occupy the ``num_new_vertices`` ids directly
        above the pre-apply vertex count).
    num_new_vertices:
        How many vertices this batch appends.

    A delta is position-independent: endpoint range checks against the
    growing vertex space happen at :meth:`DynamicGraph.apply` time.
    """

    src: np.ndarray
    dst: np.ndarray
    num_new_vertices: int = 0

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
            raise ValueError(
                "delta src and dst must be 1-D arrays of equal length"
            )
        if self.num_new_vertices < 0:
            raise ValueError("num_new_vertices must be non-negative")
        if src.size == 0 and self.num_new_vertices == 0:
            raise ValueError("an empty GraphDelta mutates nothing")
        if src.size and min(src.min(), dst.min()) < 0:
            raise ValueError("delta edge endpoints must be non-negative")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    @property
    def nbytes(self) -> int:
        """The apply-time IO bill of this batch."""
        return delta_apply_bytes(self.num_edges)


class DynamicGraph:
    """A mutable overlay: last compacted CSR + a pending edge log.

    Queries never materialise the merged graph.  A neighbourhood
    expansion unions the base CSR's in-neighbour gather with the same
    gather over the (much smaller) pending-edge view; an induced
    subgraph masks base and pending edges separately and concatenates
    in global edge-id order.  Both are proven bit-identical to the
    rebuilt-from-scratch graph by the differential suite.

    Parameters
    ----------
    base:
        The version-0 topology (never mutated).
    allow_self_loops / allow_duplicates:
        Validation applied to every :meth:`apply` batch and shared with
        :meth:`compact`'s :meth:`~repro.graph.csr.Graph.with_edges`
        call.  Both default to the library convention (permitted).
    """

    def __init__(
        self,
        base: Graph,
        *,
        allow_self_loops: bool = True,
        allow_duplicates: bool = True,
    ):
        self._base = base
        self._csr = base                      # last compacted CSR
        self._pending_src: List[np.ndarray] = []
        self._pending_dst: List[np.ndarray] = []
        self._pending_edges = 0
        self._num_vertices = base.num_vertices
        self._history: List[GraphDelta] = []  # full mutation history
        self.allow_self_loops = allow_self_loops
        self.allow_duplicates = allow_duplicates
        #: Applied delta batches (the graph version).
        self.version = 0
        self.compactions = 0
        self.apply_bytes = 0
        self.compact_bytes = 0
        # Pending-edge Graph view, invalidated by apply/compact.
        self._overlay: Optional[Graph] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def base(self) -> Graph:
        """The immutable version-0 graph."""
        return self._base

    @property
    def csr(self) -> Graph:
        """The last compacted CSR (== ``base`` before any compaction)."""
        return self._csr

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._csr.num_edges + self._pending_edges

    @property
    def pending_edges(self) -> int:
        """Edges applied since the last compaction (the overlay size)."""
        return self._pending_edges

    @property
    def io_bytes(self) -> int:
        """Total mutation IO so far (delta appends + compactions)."""
        return self.apply_bytes + self.compact_bytes

    @property
    def history(self) -> Tuple[GraphDelta, ...]:
        """Every applied delta, in order (the rebuild recipe)."""
        return tuple(self._history)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, version={self.version}, "
            f"pending={self._pending_edges})"
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> int:
        """Apply one insertion batch; returns the new graph version.

        Validates endpoint ranges against the post-growth vertex space
        and the configured self-loop/duplicate policy, appends the
        edges to the pending log, and charges the exact append bill to
        the ledger (``delta.nbytes``).
        """
        num_vertices = self._num_vertices + delta.num_new_vertices
        src, dst = delta.src, delta.dst
        if src.size:
            hi = max(src.max(), dst.max())
            if hi >= num_vertices:
                raise ValueError(
                    f"delta edge endpoints must lie in [0, {num_vertices}), "
                    f"got max {hi}"
                )
            if not self.allow_self_loops and (src == dst).any():
                raise ValueError(
                    "delta contains self-loops but allow_self_loops=False"
                )
            if not self.allow_duplicates:
                key = src * np.int64(num_vertices) + dst
                if np.unique(key).size != key.size:
                    raise ValueError(
                        "delta duplicates edges within the batch but "
                        "allow_duplicates=False"
                    )
                existing = [
                    self._csr.src * np.int64(num_vertices) + self._csr.dst
                ] + [
                    s * np.int64(num_vertices) + d
                    for s, d in zip(self._pending_src, self._pending_dst)
                ]
                if np.isin(key, np.concatenate(existing)).any():
                    raise ValueError(
                        "delta duplicates existing edges but "
                        "allow_duplicates=False"
                    )
        self._num_vertices = num_vertices
        if src.size:
            self._pending_src.append(src)
            self._pending_dst.append(dst)
            self._pending_edges += src.size
            self._overlay = None
        self._history.append(delta)
        self.version += 1
        self.apply_bytes += delta.nbytes
        return self.version

    def compact(self) -> Graph:
        """Fold the pending log into a fresh CSR; returns it.

        The merge goes through :meth:`Graph.with_edges` (the shared
        append path), so pending edges keep their global edge ids —
        queries before and after a compaction are indistinguishable —
        and the fresh CSR keeps the old one's groupings (merge, no
        sort: only the pending keys are grouped), so the next k-hop
        does not re-sort the whole graph.  Charges the exact read-old +
        read-log + write-new bill (:func:`compact_io_bytes`, a model
        that the merge does not move).  A compaction with nothing
        pending is a free no-op.
        """
        grown = self._num_vertices - self._csr.num_vertices
        if self._pending_edges == 0 and grown == 0:
            return self._csr
        old_edges = self._csr.num_edges
        src = (
            np.concatenate(self._pending_src)
            if self._pending_src
            else np.array([], dtype=np.int64)
        )
        dst = (
            np.concatenate(self._pending_dst)
            if self._pending_dst
            else np.array([], dtype=np.int64)
        )
        # Pending batches were validated at apply time; with_edges
        # re-checks ranges and re-applies the configured policy so the
        # two paths can never drift.
        self._csr = self._csr.with_edges(
            src,
            dst,
            num_new_vertices=grown,
            allow_self_loops=self.allow_self_loops,
            allow_duplicates=self.allow_duplicates,
        )
        self._pending_src = []
        self._pending_dst = []
        self._pending_edges = 0
        self._overlay = None
        self.compactions += 1
        self.compact_bytes += compact_io_bytes(
            self._num_vertices, old_edges, int(src.size)
        )
        return self._csr

    # ------------------------------------------------------------------
    # Delta-aware queries
    # ------------------------------------------------------------------
    def _pending_graph(self) -> Optional[Graph]:
        """The pending edges as a Graph over the current vertex space."""
        if self._pending_edges == 0:
            return None
        if self._overlay is None or (
            self._overlay.num_vertices != self._num_vertices
        ):
            self._overlay = Graph(
                np.concatenate(self._pending_src),
                np.concatenate(self._pending_dst),
                self._num_vertices,
            )
        return self._overlay

    @property
    def in_degrees(self) -> np.ndarray:
        """Delta-aware in-degrees over the current vertex space."""
        deg = np.zeros(self._num_vertices, dtype=np.int64)
        deg[: self._csr.num_vertices] = self._csr.in_degrees
        overlay = self._pending_graph()
        if overlay is not None:
            deg += overlay.in_degrees
        return deg

    @property
    def out_degrees(self) -> np.ndarray:
        """Delta-aware out-degrees over the current vertex space."""
        deg = np.zeros(self._num_vertices, dtype=np.int64)
        deg[: self._csr.num_vertices] = self._csr.out_degrees
        overlay = self._pending_graph()
        if overlay is not None:
            deg += overlay.out_degrees
        return deg

    def _layouts(self):
        """The edge layouts delta-aware queries walk: the compacted CSR,
        then the pending edges, whose global ids follow the CSR's.  Both
        are immutable snapshots, so nothing built from them can see a
        later :meth:`apply` or :meth:`compact`."""
        overlay = self._pending_graph()
        if overlay is None:
            return ((self._csr, 0),)
        return ((self._csr, 0), (overlay, self._csr.num_edges))

    def neighborhood(self, seeds: np.ndarray, hops: int) -> np.ndarray:
        """Delta-aware receptive field (sorted vertex ids).

        :func:`~repro.graph.sampling.khop_neighborhood`'s expansion over
        two layouts: each hop marks the in-neighbours the compacted CSR
        knows and those the pending edges add — exactly the
        in-neighbours of the merged graph, without materialising it.
        """
        return np.sort(_khop(self._layouts(), self._num_vertices, seeds, hops)[0])

    def induce(
        self, vertices: np.ndarray
    ) -> Tuple[Graph, np.ndarray, np.ndarray]:
        """Overlay induced subgraph: ``(subgraph, kept, global eids)``.

        Same contract, and same walk, as
        :func:`~repro.graph.sampling.induced_subgraph` on the rebuilt
        graph: kept edges appear in ascending *global* edge-id order
        (compacted CSR edges first, then pending edges in apply order)
        and the subgraph's in-edges are read off the two layouts', so
        per-destination reduction order — and thus every engine output —
        matches the from-scratch rebuild bit for bit.
        """
        sub, kept, edge_ids = _induce(self._layouts(), self._num_vertices, vertices)
        return sub, kept, edge_ids()

    def receptive_field(self, seeds: np.ndarray, hops: int) -> MiniBatch:
        """Delta-aware twin of :func:`repro.serve.batcher.receptive_field`.

        Sorted unique seeds → overlay k-hop field, laid out hop by hop →
        overlay induced subgraph; the returned :class:`MiniBatch` is interchangeable
        with one built on the rebuilt graph.
        """
        return _sample(
            self._layouts(), self._num_vertices,
            np.unique(np.asarray(seeds, dtype=np.int64)), hops,
        )

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def as_graph(self) -> Graph:
        """Materialise the current version (CSR + pending), uncharged.

        A convenience for tests and one-shot consumers; unlike
        :meth:`compact` it neither resets the pending log nor touches
        the IO ledger.
        """
        if self._pending_edges == 0:
            grown = self._num_vertices - self._csr.num_vertices
            if grown == 0:
                return self._csr
            return self._csr.with_edges(
                np.array([], dtype=np.int64),
                np.array([], dtype=np.int64),
                num_new_vertices=grown,
            )
        return self._csr.with_edges(
            np.concatenate(self._pending_src),
            np.concatenate(self._pending_dst),
            num_new_vertices=self._num_vertices - self._csr.num_vertices,
        )

    def rebuild(self, version: Optional[int] = None) -> Graph:
        """From-scratch rebuild of the graph at ``version`` (default:
        current).

        Replays the delta history onto the version-0 base in one
        :meth:`Graph.with_edges` append — the reference construction
        the differential contract compares overlay serving against.
        Like any append it inherits the base's materialised groupings,
        so tests hold it to a cold ``Graph(src, dst, n)`` of its edges.
        """
        version = self.version if version is None else version
        if not 0 <= version <= self.version:
            raise ValueError(
                f"version must lie in [0, {self.version}], got {version}"
            )
        deltas = self._history[:version]
        if not deltas:
            return self._base
        src = np.concatenate([d.src for d in deltas])
        dst = np.concatenate([d.dst for d in deltas])
        grown = sum(d.num_new_vertices for d in deltas)
        return self._base.with_edges(src, dst, num_new_vertices=grown)
