"""Immutable directed graph with COO / CSR / CSC views.

Conventions used throughout the library
---------------------------------------

* An edge ``(u, e, v)`` points from source ``u`` to destination ``v`` and
  carries a unique integer id ``e`` in ``[0, num_edges)``.
* Every edge-feature tensor is stored in **edge-id (COO) order**.  Kernels
  that reduce over the in-edges of each destination vertex permute edge
  rows through :attr:`Graph.csc_eids` first; kernels reducing over
  out-edges use :attr:`Graph.csr_eids`.
* ``Gather`` in the paper reduces over in-edges (messages arriving at a
  vertex).  The backward pass of ``Scatter`` additionally needs the
  out-edge reduction, which is why both views exist.
* A segment *sum* over either view is one CSR × dense product with the
  view's unit incidence operator (:func:`incidence_operator`,
  :meth:`Graph.incidence`): the permutation is the operator's column
  indices, so no permuted copy of the edge tensor is ever made.
* An *aggregation* — the segment sum of far-endpoint vertex rows,
  optionally scaled by one weight per edge (or per edge and head) — is
  the same product with the view's adjacency operator
  (:func:`adjacency_operator`, :meth:`Graph.adjacency`), whose columns
  are far-endpoint vertex ids (head-interleaved for per-head weights):
  no edge tensor exists at all.  Both are a :class:`CsrOperator`, built
  here and nowhere else; its one product is scipy's compiled CSR loop
  (``csr_matvecs``), called directly.  The extension holding it is
  loaded from its file at a run's first product (:func:`_load_sparsetools`),
  so no process imports the ``scipy.sparse`` package.
* A grouping is computed from the edge list once (:func:`_group_edges`,
  a stable sort) or handed over by a maker that already knows it,
  through :meth:`Graph.grouped` — the one way in from outside; nobody
  writes ``_cache`` — and it must equal, array for array, what
  :func:`_group_edges` would return, so no value downstream can tell.
  An append keeps its receiver's grouping (merge, no sort): appended
  edges take the highest ids, so they follow each vertex's segment
  (:func:`_append_grouping`).  Each orientation is materialised on
  first use.
* A graph may be made from its in-edges alone (:class:`InEdges`, what
  the sampling layer, :mod:`repro.graph.sampling`, reads off a parent's
  CSC): segment offsets, sources, and keys that ascend with edge id.
  Its edge count, degrees, ``"in"`` row blocks of rows ``[0, n)`` —
  prefix views — and their operators need no edge ids; the edge list,
  ``csc_eids``, the ``"out"`` grouping and a block's ``eids`` are built
  on first read.

The class is deliberately plain: topology only, no features.  Features
live in the execution engine; analytic passes only ever need
:class:`~repro.graph.stats.GraphStats`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["CsrOperator", "Graph", "adjacency_operator", "incidence_operator"]

#: scipy's compiled CSR loops once :func:`_load_sparsetools` has loaded them.
_SPARSETOOLS = None


def _load_sparsetools():
    """scipy's compiled CSR loops (``scipy/sparse/_sparsetools``), loaded
    from their file on the first call and kept.

    Importing them as ``scipy.sparse._sparsetools`` runs the package's
    ``__init__``, some 300 modules and 20 MiB, none of which the loops
    use.  The extension is found in scipy's ``sparse`` directory without
    importing scipy, and loaded under a name of this package whose last
    component stays ``_sparsetools`` (its init symbol is
    ``PyInit__sparsetools``).  Not under scipy's own name: the init
    registers that name in ``sys.modules``, and a later ``import
    scipy.sparse`` in the same process would then never bind it on the
    package.  Under this name scipy loads its own copy beside it.
    Threads racing to the first call load equal modules.
    """
    global _SPARSETOOLS
    if _SPARSETOOLS is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("the CSR product needs scipy")
        where = [os.path.join(p, "sparse") for p in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec("repro.graph._sparsetools", where)
        if spec is None:
            raise ImportError(f"no _sparsetools extension in {where}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        _SPARSETOOLS = module
    return _SPARSETOOLS


class CsrOperator:
    """A segments × columns operator in CSR form, and its one product.

    Row ``i`` holds ``data[k]`` in column ``indices[k]`` for ``k`` in
    ``indptr[i]:indptr[i+1]``.  Built by :func:`adjacency_operator` only.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape: Tuple[int, int]):
        if indptr.dtype != indices.dtype or indptr.dtype.kind != "i":
            raise ValueError(
                f"indptr and indices must share an integer dtype, got "
                f"{indptr.dtype} and {indices.dtype}"
            )
        if (indptr.ndim, indices.ndim, data.ndim) != (1, 1, 1):
            raise ValueError("indptr, indices and data must be 1-D")
        if indptr.shape[0] != shape[0] + 1 or indices.shape != data.shape:
            raise ValueError(
                f"{shape[0]} rows need {shape[0] + 1} offsets and one entry "
                f"per index, got {indptr.shape[0]}, {indices.shape[0]} and "
                f"{data.shape[0]}"
            )
        if indptr[0] != 0 or indptr[-1] > indices.shape[0]:
            raise ValueError("offsets must run from 0 to at most the entry count")
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``operator @ x`` for ``x`` of ``(columns, k)``, taken in the
        operator's dtype: per row ``+0.0``, then ``data[k] *
        x[indices[k]]`` added left to right.  A fresh
        ``(rows, k)`` array.

        The loop is scipy's compiled ``csr_matvecs``, what ``csr_array
        @ x`` runs (for one column it runs ``csr_matvec``, which adds in
        the same order), so the bits are public scipy's.  Its extension
        is loaded by file at the first product a run takes
        (:func:`_load_sparsetools`), so a run that takes none (an
        analytic one) never loads it and no run imports ``scipy.sparse``.
        """
        _sparsetools = _load_sparsetools()
        rows, columns = self.shape
        if x.ndim != 2 or x.shape[0] != columns:
            raise ValueError(f"operator {self.shape} cannot multiply {x.shape}")
        x = np.ascontiguousarray(x, dtype=self.data.dtype)
        out = np.zeros((rows, x.shape[1]), dtype=self.data.dtype)
        _sparsetools.csr_matvecs(
            rows, columns, x.shape[1], self.indptr, self.indices, self.data,
            x.ravel(), out.ravel(),
        )
        return out


def adjacency_operator(
    indptr: np.ndarray, columns: np.ndarray, num_columns: int, data: np.ndarray
) -> CsrOperator:
    """Segments × rows operator with one stored entry per edge.

    Row ``i`` holds ``data[k]`` in column ``columns[k]`` for ``k`` in
    ``indptr[i]:indptr[i+1]``, so ``operator @ x`` is, per segment,
    ``+0.0`` then ``data[k] * x[columns[k]]`` added left to right.
    Entries are kept as given — parallel edges stay separate terms, in
    order.  With far-endpoint vertex ids as columns this is a weighted
    adjacency.  The arrays are referenced, never copied (another
    operator's ``indices`` / ``indptr``, a block's views): every
    operator is cached by the layout that already holds its index
    arrays, or lives for one product.
    """
    return CsrOperator(indptr, columns, data, (indptr.shape[0] - 1, num_columns))


def incidence_operator(
    indptr: np.ndarray, eids: np.ndarray, num_edges: int, dtype
) -> CsrOperator:
    """Unit incidence operator, segments × edge rows.

    Row ``i`` holds a one in columns ``eids[indptr[i]:indptr[i+1]]``, so
    ``operator @ x`` is the segment sum of ``x`` — per segment ``+0.0``,
    then each row added left to right in ``eids`` order.
    """
    return adjacency_operator(
        indptr, eids, num_edges, np.ones(eids.shape[0], dtype=dtype)
    )


def _group_edges(
    keys: np.ndarray, num_vertices: int, ties: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Group edge ids by an endpoint array.

    Returns ``(indptr, eids)`` where ``eids[indptr[v]:indptr[v+1]]`` are
    the ids of edges whose endpoint (``keys``) equals ``v``, and the edge
    ids within each group appear in ascending order (stable sort) — or,
    with ``ties``, in ascending order of ``ties``.
    """
    order = (
        np.argsort(keys, kind="stable") if ties is None else np.lexsort((ties, keys))
    ).astype(np.int64, copy=False)
    counts = np.bincount(keys, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, order


def _append_grouping(
    indptr: np.ndarray, eids: np.ndarray, keys: np.ndarray, num_vertices: int
) -> Tuple[np.ndarray, np.ndarray]:
    """A grouping followed, at each vertex, by the edges that come after it.

    ``(indptr, eids)`` groups edges ``0 .. len(eids)`` over the first
    ``len(indptr) - 1`` of ``num_vertices`` home vertices; edge
    ``len(eids) + i`` follows, with home endpoint ``keys[i]``.  Each
    later id is above every earlier one, so the stable sort of all the
    keys puts a vertex's later edges after its segment, ascending: only
    ``keys`` is grouped, the rest is one ``np.insert``, and the result
    equals :func:`_group_edges` of the whole key array, array for array.
    """
    tail_indptr, order = _group_edges(keys, num_vertices)
    last = indptr.shape[0] - 1
    at = indptr[np.minimum(keys[order] + 1, last)]
    merged = np.insert(eids, at, order + eids.shape[0])
    head_indptr = np.full(num_vertices + 1, indptr[-1], dtype=np.int64)
    head_indptr[: last + 1] = indptr
    return head_indptr + tail_indptr, merged


def _interleave(
    indptr: np.ndarray, far: np.ndarray, eids: np.ndarray, heads: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A grouping's operator arrays, each segment repeated once per head.

    Segment ``v`` becomes rows ``v·heads + h``, each holding the
    segment's edges in their order; an edge's far column becomes
    ``far·heads + h`` and its edge-tensor position ``eid·heads + h``.
    """
    degree = np.diff(indptr)
    row_degree = np.repeat(degree, heads)
    rows = np.zeros(row_degree.shape[0] + 1, dtype=np.int64)
    np.cumsum(row_degree, out=rows[1:])
    position = np.arange(rows[-1], dtype=np.int64) + np.repeat(
        np.repeat(indptr[:-1], heads) - rows[:-1], row_degree
    )
    head = np.repeat(
        np.tile(np.arange(heads, dtype=np.int64), degree.shape[0]), row_degree
    )
    return rows, far[position] * heads + head, eids[position] * heads + head


def _endpoints(orientation: str) -> Tuple[str, str]:
    """``(home, far)`` endpoint fields: ``"in"`` groups edges by destination."""
    if orientation == "in":
        return "dst", "src"
    if orientation == "out":
        return "src", "dst"
    raise ValueError(f"orientation must be 'in' or 'out', got {orientation!r}")


class _SegmentLayout:
    """What a :class:`Graph` and the blocks it cuts share: CSC/CSR views
    and a ``_cache`` to keep their incidence and adjacency operators in."""

    def segments(self, orientation: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, eids)`` of the in- (CSC) or out- (CSR) edge grouping."""
        if orientation == "in":
            return self.csc_indptr, self.csc_eids
        if orientation == "out":
            return self.csr_indptr, self.csr_eids
        raise ValueError(f"orientation must be 'in' or 'out', got {orientation!r}")

    def incidence(self, orientation: str, dtype) -> CsrOperator:
        """Cached :func:`incidence_operator` of :meth:`segments`, with
        unit entries of ``dtype``.  Built on first use; threads racing
        to it build equal operators."""
        key = ("incidence", orientation, np.dtype(dtype).char)
        operator = self._cache.get(key)
        if operator is None:
            operator = self._cache[key] = incidence_operator(
                *self.segments(orientation), self.num_edges, dtype
            )
        return operator

    def adjacency(
        self, orientation: str, dtype, heads: int = 1
    ) -> Tuple[CsrOperator, np.ndarray]:
        """Cached unit :func:`adjacency_operator` of :meth:`segments`,
        with the order its entries take an edge tensor in.

        Home vertices × far-endpoint vertices (sources for ``"in"``,
        destinations for ``"out"``), one entry of ``dtype`` per edge in
        CSC/CSR edge order; the order is the grouping's ``eids``.  With
        ``heads`` the operator is head-interleaved: row ``v·heads + h``
        holds column ``far·heads + h`` for each edge of segment ``v``,
        in the same order, so it multiplies vertex rows viewed as
        ``(vertices·heads, f)``; the order then reads ``w[e, h]`` off an
        ``(edges, heads)`` tensor flattened.  A weighted operator shares
        the index arrays, its entries ``w.reshape(-1)[order]``.
        """
        key = ("adjacency", orientation, np.dtype(dtype).char, heads)
        entry = self._cache.get(key)
        if entry is None:
            indptr, eids = self.segments(orientation)
            far = self.csc_src if orientation == "in" else self.csr_dst
            if heads != 1:
                indptr, far, eids = _interleave(indptr, far, eids, heads)
            operator = adjacency_operator(
                indptr, far, self.far_vertices * heads,
                np.ones(far.shape[0], dtype=dtype),
            )
            entry = self._cache[key] = (operator, eids)
        return entry


class _RowBlock(_SegmentLayout, SimpleNamespace):
    """One block of :meth:`Graph.row_block`.

    ``lazy`` maps attribute names to functions of no arguments, each
    called on the attribute's first read: a block's edge ids, home
    endpoints and degrees are built only if a kernel reads them.
    """

    def __init__(self, lazy, **attrs):
        super().__init__(_lazy=lazy, **attrs)

    def __getattr__(self, name: str):
        # Threads racing to the same attribute build equal values.
        make = self.__dict__.get("_lazy", {}).get(name)
        if make is None:
            raise AttributeError(name)
        value = make()
        setattr(self, name, value)
        return value


class InEdges:
    """A graph's in-edge grouping, known before its edge list.

    ``indptr`` delimits each vertex's in-edges; ``far`` is each in-edge's
    source, segment by segment; ``keys`` holds one integer per in-edge
    that ascends with the edge's id, so each segment's keys ascend (a
    sampled graph's are its parent's edge ids).  Sorting the keys gives
    the edge list's order, on first use.  Handed to
    :meth:`Graph.grouped` in place of an edge list.
    """

    __slots__ = ("indptr", "far", "keys", "_order", "_eids")

    def __init__(self, indptr, far, keys):
        self.indptr, self.far, self.keys = indptr, far, keys
        self._order = self._eids = None

    def order(self) -> np.ndarray:
        """Segment positions in edge-id order."""
        if self._order is None:
            self._order = np.argsort(self.keys, kind="stable")
        return self._order

    def eids(self) -> np.ndarray:
        """The edge id at each segment position (``order``'s inverse)."""
        if self._eids is None:
            order = self.order()
            self._eids = np.empty_like(order)
            self._eids[order] = np.arange(order.shape[0], dtype=order.dtype)
        return self._eids


@dataclass(frozen=True)
class Graph(_SegmentLayout):
    """A directed graph in COO form with lazily cached CSR/CSC views.

    Parameters
    ----------
    src, dst:
        Integer arrays of shape ``(num_edges,)`` holding the source and
        destination vertex of each edge, indexed by edge id.
    num_vertices:
        Total number of vertices.  Must be strictly greater than every
        entry of ``src`` and ``dst``.

    Notes
    -----
    Self-loops and parallel edges are permitted: nothing in the paper's
    operator set requires simple graphs, and k-NN graphs naturally contain
    parallel edges after symmetrisation.
    """

    src: np.ndarray
    dst: np.ndarray
    num_vertices: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1:
            raise ValueError("src and dst must be 1-D arrays")
        if src.shape != dst.shape:
            raise ValueError(
                f"src and dst must have equal length, got {src.shape} vs {dst.shape}"
            )
        if self.num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= self.num_vertices:
                raise ValueError(
                    f"edge endpoints must lie in [0, {self.num_vertices}), "
                    f"got range [{lo}, {hi}]"
                )
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.src.shape[0])

    @property
    def far_vertices(self) -> int:
        """Rows of a far-endpoint operand (a block reads a prefix of its
        graph's: up to its largest far endpoint)."""
        return self.num_vertices

    @property
    def in_degrees(self) -> np.ndarray:
        """``in_degrees[v]`` = number of edges whose destination is ``v``."""
        if "in_deg" not in self._cache:
            self._cache["in_deg"] = np.bincount(
                self.dst, minlength=self.num_vertices
            ).astype(np.int64)
        return self._cache["in_deg"]

    @property
    def out_degrees(self) -> np.ndarray:
        """``out_degrees[v]`` = number of edges whose source is ``v``."""
        if "out_deg" not in self._cache:
            self._cache["out_deg"] = np.bincount(
                self.src, minlength=self.num_vertices
            ).astype(np.int64)
        return self._cache["out_deg"]

    # ------------------------------------------------------------------
    # Groupings: CSC by destination (drives Gather), CSR by source
    # (drives the backward of Scatter on hu)
    # ------------------------------------------------------------------
    @classmethod
    def grouped(cls, src, dst, num_vertices: int, segments) -> "Graph":
        """A graph built together with groupings its maker already knows.

        ``segments`` maps an orientation to the ``(indptr, eids)``
        :func:`_group_edges` would compute for it, or to a function of
        no arguments that returns it — called once, on first use, and
        free to answer ``None`` ("cannot tell any more").  An
        orientation left out, or answered ``None``, is grouped from the
        edge list as usual.  The maker answers for the equality
        (:meth:`with_edges` merges into its receiver's; see the module
        docstring); this is the only way a grouping gets into a graph
        from outside.

        ``segments["in"]`` may instead be an :class:`InEdges`, with
        ``src`` and ``dst`` ``None``: the graph is made from its
        in-edges (the sampling layer reads them off a parent's CSC), and
        its edge list is built on first use.
        """
        if isinstance(segments.get("in"), InEdges):
            return _InEdgeGraph(num_vertices, segments["in"])
        graph = cls(src, dst, num_vertices)
        for orientation, grouping in segments.items():
            _endpoints(orientation)  # "in" / "out" or ValueError
            graph._cache["segments", orientation] = grouping
        return graph

    def segments(self, orientation: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, eids)`` of the in- (CSC) or out- (CSR) edge grouping,
        each built (or taken from :meth:`grouped`'s maker) on first use."""
        key = ("segments", orientation)
        grouping = self._cache.get(key)
        if isinstance(grouping, tuple):
            return grouping
        if grouping is not None:  # grouped()'s maker, asked once
            grouping = grouping()
        if grouping is None:
            home, _ = _endpoints(orientation)
            grouping = _group_edges(getattr(self, home), self.num_vertices)
        self._cache[key] = grouping
        return grouping

    def _far(self, orientation: str) -> np.ndarray:
        far = self._cache.get(("far", orientation))
        if far is None:
            _, eids = self.segments(orientation)
            far = self._cache["far", orientation] = getattr(
                self, _endpoints(orientation)[1]
            )[eids]
        return far

    @property
    def csc_indptr(self) -> np.ndarray:
        """Segment offsets of the by-destination grouping."""
        return self.segments("in")[0]

    @property
    def csc_eids(self) -> np.ndarray:
        """Edge-id permutation so edge rows are grouped by destination."""
        return self.segments("in")[1]

    @property
    def csc_src(self) -> np.ndarray:
        """Source vertex of each edge, in CSC (by-destination) order."""
        return self._far("in")

    @property
    def csr_indptr(self) -> np.ndarray:
        """Segment offsets of the by-source grouping."""
        return self.segments("out")[0]

    @property
    def csr_eids(self) -> np.ndarray:
        """Edge-id permutation so edge rows are grouped by source."""
        return self.segments("out")[1]

    @property
    def csr_dst(self) -> np.ndarray:
        """Destination vertex of each edge, in CSR (by-source) order."""
        return self._far("out")

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def row_block(
        self, orientation: str, lo: int, hi: int, within: Optional[int] = None
    ) -> SimpleNamespace:
        """Sub-graph of the edges incident to *home* vertices ``[lo, hi)``.

        The home endpoint is the destination for ``orientation="in"``
        and the source for ``"out"``.  The block's edges are numbered in
        CSC (CSR) order — ``csc_eids`` is the identity, ``csc_indptr``
        is rebased to the block — with home-endpoint ids relative to
        ``lo`` and far-endpoint ids absolute, so a kernel indexing it
        reads far operands from full vertex arrays (or any prefix
        holding its ``far_vertices`` rows: one past its largest far
        endpoint) and home operands from the block's own rows.  It
        carries what the registered kernels read off a graph, for the
        requested orientation only, plus ``eids``: the block's COO edge
        ids, built on first read.  On a graph made from its in-edges, an
        ``"in"`` block of rows ``[0, hi)`` is a prefix view of them.

        ``within`` (``orientation="out"``, ``lo=0`` only) keeps just the
        in-edges of rows ``[0, within)``: the first
        ``csc_indptr[within]`` edges of the CSC grouping, numbered in
        that order as in ``row_block("in", 0, within)``, grouped by
        source in this graph's CSR order (by source, then edge id, over
        those edges only).  It is where a sum over
        out-edges runs when its edge operand is zero beyond those edges
        (a gradient on a ring, :mod:`repro.exec.rings`): each source
        adds the same nonzero terms in the same order as over all of
        its out-edges.

        Blocks are kept with the graph (which is immutable, so they
        cannot go stale): a training step that walks the same plan again
        gets the same blocks, incidence and adjacency operators included.
        """
        key = ("row_block", orientation, lo, hi)
        if within is not None:
            if orientation != "out" or lo != 0:
                raise ValueError('within= cuts out-edge blocks of rows [0, hi) only')
            key += (within,)
        block = self._cache.get(key)
        if block is None:
            block = self._cache[key] = (
                self._cut_block(orientation, lo, hi) if within is None
                else self._cut_within(hi, within)
            )
        return block

    def _cut_block(self, orientation: str, lo: int, hi: int) -> _RowBlock:
        """The block of home rows ``[lo, hi)``: views of the grouped
        offsets (rebased) and far endpoints; its edge ids, home
        endpoints and degrees on first read."""
        if orientation == "in":
            indptr, far = self.csc_indptr, self.csc_src
            names = ("src", "csc_src", "csc_indptr", "csc_eids", "dst", "in_degrees")
        else:
            _endpoints(orientation)
            indptr, far = self.csr_indptr, self.csr_dst
            names = ("dst", "csr_dst", "csr_indptr", "csr_eids", "src", "out_degrees")
        p0, p1 = int(indptr[lo]), int(indptr[hi])
        seg = indptr[lo : hi + 1] if p0 == 0 else indptr[lo : hi + 1] - p0
        far = far[p0:p1]
        eids = self._grouped_eids(orientation)
        far_name, grouped_far, offsets, order, home, degrees = names
        return _RowBlock(
            {"eids": lambda: eids()[p0:p1],
             home: lambda: np.repeat(np.arange(hi - lo, dtype=np.int64), np.diff(seg)),
             degrees: lambda: np.diff(seg)},
            num_vertices=hi - lo, num_edges=p1 - p0,
            far_vertices=int(far.max()) + 1 if p1 > p0 else 0, _cache={},
            **{far_name: far, grouped_far: far, offsets: seg,
               order: np.arange(p1 - p0, dtype=np.int64)},
        )

    def _grouped_eids(self, orientation: str) -> Callable[[], np.ndarray]:
        """The grouping's edge ids, as a function a block can hold."""
        eids = self.segments(orientation)[1]
        return lambda: eids

    def _ties(self) -> np.ndarray:
        """One key per in-edge, in CSC order, ascending with edge id."""
        return self.csc_eids

    def _cut_within(self, hi: int, within: int) -> _RowBlock:
        """``row_block("out", 0, hi, within)``: the in-edges of rows
        ``[0, within)`` whose source is below ``hi``, grouped by (source,
        edge id) — this graph's CSR order, which is never built for it."""
        inner = self.row_block("in", 0, within)
        src, ties = inner.src, self._ties()[: inner.num_edges]
        kept = None if inner.far_vertices <= hi else np.flatnonzero(src < hi)
        if kept is not None:
            src, ties = src[kept], ties[kept]
        indptr, order = _group_edges(src, hi, ties=ties)
        # Block edges are numbered by their place in the CSC grouping.
        if kept is not None:
            order = kept[order]
        far = inner.dst[order]
        return _RowBlock(
            {"eids": lambda: inner.eids, "dst": lambda: inner.dst,
             "out_degrees": lambda: np.diff(indptr)},
            num_vertices=hi, num_edges=inner.num_edges, src=inner.src,
            csr_indptr=indptr, csr_eids=order, csr_dst=far,
            far_vertices=int(far.max()) + 1 if order.size else 0, _cache={},
        )

    def reverse(self) -> "Graph":
        """Graph with every edge direction flipped (edge ids preserved)."""
        return Graph(self.dst.copy(), self.src.copy(), self.num_vertices)

    def with_edges(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        num_new_vertices: int = 0,
        allow_self_loops: bool = True,
        allow_duplicates: bool = True,
    ) -> "Graph":
        """Return a new graph with ``(src, dst)`` edges appended.

        The appended edges receive the highest edge ids in order, so
        existing edge-feature tensors remain aligned as a prefix —
        the invariant every append path (self-loops, symmetrisation,
        disjoint unions, dynamic-graph deltas) relies on.
        ``num_new_vertices`` grows the vertex set first; appended
        endpoints may reference the new ids.

        An append keeps its receiver's grouping (merge, no sort): for
        each orientation this graph has materialised, the result's is
        the old segments with each vertex's appended edges inserted
        after them (:func:`_append_grouping`, handed over through
        :meth:`grouped`); an orientation never materialised stays lazy.
        Only groupings cross — no operator, block, degree vector or
        reference to this graph.

        Validation knobs (both permissive by default, matching the
        class convention that self-loops and parallel edges are legal):

        - ``allow_self_loops=False`` rejects appended edges with
          ``src == dst``;
        - ``allow_duplicates=False`` rejects appended edges that
          duplicate an existing edge or repeat within the batch.
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
            raise ValueError(
                "appended src and dst must be 1-D arrays of equal length"
            )
        if num_new_vertices < 0:
            raise ValueError("num_new_vertices must be non-negative")
        num_vertices = self.num_vertices + int(num_new_vertices)
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= num_vertices:
                raise ValueError(
                    f"appended edge endpoints must lie in [0, {num_vertices}), "
                    f"got range [{lo}, {hi}]"
                )
            if not allow_self_loops:
                loops = np.nonzero(src == dst)[0]
                if loops.size:
                    raise ValueError(
                        f"appended edges contain {loops.size} self-loop(s) "
                        f"(first at batch index {int(loops[0])}: vertex "
                        f"{int(src[loops[0]])}) but allow_self_loops=False"
                    )
            if not allow_duplicates:
                # One scalar key per (src, dst) pair makes both checks a
                # vectorised set operation.
                key = src * np.int64(num_vertices) + dst
                uniq, counts = np.unique(key, return_counts=True)
                if (counts > 1).any():
                    raise ValueError(
                        f"appended edges contain {int((counts > 1).sum())} "
                        "pair(s) duplicated within the batch but "
                        "allow_duplicates=False"
                    )
                if self.num_edges:
                    existing = self.src * np.int64(num_vertices) + self.dst
                    dup = np.isin(uniq, existing)
                    if dup.any():
                        raise ValueError(
                            f"appended edges duplicate {int(dup.sum())} "
                            "existing edge(s) but allow_duplicates=False"
                        )
        keys = {"in": dst, "out": src}
        segments = {
            o: _append_grouping(*self._cache["segments", o], keys[o], num_vertices)
            for o in keys
            if isinstance(self._cache.get(("segments", o)), tuple)
        }
        return Graph.grouped(
            np.concatenate([self.src, src]),
            np.concatenate([self.dst, dst]),
            num_vertices,
            segments,
        )

    def add_self_loops(self) -> "Graph":
        """Return a new graph with one self-loop appended per vertex.

        The new self-loop edges receive the highest edge ids, so existing
        edge-feature tensors remain aligned as a prefix.
        """
        loops = np.arange(self.num_vertices, dtype=np.int64)
        return self.with_edges(loops, loops)

    def symmetrize(self) -> "Graph":
        """Return the graph with each edge also present in reverse."""
        return self.with_edges(self.dst, self.src)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def stats(self) -> "GraphStats":
        """Degree-level summary consumed by analytic counters."""
        from repro.graph.stats import GraphStats

        return GraphStats(
            num_vertices=self.num_vertices,
            num_edges=self.num_edges,
            in_degrees=self.in_degrees,
            out_degrees=self.out_degrees,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )


class _InEdgeGraph(Graph):
    """A :class:`Graph` made from its in-edges (:class:`InEdges`).

    Its in-CSC offsets and sources, its edge count, both degree vectors
    and every ``"in"`` row block read the in-edges as they are, so they
    need no edge ids: a block of rows ``[0, n)`` is a prefix view of
    them, and its ``eids`` come on first read.  The edge ids
    (``csc_eids``), the edge list and the ``"out"`` grouping are built
    on first use, from the in-edges alone — the arrays the cold
    ``Graph(src, dst, n)`` builds.
    """

    def __init__(self, num_vertices: int, in_edges: InEdges):
        object.__setattr__(self, "num_vertices", int(num_vertices))
        object.__setattr__(self, "_in", in_edges)
        object.__setattr__(self, "_cache", {
            ("segments", "in"): lambda: (in_edges.indptr, in_edges.eids()),
        })

    def _edges(self) -> Tuple[np.ndarray, np.ndarray]:
        edges = self._cache.get("edges")
        if edges is None:
            _, eids = self.segments("in")
            src = np.empty_like(eids)
            src[eids] = self._in.far
            dst = np.empty_like(eids)
            dst[eids] = np.repeat(
                np.arange(self.num_vertices, dtype=np.int64), self.in_degrees
            )
            edges = self._cache["edges"] = (src, dst)
        return edges

    src = property(lambda self: self._edges()[0])
    dst = property(lambda self: self._edges()[1])
    num_edges = property(lambda self: int(self._in.far.shape[0]))
    csc_indptr = property(lambda self: self._in.indptr)
    csc_src = property(lambda self: self._in.far)

    @property
    def in_degrees(self) -> np.ndarray:
        """Segment lengths of the in-edges."""
        if "in_deg" not in self._cache:
            self._cache["in_deg"] = np.diff(self._in.indptr)
        return self._cache["in_deg"]

    @property
    def out_degrees(self) -> np.ndarray:
        """How often each vertex is an in-edge's source."""
        if "out_deg" not in self._cache:
            self._cache["out_deg"] = np.bincount(
                self._in.far, minlength=self.num_vertices
            ).astype(np.int64)
        return self._cache["out_deg"]

    def _grouped_eids(self, orientation: str) -> Callable[[], np.ndarray]:
        if orientation == "in":
            return self._in.eids
        return super()._grouped_eids(orientation)

    def _ties(self) -> np.ndarray:
        return self._in.keys

