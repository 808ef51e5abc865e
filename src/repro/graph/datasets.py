"""Named workload registry mirroring the paper's evaluation datasets.

Each entry reproduces the published vertex/edge counts and feature/class
dimensions.  Topology is synthetic (see :mod:`repro.graph.generators`);
DESIGN.md §2 documents why that preserves the behaviour under study.

Two scales of Reddit exist:

- ``reddit-lite`` — a 100× linear scale-down (23,297 vertices, ~1.15M
  edges) with the same heavy-tailed skew, small enough for the concrete
  NumPy engine on this machine.
- ``reddit-full`` — stats-only (232,965 vertices, 114,615,892 edges,
  matching the published GraphSAGE Reddit numbers).  Requesting its
  concrete graph raises; the analytic pipeline runs on its
  :class:`~repro.graph.stats.GraphStats`.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import Graph
from repro.graph.generators import batch_point_clouds, chung_lu
from repro.graph.stats import GraphStats
from repro.registry import DATASETS, register_dataset

__all__ = ["Dataset", "get_dataset", "list_datasets"]


@dataclass
class Dataset:
    """A named workload: topology plus feature/label metadata.

    Attributes
    ----------
    name:
        Registry key.
    feature_dim:
        Input feature width (the published value; benches may override).
    num_classes:
        Label cardinality for classification heads.
    stats:
        Degree-level summary, always available.
    """

    name: str
    feature_dim: int
    num_classes: int
    stats: GraphStats
    _graph_factory: Optional[Callable[[], Graph]] = field(default=None, repr=False)
    _graph: Optional[Graph] = field(default=None, repr=False)
    points: Optional[np.ndarray] = field(default=None, repr=False)
    #: Dataset-provided ground-truth labels (None for stats-only
    #: workloads; :meth:`labels` then falls back to random draws).
    _labels: Optional[np.ndarray] = field(default=None, repr=False)
    #: The planted class scores, canonical features @ a hidden
    #: (published width × num_classes) map, so |V| × num_classes; kept
    #: from label planting: reduced-width features embed these
    #: directions so the labels stay learnable at any width.
    _label_scores: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def has_concrete_graph(self) -> bool:
        """Whether :meth:`graph` can materialise edges on this machine."""
        return self._graph_factory is not None or self._graph is not None

    def graph(self) -> Graph:
        """Materialise (and cache) the concrete topology."""
        if self._graph is None:
            if self._graph_factory is None:
                raise RuntimeError(
                    f"dataset {self.name!r} is stats-only; use .stats for "
                    "analytic accounting or pick the '-lite' variant"
                )
            self._graph = self._graph_factory()
        return self._graph

    def features(self, dim: Optional[int] = None, *, seed: int = 0) -> np.ndarray:
        """Vertex features of width ``dim`` (default: published dim).

        Datasets with ground-truth labels have one *canonical* feature
        matrix (published width, seed 0); other widths/seeds draw iid
        features but embed the planted class-score directions in their
        leading columns, so the labels stay learnable at any training
        width.  Label-less (stats-only) datasets draw fully independent
        features per (dim, seed).

        Every call draws a fresh float64 array the caller owns and may
        write into; the only state shared between calls is the cached
        |V| × num_classes planted score matrix, which is read, never
        handed out.
        """
        dim = self.feature_dim if dim is None else dim
        out = _draw_rows(
            np.random.default_rng(seed), self.stats.num_vertices, dim
        )
        scores = self._label_scores
        if scores is None or (dim == self.feature_dim and seed == 0):
            return out
        # Overwrite up to half the iid columns with the planted
        # class-score directions (scaled to the iid column statistics):
        # the features stay full-rank and seed-dependent, yet carry the
        # label signal at any width.
        keep = min(scores.shape[1], max(1, dim // 2))
        out[:, :keep] = scores[:, :keep] / np.sqrt(dim)
        return out

    @property
    def has_labels(self) -> bool:
        """Whether this dataset ships ground-truth labels."""
        return self._labels is not None

    def labels(self, *, seed: int = 0) -> np.ndarray:
        """Per-vertex class labels.

        Returns the dataset's ground-truth labels when it provides them
        (``seed`` is then ignored); stats-only workloads fall back to
        random class draws.
        """
        if self._labels is not None:
            # Copy: callers commonly mask labels in place, and this
            # Dataset object is shared through the process-wide cache.
            return self._labels.copy()
        rng = np.random.default_rng(seed + 1)
        return rng.integers(
            0, self.num_classes, size=self.stats.num_vertices
        ).astype(np.int64)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
# Published shapes: (num_vertices, num_edges, feature_dim, num_classes).
_CITATION_SHAPES: Dict[str, Tuple[int, int, int, int]] = {
    "cora": (2_708, 10_556, 1_433, 7),
    "citeseer": (3_327, 9_104, 3_703, 6),
    "pubmed": (19_717, 88_648, 500, 3),
}

_REDDIT_FULL = (232_965, 114_615_892, 602, 41)
_REDDIT_LITE = (23_297, 1_146_158, 602, 41)


#: Most bytes of canonical feature rows that label planting holds at
#: once.  A published-width matrix above it is drawn in row chunks
#: (pubmed's is 75 MiB, citeseer's 94, reddit-lite's 107); cora's 29.6
#: MiB stays one draw.  Not ``BLOCK_BYTES``: see :func:`_plant_labels`.
_PLANT_CHUNK_BYTES = 32 << 20


def _draw_rows(
    rng: np.random.Generator, rows: int, dim: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The next ``rows`` feature rows of width ``dim`` from ``rng``
    (iid normal, scale ``1/sqrt(dim)``), into ``out`` if given.

    The one definition of a feature draw: successive calls on one
    generator continue a single stream, so row chunks drawn in turn
    equal the rows of one whole draw, bit for bit.
    """
    out = rng.standard_normal((rows, dim), out=out)
    out *= 1.0 / np.sqrt(dim)
    return out


def _plant_chunks(rows: int, dim: int) -> list[tuple[int, int]]:
    """Row ranges ``[start, stop)`` that split a float64 ``rows × dim``
    matrix into near-equal chunks (row counts differ by at most one) of
    at most :data:`_PLANT_CHUNK_BYTES` each, as few as fit; a matrix
    within the bound is one chunk.

    Near-equal, not full chunks and a tail: above OpenBLAS's
    small-matrix path (M·N·K ≈ 1e6 multiply-adds) a row-chunked
    ``dgemm`` equals the rows of the whole product bit for bit, and
    every chunk of a split matrix holds about half the bound or more
    (≥ 2M·classes multiply-adds); a short tail chunk would fall below
    that path and round differently.
    """
    most = max(1, _PLANT_CHUNK_BYTES // (8 * dim))
    count = max(1, -(-rows // most))
    bounds = [rows * i // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _plant_labels(ds: Dataset, *, seed: int) -> Dataset:
    """Attach ground-truth labels: a hidden linear map of the canonical
    (published-width, seed-0) features.  Deterministic per dataset, so
    repeated builds agree; every class remains reachable.

    The scores ``features(seed=0) @ w`` are computed one row chunk of
    the canonical draw at a time (:func:`_plant_chunks`), so at most
    :data:`_PLANT_CHUNK_BYTES` of canonical rows exist at once; scores
    and labels equal the whole product's bit for bit.

    The chunks share one anonymous mapping of their own, outside
    malloc.  glibc raises its mmap threshold to the size of any freed
    mmapped block of at most 32 MiB (and its trim threshold to twice
    that), so a freed malloc'd chunk would either lift every later
    allocation of the process onto the heap or, after cora's 29.6 MiB
    free already lifted it, stay resident there: pubmed's planting
    then raised ``sweep-analytic``'s peak RSS by 7%.  A one-chunk
    matrix is one malloc'd draw, as it always was: the cora workloads'
    fault-free steady state rests on that free (in 4 MiB chunks,
    ``multi4-gat-cora`` took ~7,500 minor faults an iteration, not ~0).
    """
    n, dim = ds.stats.num_vertices, ds.feature_dim
    w = np.random.default_rng(seed).normal(size=(dim, ds.num_classes))
    rng = np.random.default_rng(0)
    chunks = _plant_chunks(n, dim)
    if len(chunks) == 1:
        scores = _draw_rows(rng, n, dim) @ w
    else:
        scores = np.empty((n, ds.num_classes))
        most = max(stop - start for start, stop in chunks)
        with mmap.mmap(-1, most * dim * 8, flags=mmap.MAP_PRIVATE) as mapping:
            block = np.frombuffer(mapping, dtype=np.float64).reshape(most, dim)
            for start, stop in chunks:
                rows = block[:stop - start]
                np.matmul(_draw_rows(rng, len(rows), dim, out=rows), w,
                          out=scores[start:stop])
            del block, rows  # the mapping closes only with no view left
    ds._labels = np.asarray(scores.argmax(axis=1), dtype=np.int64)
    ds._label_scores = scores
    return ds


def _citation_factory(name: str, seed: int) -> Callable[[], Dataset]:
    n, m, f, c = _CITATION_SHAPES[name]

    def build() -> Dataset:
        g = chung_lu(n, m, alpha=2.2, seed=seed)
        return _plant_labels(
            Dataset(
                name=name,
                feature_dim=f,
                num_classes=c,
                stats=g.stats(),
                _graph=g,
            ),
            seed=seed,
        )

    return build


def _reddit_lite(seed: int = 7) -> Dataset:
    n, m, f, c = _REDDIT_LITE

    def factory() -> Graph:
        return chung_lu(n, m, alpha=1.6, seed=seed)

    # Stats come from the same construction so analytic and concrete runs
    # agree; building the lite graph once here is cheap (~1M edges).
    g = factory()
    return _plant_labels(
        Dataset(
            name="reddit-lite",
            feature_dim=f,
            num_classes=c,
            stats=g.stats(),
            _graph=g,
        ),
        seed=seed,
    )


def _reddit_full(seed: int = 7) -> Dataset:
    n, m, f, c = _REDDIT_FULL
    # Max degree ~22K: the published hub size of the GraphSAGE Reddit
    # graph; see GraphStats.from_degree_model for why clipping matters.
    stats = GraphStats.from_degree_model(
        n, m / n, alpha=1.6, max_degree=22_000, seed=seed
    )
    return Dataset(
        name="reddit-full",
        feature_dim=f,
        num_classes=c,
        stats=stats,
        _graph_factory=None,
    )


def _modelnet(batch_size: int, num_points: int, k: int, seed: int = 3) -> Dataset:
    g, pts = batch_point_clouds(batch_size, num_points, k, seed=seed)
    return _plant_labels(
        Dataset(
            name=f"modelnet40-b{batch_size}-k{k}",
            feature_dim=3,
            num_classes=40,
            stats=g.stats(),
            _graph=g,
            points=pts,
        ),
        seed=seed,
    )


# Built-in workloads, registered on the unified dataset registry.  Add
# your own with ``@register_dataset("name")`` over a zero-arg builder.
for _name, _seed in (("cora", 11), ("citeseer", 13), ("pubmed", 17)):
    register_dataset(_name)(_citation_factory(_name, seed=_seed))
register_dataset("reddit-lite")(_reddit_lite)
register_dataset("reddit-full")(_reddit_full)
# EdgeConv settings from §7.2: k ∈ {20, 40}, batch ∈ {32, 64}.  The
# paper uses 1024-point ModelNet40 clouds; we default to 1024 points
# but benches may construct smaller ones directly via _modelnet-style
# calls for wall-clock runs.
register_dataset("modelnet40-b32-k20")(lambda: _modelnet(32, 1024, 20))
register_dataset("modelnet40-b32-k40")(lambda: _modelnet(32, 1024, 40))
register_dataset("modelnet40-b64-k20")(lambda: _modelnet(64, 1024, 20))
register_dataset("modelnet40-b64-k40")(lambda: _modelnet(64, 1024, 40))

#: Built datasets, keyed by name; each entry remembers the builder it
#: came from so a re-registered builder (replace=True) invalidates it.
_CACHE: Dict[str, Tuple[Callable[[], Dataset], Dataset]] = {}


def list_datasets() -> list[str]:
    """Names accepted by :func:`get_dataset`."""
    return DATASETS.names()


def get_dataset(name: str, *, fresh: bool = False) -> Dataset:
    """Fetch (and memoise) a named dataset.

    Parameters
    ----------
    fresh:
        Bypass the cache and rebuild — used by tests that mutate nothing
        but want independent RNG state.
    """
    builder = DATASETS.get(name)
    if fresh:
        return builder()
    cached = _CACHE.get(name)
    if cached is None or cached[0] is not builder:
        _CACHE[name] = (builder, builder())
    return _CACHE[name][1]
