"""Versioned vertex-feature store with cache-invalidating writes.

Serving keeps hot feature rows in a device-side
:class:`~repro.serve.cache.FeatureCache`; online feature drift (user
embeddings refreshed by an upstream trainer) makes those rows stale.
:class:`FeatureStore` is the host-side source of truth:

- every :meth:`put` bumps the store version, overwrites the rows, and
  invalidates exactly the touched vertices' cache entries,
- :meth:`add_vertices` grows the matrix in lockstep with
  :class:`~repro.dyn.delta.GraphDelta` vertex insertions,
- :meth:`snapshot_at` replays the write log onto the version-0 copy —
  the from-scratch reference the differential contract compares cached
  dynamic serving against,
- the write ledger is exact: ``put_bytes``/``grow_bytes`` equal the
  *storage* size of every row written (rows × :attr:`row_bytes`, which
  shrinks with the declared dtype), recomputable from the log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.ir.precision import simulate_storage
from repro.ir.tensorspec import Domain, TensorSpec

if TYPE_CHECKING:  # runtime import would cycle through repro.serve
    from repro.serve.cache import FeatureCache

__all__ = ["FeatureStore"]


class FeatureStore:
    """Versioned dense vertex-feature matrix.

    Parameters
    ----------
    features:
        The version-0 ``(num_vertices, dim)`` matrix.  Copied: dataset
        feature matrices are module-level-cached and must never be
        mutated in place.
    cache:
        Optional serve-layer :class:`FeatureCache`; each :meth:`put`
        invalidates the written vertices' resident rows in it.
    dtype:
        Storage dtype of the rows (defaults to ``float64``, the
        bit-exact reference).  Logical dtypes (``bfloat16``, ``qint8``)
        are accepted: rows are held in the concrete simulation dtype
        while :attr:`row_bytes` and the write ledger charge storage
        width (a qint8 row costs ``dim + 4`` bytes for its scale).
    """

    def __init__(
        self,
        features: np.ndarray,
        *,
        cache: Optional["FeatureCache"] = None,
        dtype: str = "float64",
    ):
        features = np.asarray(features)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D (vertices, dim) matrix")
        self._spec = TensorSpec(
            Domain.VERTEX, (int(features.shape[1]),), str(dtype)
        )
        features = self._store(features)
        self._base = features.copy()    # version-0 snapshot, never touched
        self._matrix = features.copy()  # current version
        self.cache = cache
        #: Completed writes (each put/grow bumps it by one).
        self.version = 0
        self.put_bytes = 0
        self.grow_bytes = 0
        # ("put", vertices, rows) / ("grow", rows) entries, in version order.
        self._log: List[Tuple[str, np.ndarray, np.ndarray]] = []

    def _store(self, rows: np.ndarray) -> np.ndarray:
        """Round rows through the declared storage dtype (fresh copy)."""
        rows = np.asarray(rows).astype(self._spec.concrete_dtype, copy=True)
        return np.asarray(simulate_storage(self._spec, rows))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self._matrix.shape[0])

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def dtype(self) -> str:
        """Declared storage dtype (possibly logical)."""
        return self._spec.dtype

    @property
    def row_bytes(self) -> int:
        """Storage bytes per row (logical width + quantisation scales)."""
        return self._spec.row_bytes

    @property
    def io_bytes(self) -> int:
        """Total write IO so far (puts + growth)."""
        return self.put_bytes + self.grow_bytes

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the current feature matrix."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def rows(self, vertices: np.ndarray) -> np.ndarray:
        """Current-version gather of ``vertices`` (a fresh copy)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        return self._matrix[vertices].copy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FeatureStore(num_vertices={self.num_vertices}, "
            f"dim={self.dim}, version={self.version})"
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, vertices: np.ndarray, rows: np.ndarray) -> int:
        """Overwrite feature rows; returns the new store version.

        ``vertices`` must be unique — a batch writing one row twice has
        no well-defined result.  Charges the rows' storage size
        (``rows × row_bytes``) to the write ledger and invalidates the
        touched rows in the attached cache (which attributes their
        eventual re-gather to the invalidated-bytes column, keeping
        ``hit + miss + invalidated == uncached gather bill`` exact).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        rows = self._store(rows)
        if vertices.ndim != 1:
            raise ValueError("vertices must be a 1-D id array")
        if rows.shape != (vertices.size, self.dim):
            raise ValueError(
                f"rows must have shape {(vertices.size, self.dim)}, "
                f"got {rows.shape}"
            )
        if vertices.size == 0:
            raise ValueError("an empty put mutates nothing")
        if vertices.min() < 0 or vertices.max() >= self.num_vertices:
            raise ValueError(
                f"vertex ids must lie in [0, {self.num_vertices})"
            )
        if np.unique(vertices).size != vertices.size:
            raise ValueError("put vertices must be unique within a batch")
        self._matrix[vertices] = rows
        self.version += 1
        self.put_bytes += int(rows.shape[0] * self.row_bytes)
        self._log.append(("put", vertices.copy(), rows.copy()))
        if self.cache is not None:
            self.cache.invalidate(vertices)
        return self.version

    def add_vertices(self, rows: np.ndarray) -> int:
        """Append feature rows for newly inserted vertices.

        The new rows take the ids directly above the current vertex
        count, matching :class:`~repro.dyn.delta.GraphDelta` growth.
        Returns the new store version.  Fresh ids cannot be cached yet,
        so no invalidation is needed.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise ValueError(
                f"rows must be 2-D with dim {self.dim}, got {rows.shape}"
            )
        if rows.shape[0] == 0:
            raise ValueError("an empty growth batch mutates nothing")
        rows = self._store(rows)
        self._matrix = np.concatenate([self._matrix, rows], axis=0)
        self.version += 1
        self.grow_bytes += int(rows.shape[0] * self.row_bytes)
        self._log.append(("grow", np.array([], dtype=np.int64), rows.copy()))
        return self.version

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot_at(self, version: Optional[int] = None) -> np.ndarray:
        """From-scratch rebuild of the matrix at ``version``.

        Replays the write log onto a copy of the version-0 matrix — the
        reference construction for the differential contract.  Defaults
        to the current version (``snapshot_at() == matrix`` bit for
        bit).
        """
        version = self.version if version is None else version
        if not 0 <= version <= self.version:
            raise ValueError(
                f"version must lie in [0, {self.version}], got {version}"
            )
        out = self._base.copy()
        for kind, vertices, rows in self._log[:version]:
            if kind == "put":
                out[vertices] = rows
            else:
                out = np.concatenate([out, rows], axis=0)
        return out
