"""Bounded LRU feature/embedding caching with exact byte accounting.

Per-request receptive-field gathers dominate serving IO, and request
streams are skewed (hot vertices recur), so the server fronts host
feature storage with a bounded LRU cache keyed by ``(layer, vertex)``
— layer 0 holds input feature rows; positive layers are reserved for
cached layer embeddings.

The cache is an *accounting* device: it never changes what the engine
computes (the engine always binds the true feature rows), only what the
gather costs.  Cache hits shrink the gather bytes the batch pays, and
misses pay them — with the exact reconciliation invariant the serving
tests pin::

    hit_bytes + miss_bytes + invalidated_bytes
        == uncached gather bytes (field rows × row bytes)

so analytic IO counters with caching enabled remain byte-exact against
the uncached :func:`~repro.exec.analytic.analyze_minibatch` convention.

Two behaviours exist for the dynamic-serving path:

- **Invalidation** (:meth:`FeatureCache.invalidate`): a versioned
  feature write evicts the touched resident rows; the *next* gather of
  such a row is attributed to the ``invalidated`` column instead of a
  cold miss, so the staleness-induced re-gather bill is separable.
- **Pin-during-batch** (:meth:`FeatureCache.gather`): rows already
  gathered for the current batch (hits and fetched-through misses) are
  pinned for the remainder of that gather — a miss burst larger than
  the remaining capacity evicts other batches' rows, never rows the
  in-flight batch is about to bind.  When every resident row belongs to
  the current batch, the insert is bypassed instead
  (``pinned_bypasses``); the row still pays its miss bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Set, Tuple

import numpy as np

__all__ = ["GatherSplit", "FeatureCache"]


@dataclass(frozen=True)
class GatherSplit:
    """One batch gather resolved against the cache.

    ``invalidated_rows`` are misses on rows a versioned write evicted —
    the re-gather cost of feature drift, reported separately from cold
    misses.  ``miss_rows`` counts cold misses only.
    """

    hit_rows: int
    miss_rows: int
    hit_bytes: int
    miss_bytes: int
    invalidated_rows: int = 0
    invalidated_bytes: int = 0

    @property
    def rows(self) -> int:
        return self.hit_rows + self.miss_rows + self.invalidated_rows

    @property
    def bytes(self) -> int:
        """The uncached gather bill (hits + misses + invalidated): the
        reconciliation quantity against the cache-free accounting."""
        return self.hit_bytes + self.miss_bytes + self.invalidated_bytes

    @property
    def paid_bytes(self) -> int:
        """Bytes actually fetched from host storage (cold misses plus
        invalidated re-gathers) — what the batch's gather stall costs."""
        return self.miss_bytes + self.invalidated_bytes


class FeatureCache:
    """Bounded LRU over ``(layer, vertex)`` rows.

    ``capacity_rows`` bounds the number of cached rows; 0 disables
    caching (every lookup misses, the uncached-accounting limit).
    Alternatively pass ``capacity_bytes`` with the per-row storage cost
    (``row_bytes``) and the row budget is derived as
    ``capacity_bytes // row_bytes`` — the device-memory framing, under
    which a fixed byte budget holds twice as many fp16 rows as fp32
    ones.  Lookups are resolved row by row in vertex order, so a
    batch's split is deterministic; missed rows are inserted (and the
    least recently used *unpinned* row evicted) immediately, modelling
    a fetch-through cache.
    """

    def __init__(
        self,
        capacity_rows: int = 0,
        *,
        capacity_bytes: Optional[int] = None,
        row_bytes: Optional[int] = None,
    ):
        if capacity_bytes is not None:
            if capacity_rows:
                raise ValueError(
                    "pass capacity_rows or capacity_bytes, not both"
                )
            if capacity_bytes < 0:
                raise ValueError("capacity_bytes must be non-negative")
            if row_bytes is None or row_bytes <= 0:
                raise ValueError(
                    "capacity_bytes requires a positive row_bytes "
                    "(the per-row storage cost to divide the budget by)"
                )
            capacity_rows = int(capacity_bytes) // int(row_bytes)
        elif row_bytes is not None:
            raise ValueError("row_bytes is only meaningful with capacity_bytes")
        if capacity_rows < 0:
            raise ValueError("capacity_rows must be non-negative")
        self.capacity_rows = int(capacity_rows)
        self._rows: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        # Keys a versioned write removed while resident; the next miss
        # on one is an invalidation re-gather, not a cold miss.
        self._stale: Set[Tuple[int, int]] = set()
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0
        self.invalidated = 0
        self.invalidated_bytes = 0
        self.evictions = 0
        self.invalidations = 0
        self.pinned_bypasses = 0

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._rows

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.invalidated

    @property
    def hit_rate(self) -> float:
        """Row-level hit share over every lookup so far."""
        total = self.lookups
        return self.hits / total if total > 0 else 0.0

    def clear(self) -> None:
        self._rows.clear()
        self._stale.clear()
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0
        self.invalidated = 0
        self.invalidated_bytes = 0
        self.evictions = 0
        self.invalidations = 0
        self.pinned_bypasses = 0

    # ------------------------------------------------------------------
    def invalidate(self, layer: int, vertices: np.ndarray) -> int:
        """Drop the resident rows a versioned write touched.

        Returns how many rows were actually resident (and are now
        marked stale).  Rows not in the cache need nothing: their next
        gather was going to miss anyway, so attributing it to
        invalidation would double-count drift against cold traffic.
        """
        dropped = 0
        layer = int(layer)
        for v in np.asarray(vertices, dtype=np.int64).tolist():
            key = (layer, v)
            if key in self._rows:
                del self._rows[key]
                self._stale.add(key)
                dropped += 1
        self.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    def gather(
        self, layer: int, vertices: np.ndarray, row_bytes: int
    ) -> GatherSplit:
        """Resolve one receptive-field gather against the cache.

        ``vertices`` are the (deduplicated) field rows the batch needs;
        ``row_bytes`` is the per-row gather bill
        (:func:`~repro.exec.analytic.feature_gather_row_bytes`).
        Returns the hit/miss/invalidated split; misses are fetched
        through (inserted as most-recently-used, evicting LRU rows
        beyond capacity — skipping rows this same call already
        gathered, which the in-flight batch is about to bind).
        """
        if row_bytes < 0:
            raise ValueError("row_bytes must be non-negative")
        hit_rows = miss_rows = invalidated_rows = 0
        if self.capacity_rows == 0:
            # Nothing is ever resident, so writes can never invalidate:
            # every lookup is a plain cold miss.
            miss_rows = int(np.asarray(vertices).size)
        else:
            batch_keys: Set[Tuple[int, int]] = set()
            layer = int(layer)
            for v in np.asarray(vertices, dtype=np.int64).tolist():
                key = (layer, v)
                if key in self._rows:
                    self._rows.move_to_end(key)
                    hit_rows += 1
                else:
                    if key in self._stale:
                        self._stale.discard(key)
                        invalidated_rows += 1
                    else:
                        miss_rows += 1
                    self._rows[key] = None
                    if len(self._rows) > self.capacity_rows:
                        evicted = False
                        for candidate in self._rows:
                            if candidate not in batch_keys and candidate != key:
                                del self._rows[candidate]
                                self.evictions += 1
                                evicted = True
                                break
                        if not evicted:
                            # Every resident row is pinned to this
                            # batch: don't cache the newcomer at all.
                            del self._rows[key]
                            self.pinned_bypasses += 1
                            continue
                batch_keys.add(key)
        split = GatherSplit(
            hit_rows=hit_rows,
            miss_rows=miss_rows,
            hit_bytes=hit_rows * row_bytes,
            miss_bytes=miss_rows * row_bytes,
            invalidated_rows=invalidated_rows,
            invalidated_bytes=invalidated_rows * row_bytes,
        )
        self.hits += split.hit_rows
        self.misses += split.miss_rows
        self.hit_bytes += split.hit_bytes
        self.miss_bytes += split.miss_bytes
        self.invalidated += split.invalidated_rows
        self.invalidated_bytes += split.invalidated_bytes
        return split
