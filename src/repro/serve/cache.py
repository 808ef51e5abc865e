"""Bounded LRU feature/embedding caching with exact byte accounting.

Per-request receptive-field gathers dominate serving IO, and request
streams are skewed (hot vertices recur), so the server fronts host
feature storage with a bounded LRU cache of input feature rows, keyed
by vertex id.

The cache is an *accounting* device: it never changes what the engine
computes (the engine always binds the true feature rows), only what the
gather costs.  Cache hits shrink the gather bytes the batch pays, and
misses pay them — with the exact reconciliation invariant the serving
tests pin::

    hit_bytes + miss_bytes + invalidated_bytes
        == uncached gather bytes (field rows × row bytes)

so analytic IO counters with caching enabled remain byte-exact against
the uncached :func:`~repro.exec.analytic.analyze_minibatch` convention.

Semantics
---------
One LRU order, bounded by ``capacity_rows``.  A gather resolves its
rows *sequentially, in input order*:

- a resident row is a **hit** and becomes the most recently used;
- any other row is a **miss**, fetched through: it is inserted as the
  most recently used, and beyond capacity the least recently used row
  that this gather has not yet touched is evicted.  A row evicted
  before the gather reaches it is a miss at its own position;
- **pin-during-batch**: rows this gather already touched (hits and
  inserted misses) are never evicted by it — a miss burst larger than
  the remaining capacity evicts other batches' rows, never rows the
  in-flight batch is about to bind.  When every resident row is pinned
  the insert is **bypassed** (``pinned_bypasses``); the row still pays
  its miss bytes.  A repeated vertex is a hit iff its earlier
  occurrence was inserted;
- **invalidation** (:meth:`FeatureCache.invalidate`): a versioned
  feature write evicts the touched resident rows; the *next* gather of
  such a row is attributed to the ``invalidated`` column instead of a
  cold miss, so the staleness-induced re-gather bill is separable.

Mechanism
---------
Two dense tables indexed by vertex id, grown geometrically when an id
passes their end (dynamic runs add vertices): ``stamp`` (int64; −1
when the row is not resident) and ``stale`` (bool).  A touch log of
vertex ids: an entry's position is the clock, and it is live iff its
row's stamp still points at it.  The LRU order is the live entries
read from a head pointer; the log is compacted when it runs out of
room and is mostly dead.

A gather splits hits, cold misses and invalidated misses with array
operations on the stamps, and loops in Python only over evictions:
each miss beyond the free slots walks the log from the head, skipping
dead entries and rows an earlier touch of this gather has pinned.  A
walked-over row the gather touches later turns that touch into a miss
that joins the walk.  The gather's touches are stamped once at its
end, ordered by each row's last touch.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
    """Bounded LRU over feature rows, keyed by vertex id.

    ``capacity_rows`` bounds the number of cached rows; 0 disables
    caching (every lookup misses, the uncached-accounting limit).  A
    gather's rows are resolved in input order (see the module
    docstring), so its split is deterministic; misses are fetched
    through, modelling a fetch-through cache.
    """

    def __init__(self, capacity_rows: int = 0):
        if capacity_rows < 0:
            raise ValueError("capacity_rows must be non-negative")
        self.capacity_rows = int(capacity_rows)
        self.clear()

    def __len__(self) -> int:
        return self._resident

    def __contains__(self, vertex: int) -> bool:
        return 0 <= vertex < self._stamp.size and bool(self._stamp[vertex] >= 0)

    def keys(self) -> List[int]:
        """The resident vertices, least recently used first (a
        read-only snapshot)."""
        return self._log_vertex[self._live(self._head, self._tail)].tolist()

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.invalidated

    @property
    def hit_rate(self) -> float:
        """Row-level hit share over every lookup so far."""
        total = self.lookups
        return self.hits / total if total > 0 else 0.0

    def clear(self) -> None:
        # Vertex -> log position of its latest touch (-1 when not
        # resident), and vertex -> "a versioned write removed it while
        # resident" (its next miss is a re-gather, not cold).
        self._stamp = np.empty(0, dtype=np.int64)
        self._stale = np.empty(0, dtype=bool)
        self._log_vertex = np.empty(0, dtype=np.int64)
        self._head = 0
        self._tail = 0
        self._resident = 0
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
    def invalidate(self, vertices: np.ndarray) -> int:
        """Drop the resident rows a versioned write touched.

        Returns how many rows were actually resident (and are now
        marked stale).  Rows not in the cache need nothing: their next
        gather was going to miss anyway, so attributing it to
        invalidation would double-count drift against cold traffic.
        """
        stamp = self._stamp
        ids = np.asarray(vertices, dtype=np.int64).ravel()
        ids = ids[(ids >= 0) & (ids < stamp.size)]
        ids = np.unique(ids[stamp[ids] >= 0])
        stamp[ids] = -1
        self._stale[ids] = True
        self._resident -= ids.size
        self.invalidations += ids.size
        return int(ids.size)

    # ------------------------------------------------------------------
    def gather(self, vertices: np.ndarray, row_bytes: int) -> GatherSplit:
        """Resolve one receptive-field gather against the cache.

        ``vertices`` are the field rows the batch needs (non-negative
        ids; serving sends them sorted and unique, but repeats are
        resolved too); ``row_bytes`` is the per-row gather bill
        (:func:`~repro.exec.analytic.feature_gather_row_bytes`).
        Returns the hit/miss/invalidated split; misses are fetched
        through (inserted as most-recently-used, evicting LRU rows
        beyond capacity — skipping rows this same call already
        gathered, which the in-flight batch is about to bind).
        """
        if row_bytes < 0:
            raise ValueError("row_bytes must be non-negative")
        ids = np.asarray(vertices, dtype=np.int64).ravel()
        n = ids.size
        if self.capacity_rows == 0 or n == 0:
            # Nothing is ever resident, so writes can never invalidate:
            # every lookup is a plain cold miss.
            return self._account(0, n, 0, row_bytes)
        if ids.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        stamp, stale = self._tables(int(ids.max()) + 1)
        # Per distinct row: its first and last position in the call and
        # its number of occurrences (None: every row occurs once).
        if n == 1 or bool((ids[1:] > ids[:-1]).all()):
            rows, first, last, counts = ids, np.arange(n), None, None
        else:
            rows, first, inverse, counts = np.unique(
                ids, return_index=True, return_inverse=True,
                return_counts=True,
            )
            last = np.zeros(rows.size, dtype=np.int64)
            np.maximum.at(last, inverse, np.arange(n))
        cold = stamp[rows] < 0
        # Rows that take a slot: the cold ones, plus resident ones the
        # eviction walk reaches before the call does.
        need = cold.copy()
        misses = (
            np.flatnonzero(cold) if counts is None else np.sort(first[cold])
        )
        free = self.capacity_rows - self._resident
        victims: List[int] = []
        bypassed = np.zeros(rows.size, dtype=bool)
        if misses.size > free:
            victims, evicted_rows, bypass_from = self._evict(
                rows, first, misses[free:].tolist()
            )
            need[evicted_rows] = True
            if bypass_from is not None:
                bypassed = need & (first >= bypass_from)

        if victims:
            stamp[self._log_vertex[victims]] = -1
        invalidated_rows = int(np.count_nonzero(stale[rows[cold]]))
        stale[rows[cold]] = False
        num_need = int(np.count_nonzero(need))
        num_bypassed = int(np.count_nonzero(bypassed))
        # A repeat of a bypassed row misses (and bypasses) again.
        bypass_rows = (
            num_bypassed if counts is None else int(counts[bypassed].sum())
        )
        miss_rows = num_need - invalidated_rows + bypass_rows - num_bypassed
        self.evictions += len(victims)
        self.pinned_bypasses += bypass_rows
        self._resident += num_need - num_bypassed - len(victims)

        touched = rows if num_bypassed == 0 else rows[~bypassed]
        if last is not None:
            touched = touched[np.argsort(last[~bypassed], kind="stable")]
        self._append(touched)
        return self._account(
            n - miss_rows - invalidated_rows, miss_rows, invalidated_rows,
            row_bytes,
        )

    # ------------------------------------------------------------------
    def _account(
        self, hit_rows: int, miss_rows: int, invalidated_rows: int,
        row_bytes: int,
    ) -> GatherSplit:
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

    def _evict(
        self, rows: np.ndarray, first: np.ndarray, misses: List[int],
    ) -> Tuple[List[int], List[int], Optional[int]]:
        """Take one victim per miss beyond the free slots, in input order.

        ``misses`` are the positions of the cold rows that find no free
        slot.  Returns the victims' log positions, the indices (into
        ``rows``) of resident rows evicted before the call reached them
        — each a miss at its own position — and the position of the
        first miss that found every resident row pinned (None if none
        did): it and every later miss bypass.  The head moves past the
        walked entries, each dead once the call's touches are stamped:
        a victim, or a row this call touched.
        """
        victims: List[int] = []
        evicted_rows: List[int] = []
        late: List[int] = []        # heap of those rows' positions
        pos: List[int] = []         # the walked chunk of live entries:
        touch: List[int] = []       # first touch in this call, or -1
        index: List[int] = []       # index into ``rows``, or -1
        at = 0
        lo = self._head
        chunk = max(64, 2 * len(misses))
        next_miss, num_misses = 0, len(misses)
        while True:
            if late and (next_miss == num_misses or late[0] < misses[next_miss]):
                p = heapq.heappop(late)
            elif next_miss < num_misses:
                p = misses[next_miss]
                next_miss += 1
            else:
                break
            # The oldest live row not touched by this call before p.
            victim = -1
            while victim < 0:
                if at == len(pos):
                    if lo >= self._tail:
                        break
                    hi = min(self._tail, lo + chunk)
                    pos, touch, index = self._candidates(lo, hi, rows, first)
                    lo, at, chunk = hi, 0, 2 * chunk
                    continue
                if touch[at] < 0 or touch[at] > p:
                    victim = at
                at += 1
            if victim < 0:
                self._head = self._tail
                return victims, evicted_rows, p
            victims.append(pos[victim])
            if touch[victim] >= 0:
                heapq.heappush(late, touch[victim])
                evicted_rows.append(index[victim])
        self._head = pos[at] if at < len(pos) else lo
        return victims, evicted_rows, None

    def _candidates(
        self, lo: int, hi: int, rows: np.ndarray, first: np.ndarray,
    ) -> Tuple[List[int], List[int], List[int]]:
        """The live entries of log ``[lo, hi)``, oldest first: their
        positions, the position of their row's first touch in the call
        (-1 when the call does not touch it) and the row's index."""
        live = self._live(lo, hi)
        vertex = self._log_vertex[live]
        k = np.minimum(np.searchsorted(rows, vertex), rows.size - 1)
        mine = rows[k] == vertex
        return (
            live.tolist(),
            np.where(mine, first[k], -1).tolist(),
            np.where(mine, k, -1).tolist(),
        )

    def _tables(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The (stamp, stale) tables, grown to hold ``size`` ids."""
        old = self._stamp.size
        if old < size:
            grown = np.full(max(size, 2 * old, 64), -1, dtype=np.int64)
            stale = np.zeros(grown.size, dtype=bool)
            grown[:old] = self._stamp
            stale[:old] = self._stale
            self._stamp, self._stale = grown, stale
        return self._stamp, self._stale

    def _live(self, lo: int, hi: int) -> np.ndarray:
        """Positions of the live log entries in ``[lo, hi)``, in order."""
        pos = np.arange(lo, hi)
        return pos[self._stamp[self._log_vertex[lo:hi]] == pos]

    def _append(self, vertices: np.ndarray) -> None:
        """Stamp ``vertices`` (unique) as touched, in order."""
        k = vertices.size
        if self._tail + k > self._log_vertex.size:
            self._compact(k)
        lo, hi = self._tail, self._tail + k
        self._log_vertex[lo:hi] = vertices
        self._stamp[vertices] = np.arange(lo, hi)
        self._tail = hi

    def _compact(self, room: int) -> None:
        """Rewrite the log as its live entries from position 0, with
        ``room`` free entries after them (growing it when more than
        half of it would be live)."""
        vertex = self._log_vertex[self._live(self._head, self._tail)]
        if 2 * (vertex.size + room) > self._log_vertex.size:
            size = max(2 * self._log_vertex.size, 2 * (vertex.size + room), 1024)
            self._log_vertex = np.empty(size, dtype=np.int64)
        self._log_vertex[: vertex.size] = vertex
        self._stamp[vertex] = np.arange(vertex.size)
        self._head = 0
        self._tail = vertex.size
