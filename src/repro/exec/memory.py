"""The §6 liveness ledger, and arena planning over its intervals.

**The ledger.**  One discipline prices a plan's memory everywhere in
this repository: module inputs and parameters are resident up front,
every escaping write is resident from its producing kernel to its last
consumer, pinned roots (features, labels, parameters: memory the caller
owns regardless of scheduling) and keep-set / output roots are never
freed, and graph constants — synthesised from topology on demand — are
free.  :func:`ledger_walk` is the one analytic statement of it, fed by
the one size table :func:`root_sizes`; everything else *reads* a walk:

- :meth:`ExecPlan.cost_forms <repro.exec.plan.ExecPlan.cost_forms>` —
  one walk per plan and pinned set, on symbolic sizes, whose timeline
  :func:`repro.exec.analytic.analyze_plan` (a phase's peak and
  end-of-phase residency), :func:`repro.exec.inspect.memory_timeline`
  (the per-kernel trace) and :func:`plan_memory` (the ledger and live
  peaks an arena is held to) evaluate on their stats,
- :func:`repro.analysis.arena.check_memory_plan` — the RP204 / RP206
  re-walk.

:class:`MemoryLedger` is deliberately *not* a reader: it is the
measured twin, driven by the engine with the arrays it actually
produced, and its high-watermark must reconcile byte for byte with the
walk at the accounting precision (float32) — the differential contract
(README clause 3a) needs two independent statements to compare.

**The arena.**  The ledger prices a peak but says nothing about how a
runtime would *deliver* it: a naive allocator gives every boundary
value fresh storage and pays the sum of all sizes, not the max of
concurrent ones.  :func:`plan_memory` closes that gap:

- every boundary root in the plan's liveness ledger — except pinned
  values and graph constants — is assigned an ``(offset, size)`` slab
  inside one arena,
- two values may share arena bytes exactly when their lifetime
  intervals ``[def kernel, last consumer]`` are disjoint — the same
  discipline the ledger frees by, so reuse can never corrupt a value a
  later kernel still reads,
- placement tries several classic heuristics (definition order vs
  size-descending, first-fit vs best-fit) and keeps the smallest arena;
  size-descending first-fit is what defeats the fragmentation that
  birth-order packing suffers on backward plans.

Invariants (enforced by the test suite):

- ``arena_bytes <= naive_bytes`` — reuse never loses to fresh storage,
- executing through the arena (:class:`repro.exec.engine.Engine` with
  ``memory_plan=``) is bit-identical to fresh storage.

The planned footprint ``pinned_bytes + arena_bytes`` is held to the
analytic ledger peak only where ``fig_memory_plan`` measures it (the
zoo under ``ours`` on pubmed, within slab alignment).  Elsewhere
best-fit packing can fragment and plan more than the ledger.

:func:`pack` is the slab rule on its own.  An arena-backed engine runs
it again on what it really writes: the slabs of the values whose kernels
write in place, and — at node granularity, where no plan describes them,
so no plan, golden or price moves — the values that die inside a fused
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.exec.plan import ExecPlan
from repro.graph.stats import GraphStats
from repro.ir.module import GRAPH_CONSTANTS

__all__ = [
    "Slab",
    "MemoryPlan",
    "StepMemoryPlan",
    "MemoryLedger",
    "ArenaPool",
    "pack",
    "plan_memory",
    "LedgerWalk",
    "ledger_walk",
    "root_sizes",
    "ARENA_ALIGN",
]

#: Slab alignment in bytes.  Offsets land on 8-byte boundaries so arena
#: views of any kernel dtype (float32/float64/int64) are aligned.
ARENA_ALIGN = 8


def _align(nbytes: int) -> int:
    return (nbytes + ARENA_ALIGN - 1) // ARENA_ALIGN * ARENA_ALIGN


@dataclass(frozen=True)
class Slab:
    """One boundary root's reserved arena region and lifetime."""

    name: str
    offset: int
    size: int     #: aligned extent reserved in the arena
    nbytes: int   #: exact accounting bytes (``TensorSpec.nbytes``)
    birth: int    #: producing kernel (-1 = module input)
    death: int    #: last consuming kernel (``len(kernels)`` = survives)

    def overlaps(self, other: "Slab") -> bool:
        """Do the two lifetimes intersect (may not share bytes)?"""
        return self.birth <= other.death and other.birth <= self.death


@dataclass
class MemoryPlan:
    """Arena assignment for one :class:`~repro.exec.plan.ExecPlan`.

    ``ledger_peak_bytes`` is the analytic ledger peak of this plan on
    the planning stats (pinned values resident throughout);
    ``live_peak_bytes`` is the unpinned share of that peak — the
    information-theoretic floor of any arena for this schedule.
    """

    plan: ExecPlan
    slabs: Dict[str, Slab]
    arena_bytes: int
    naive_bytes: int
    ledger_peak_bytes: int
    live_peak_bytes: int
    pinned_bytes: int
    pinned: FrozenSet[str]
    heuristic: str

    @property
    def planned_peak_bytes(self) -> int:
        """Device bytes an arena-backed run provisions: pinned + arena."""
        return self.pinned_bytes + self.arena_bytes

    @property
    def reuse_factor(self) -> float:
        """Fresh-storage bytes over arena bytes (>= 1 by construction)."""
        if self.arena_bytes == 0:
            return 1.0
        return self.naive_bytes / self.arena_bytes

    @property
    def fragmentation(self) -> float:
        """Arena share lost to packing gaps at the peak step."""
        if self.arena_bytes == 0:
            return 0.0
        return 1.0 - self.live_peak_bytes / self.arena_bytes

    def summary(self) -> str:
        return (
            f"arena {self.arena_bytes / 2**20:.2f} MiB"
            f" + pinned {self.pinned_bytes / 2**20:.2f} MiB"
            f" (ledger peak {self.ledger_peak_bytes / 2**20:.2f} MiB,"
            f" naive {self.naive_bytes / 2**20:.2f} MiB,"
            f" reuse {self.reuse_factor:.2f}x,"
            f" frag {self.fragmentation * 100:.1f}%,"
            f" {self.heuristic})"
        )


@dataclass
class StepMemoryPlan:
    """Forward (+ optional backward) arena plans of one training step."""

    forward: MemoryPlan
    backward: Optional[MemoryPlan] = None

    def phases(self) -> List[MemoryPlan]:
        return [self.forward] + ([self.backward] if self.backward else [])

    @property
    def arena_bytes(self) -> int:
        return max(p.arena_bytes for p in self.phases())

    @property
    def planned_peak_bytes(self) -> int:
        return max(p.planned_peak_bytes for p in self.phases())

    @property
    def ledger_peak_bytes(self) -> int:
        return max(p.ledger_peak_bytes for p in self.phases())

    @property
    def reuse_factor(self) -> float:
        naive = sum(p.naive_bytes for p in self.phases())
        arena = sum(p.arena_bytes for p in self.phases())
        return naive / arena if arena else 1.0

    def summary(self) -> str:
        lines = [f"forward   {self.forward.summary()}"]
        if self.backward is not None:
            lines.append(f"backward  {self.backward.summary()}")
        return "\n".join(lines)


# ======================================================================
# The analytic ledger
# ======================================================================
def root_sizes(plan: ExecPlan, stats: GraphStats) -> Dict[str, int]:
    """Bytes of every boundary root the ledger charges on ``stats``.

    Graph constants are absent: they are manufactured from topology on
    demand, so no walk, slab or schedule ever pays for them.
    """
    specs = plan.module.specs
    V, E = stats.num_vertices, stats.num_edges
    free = {plan.root_of(n) for n in GRAPH_CONSTANTS if n in specs}
    return {
        root: specs[root].nbytes(V, E)
        for root in plan.liveness()
        if root not in free
    }


class LedgerWalk(NamedTuple):
    """What one simulated run of the ledger saw."""

    #: Resident bytes before the first kernel, then at each step's
    #: high-water point: its writes have landed, its frees are pending.
    timeline: Tuple[int, ...]
    #: The pinned share of each ``timeline`` entry.
    pinned: Tuple[int, ...]
    end_resident_bytes: int

    @property
    def peak_bytes(self) -> int:
        return max(self.timeline)

    @property
    def live_peak_bytes(self) -> int:
        """Peak of the unpinned share — the floor of any arena."""
        return max(t - p for t, p in zip(self.timeline, self.pinned))


def ledger_walk(
    plan: ExecPlan,
    sizes: Mapping[str, int],
    *,
    pinned: Iterable[str] = (),
) -> LedgerWalk:
    """Simulate the liveness ledger over the plan's kernel order.

    The one analytic statement of the discipline in the module
    docstring.  ``sizes`` is :func:`root_sizes` (a root it does not
    name costs nothing); ``pinned`` names are never freed; roots die
    at the steps the plan's cached death index names
    (:meth:`ExecPlan.liveness`).
    The walk only adds and subtracts sizes, so on symbolic sizes
    (:class:`~repro.exec.cost_form.Affine`) it returns the timeline as
    forms in (V, E): how :meth:`ExecPlan.cost_forms` lowers it once.
    """
    pinned_roots = {plan.root_of(p) for p in pinned}
    deaths = plan.liveness().deaths
    resident: Dict[str, int] = {}
    current = pinned_now = 0

    def charge(names: Iterable[str]) -> None:
        nonlocal current, pinned_now
        for name in names:
            root = plan.root_of(name)
            if root in sizes and root not in resident:
                resident[root] = size = sizes[root]
                current += size
                if root in pinned_roots:
                    pinned_now += size

    charge(list(plan.module.inputs) + list(plan.module.params))
    timeline, pinned_share = [current], [pinned_now]
    for step in range(len(plan.kernels)):
        charge(plan.kernel_io(step).writes)
        timeline.append(current)
        pinned_share.append(pinned_now)
        for root in deaths.get(step, ()):
            if root not in pinned_roots:
                current -= resident.pop(root, 0)
    return LedgerWalk(tuple(timeline), tuple(pinned_share), current)


# ======================================================================
# Planning
# ======================================================================
def _place(
    values: List[Tuple[str, int, int, int]],
    order_key,
    fit: str,
) -> Tuple[Dict[str, int], int]:
    """Offset assignment: scan gaps between lifetime-overlapping slabs.

    ``fit`` is ``"first"`` (lowest feasible offset) or ``"best"``
    (tightest feasible gap, tie → lowest offset).
    """
    placed: List[Tuple[int, int, int, int]] = []  # (offset, size, birth, death)
    offsets: Dict[str, int] = {}
    for name, nbytes, birth, death in sorted(values, key=order_key):
        size = _align(nbytes)
        overlapping = sorted(
            (o, s) for o, s, b, d in placed if birth <= d and b <= death
        )
        cursor = 0
        best: Optional[Tuple[float, int]] = None  # (goodness, offset)
        for o, s in overlapping:
            gap = o - cursor
            if gap >= size:
                goodness = gap - size if fit == "best" else cursor
                if best is None or (goodness, cursor) < best:
                    best = (goodness, cursor)
            cursor = max(cursor, o + s)
        tail = (float("inf"), cursor) if fit == "best" else (cursor, cursor)
        if best is None or tail < best:
            best = tail
        offset = best[1]
        offsets[name] = offset
        placed.append((offset, size, birth, death))
    arena = max((o + s for o, s, _, _ in placed), default=0)
    return offsets, arena


#: (label, sort key over (root, nbytes, birth, death), fit) candidates.
_HEURISTICS = (
    ("size-desc/first-fit", lambda v: (-v[1], v[2], v[0]), "first"),
    ("size-desc/best-fit", lambda v: (-v[1], v[2], v[0]), "best"),
    ("birth/first-fit", lambda v: (v[2], -v[1], v[0]), "first"),
    ("birth/best-fit", lambda v: (v[2], -v[1], v[0]), "best"),
)


def pack(
    values: Sequence[Tuple[str, int, int, int]]
) -> Tuple[Dict[str, int], int, str]:
    """The slab rule: offsets for ``(name, nbytes, birth, death)``
    intervals such that two values share bytes exactly when their
    lifetimes are disjoint.  Returns ``(offsets, extent, heuristic)``
    for the smallest extent any of the heuristics reaches."""
    best: Optional[Tuple[int, str, Dict[str, int]]] = None
    for label, key, fit in _HEURISTICS:
        offsets, extent = _place(values, key, fit)
        if best is None or extent < best[0]:
            best = (extent, label, offsets)
    extent, heuristic, offsets = best
    return offsets, extent, heuristic


def plan_memory(
    plan: ExecPlan,
    stats: GraphStats,
    *,
    pinned: Iterable[str] = (),
) -> MemoryPlan:
    """Assign every unpinned boundary root an arena slab.

    ``pinned`` names (typically the model's inputs and parameters) stay
    outside the arena: the caller owns their storage and the ledger
    carries them for the whole phase regardless of scheduling.
    """
    pinned_roots = frozenset(plan.root_of(p) for p in pinned)
    sizes = root_sizes(plan, stats)
    values = [
        (root, sizes[root], birth, death)
        for root, (birth, death) in sorted(plan.liveness().items())
        if root in sizes and root not in pinned_roots
    ]
    offsets, arena_bytes, heuristic = pack(values)
    slabs = {
        name: Slab(
            name=name,
            offset=offsets[name],
            size=_align(nbytes),
            nbytes=nbytes,
            birth=birth,
            death=death,
        )
        for name, nbytes, birth, death in values
    }
    walk = plan.cost_forms(pinned_roots).walk(stats)
    return MemoryPlan(
        plan=plan,
        slabs=slabs,
        arena_bytes=arena_bytes,
        naive_bytes=sum(s.size for s in slabs.values()),
        ledger_peak_bytes=walk.peak_bytes,
        live_peak_bytes=walk.live_peak_bytes,
        pinned_bytes=sum(sizes.get(root, 0) for root in pinned_roots),
        pinned=pinned_roots,
        heuristic=heuristic,
    )


# ======================================================================
# Measured ledger (the engine-side half of the differential contract)
# ======================================================================
class MemoryLedger:
    """Live-byte bookkeeping over the arrays an engine actually holds.

    The measured twin of :func:`ledger_walk`, kept apart from it on
    purpose: the same discipline — inputs resident from the start, each
    escaping write resident from its producing kernel to its last
    consumer, pinned roots never freed, graph constants free — but
    sizes come from real ``ndarray.nbytes``.  At the accounting
    precision (float32) the resulting high-watermark equals the walk's
    (``analyze_plan(...).peak_memory_bytes``) byte for byte.
    """

    def __init__(self, plan: ExecPlan, *, pinned: Iterable[str] = ()):
        self._plan = plan
        self._pinned = {plan.root_of(p) for p in pinned}
        specs = plan.module.specs
        self._free = {plan.root_of(n) for n in GRAPH_CONSTANTS if n in specs}
        self._resident: Dict[str, int] = {}
        self.current_bytes = 0
        self.peak_bytes = 0
        #: The plan's own per-kernel death index (shared, read-only):
        #: ``after_kernel`` frees O(dying) roots, and the engine
        #: lowers each kernel's frees from the same lists.
        self._deaths = plan.liveness().deaths

    def _add(self, root: str, nbytes: int) -> None:
        if root in self._resident or root in self._free:
            return
        self._resident[root] = nbytes
        self.current_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)

    def bind(self, values: Mapping[str, np.ndarray]) -> None:
        """Charge the module inputs/params present in ``values``."""
        module = self._plan.module
        for name in list(module.inputs) + list(module.params):
            if name in values:
                self._add(self._plan.root_of(name), int(values[name].nbytes))

    def after_kernel(
        self, index: int, writes: Iterable[Tuple[str, Optional[np.ndarray]]]
    ) -> None:
        """Account kernel ``index``'s escaping writes — ``(root, array)``
        for each of ``kernel_io(index).writes``, ``None`` where the run
        holds none — then its frees."""
        for root, array in writes:
            if array is not None:
                self._add(root, int(array.nbytes))
        for root in self._deaths.get(index, ()):
            if root not in self._pinned:
                self.current_bytes -= self._resident.pop(root, 0)


class ArenaPool:
    """The reusable bytes an arena-backed engine runs in, allocated once.

    One buffer, sized to the largest phase, serves every phase of a
    step: phases run one after another.  A value gets here only by
    being written: :meth:`view` is the array its kernel is handed as
    ``out``.
    """

    def __init__(self, nbytes: int):
        self.buffer = np.zeros(nbytes, dtype=np.uint8)

    def view(self, offset: int, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """The ``shape``/``dtype`` array at byte ``offset``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        return self.buffer[offset : offset + nbytes].view(dtype).reshape(shape)
