"""A plan's counters as integer affine forms in (V, E), lowered once.

Every formula the analytic counters evaluate reads a graph through
``stats.num_vertices`` and ``stats.num_edges`` alone
(:mod:`repro.ir.ops`; ``TensorSpec.rows`` is V, E or 1).  So for a
fixed plan every :class:`~repro.exec.profiler.KernelRecord` field is an
integer affine form ``a·V + b·E + c``, or a max of such forms — a read
several nodes of one kernel share costs its dominant access pattern,
and a dense kernel runs as many rows as its widest output — and every
step of the §6 ledger timeline is one such form.  A max stays a max:
partition parts and sampled fields have E < V, where the other
candidate wins.

:func:`lower` finds the coefficients by running the per-node formulas
and the one :func:`~repro.exec.memory.ledger_walk` once, over symbolic
sizes (:class:`Affine`), and checks that each is an integer.
:meth:`CostForms.evaluate` then prices any number of
:class:`~repro.graph.stats.GraphStats` with a few int64 products and
max-reductions: the full graph, the parts of a partition, or the
batches of an epoch go through one product.
:meth:`ExecPlan.cost_forms <repro.exec.plan.ExecPlan.cost_forms>`
lowers on first use and keeps the result on the plan, per pinned set.
"""

from __future__ import annotations

from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exec.memory import LedgerWalk, ledger_walk, root_sizes
from repro.exec.plan import ExecPlan, Kernel
from repro.exec.profiler import KernelRecord, PhaseCounters
from repro.graph.stats import GraphStats
from repro.ir.ops import OpKind

__all__ = ["Affine", "CostForms", "kernel_shape", "lower"]


class Affine:
    """``v·V + e·E + c``: an extent computed on symbolic stats.

    Immutable, and closed under ``+``, ``-`` and scaling by a number —
    all the cost formulas and the ledger ever do with a size.  It has no
    order on purpose: a max of forms is not a form, so a formula that
    takes one fails loudly instead of picking a candidate.
    """

    __slots__ = ("v", "e", "c")

    def __init__(self, v=0, e=0, c=0) -> None:
        self.v, self.e, self.c = v, e, c

    def __add__(self, other) -> "Affine":
        if isinstance(other, Affine):
            return Affine(self.v + other.v, self.e + other.e, self.c + other.c)
        return Affine(self.v, self.e, self.c + other)

    __radd__ = __add__

    def __sub__(self, other) -> "Affine":
        return self + other * -1

    def __mul__(self, k) -> "Affine":
        if isinstance(k, Affine):
            return NotImplemented
        return Affine(self.v * k, self.e * k, self.c * k)

    __rmul__ = __mul__


class _Extents(NamedTuple):
    """The two numbers the cost formulas read off a ``GraphStats``."""

    num_vertices: object
    num_edges: object


#: Symbolic stats: every formula evaluated on these returns its form.
_SYMBOLIC = _Extents(Affine(v=1), Affine(e=1))


def _matrix(sizes) -> np.ndarray:
    """Forms (a number is a constant one) as the rows of an ``(n, 3)``
    int64 coefficient matrix ``(v, e, c)``; every coefficient must be
    an integer, or evaluating in int64 would not be exact."""
    exact = np.array(
        [(s.v, s.e, s.c) if isinstance(s, Affine) else (0, 0, s) for s in sizes],
        dtype=np.float64,
    ).reshape(-1, 3)
    coefficients = exact.astype(np.int64)
    if not np.array_equal(coefficients, exact):
        raise ValueError(
            f"cost coefficients {exact[coefficients != exact].tolist()} are "
            "not integers; the evaluation is exact only on integer forms"
        )
    return coefficients


def kernel_shape(kernel: Kernel, specs, V, E) -> Tuple[str, list]:
    """Work distribution of a kernel, and the candidates whose max is
    its parallel row count (:class:`~repro.exec.profiler.KernelRecord`
    ``work`` / ``rows``)."""
    if kernel.mapping == "none":
        return "uniform", [0]
    if kernel.mapping == "dense":
        return "uniform", [specs[node.outputs[0]].rows(V, E) for node in kernel.nodes]
    if kernel.mapping == "edge":
        return "uniform", [E]
    # Vertex-balanced kernel: work per vertex follows the incident-edge
    # count whenever graph-related operators are present.
    if not any(n.is_graph_related() for n in kernel.nodes):
        return "uniform", [V]
    orientations = {
        n.orientation for n in kernel.nodes if n.kind is OpKind.GATHER
    }
    return ("degree_out" if orientations == {"out"} else "degree_in"), [V]


class _KernelForms(NamedTuple):
    """Per-kernel record forms of one plan (independent of pinning)."""

    #: ``(label, mapping, work, atomic, fused_ops, reduce_scatter)``.
    meta: Tuple[tuple, ...]
    flops: np.ndarray        #: (K, 3)
    writes: np.ndarray       #: (K, 3)
    reads: np.ndarray        #: (C, 3) candidates of every read term
    read_starts: np.ndarray  #: first candidate of each term
    read_sum: np.ndarray     #: (K, terms) 0/1: which terms a kernel pays
    rows: np.ndarray         #: (R, 3) row-count candidates
    row_starts: np.ndarray   #: first candidate of each kernel


def _lower_kernels(plan: ExecPlan) -> _KernelForms:
    specs = plan.module.specs
    V, E = _SYMBOLIC
    meta, flops, writes, reads, read_starts, rows, row_starts = ([] for _ in range(7))
    term_kernel: List[int] = []
    for index, kernel in enumerate(plan.kernels):
        io = plan.kernel_io(index)
        work, row_forms = kernel_shape(kernel, specs, V, E)
        meta.append((
            kernel.label, kernel.mapping, work, kernel.atomic,
            sum(1 for n in kernel.nodes if n.kind is not OpKind.VIEW),
            kernel.reduce_scatter,
        ))
        flops.append(sum(node.flops(specs, _SYMBOLIC) for node in kernel.nodes))
        writes.append(sum(
            node.write_bytes(o, specs, _SYMBOLIC)
            for node in kernel.nodes for o in node.outputs if o in io.writes
        ))
        # One staging of each tensor per kernel: the dominant access
        # pattern (max multiplier) wins when several nodes share it.
        terms = [
            [
                node.read_bytes(name, specs, _SYMBOLIC)
                for node in kernel.nodes if name in node.all_inputs()
            ]
            for name in io.reads
        ] or [[0]]
        for candidates in terms:
            term_kernel.append(index)
            read_starts.append(len(reads))
            reads.extend(candidates)
        row_starts.append(len(rows))
        rows.extend(row_forms)
    read_sum = np.zeros((len(meta), len(term_kernel)), dtype=np.int64)
    read_sum[term_kernel, np.arange(len(term_kernel))] = 1
    return _KernelForms(
        tuple(meta), _matrix(flops), _matrix(writes), _matrix(reads),
        np.array(read_starts, dtype=np.intp), read_sum,
        _matrix(rows), np.array(row_starts, dtype=np.intp),
    )


def _points(stats: Sequence[GraphStats]) -> np.ndarray:
    """``(3, S)`` columns ``(V, E, 1)``: where the forms are evaluated."""
    return np.array(
        [
            [s.num_vertices for s in stats],
            [s.num_edges for s in stats],
            [1] * len(stats),
        ],
        dtype=np.int64,
    ).reshape(3, len(stats))


class CostForms(NamedTuple):
    """One plan's counters under one pinned set, as coefficient arrays.

    Made by :func:`lower`; read by every analytic pricing
    (:mod:`repro.exec.analytic`, :func:`~repro.exec.memory.plan_memory`,
    :mod:`repro.exec.inspect`, :mod:`repro.exec.measure`,
    :mod:`repro.opt.autotune`).
    """

    kernels: _KernelForms
    #: (T, 3) resident bytes at each ledger step, and their pinned share.
    timeline: np.ndarray
    pinned: np.ndarray
    end: np.ndarray  #: (3,) end-of-phase residency

    def evaluate(self, stats: Sequence[GraphStats]) -> List[PhaseCounters]:
        """The plan's :class:`PhaseCounters` on each of ``stats``."""
        if not stats:
            return []
        x = _points(stats)
        k = self.kernels
        flops = (k.flops @ x).T.tolist()
        writes = (k.writes @ x).T.tolist()
        terms = np.maximum.reduceat(k.reads @ x, k.read_starts)
        reads = (k.read_sum @ terms).T.tolist()
        rows = np.maximum.reduceat(k.rows @ x, k.row_starts).T.tolist()
        peaks = (self.timeline @ x).max(axis=0).tolist()
        ends = (self.end @ x).tolist()
        return [
            PhaseCounters(
                records=[
                    KernelRecord(
                        label, mapping, work, r, float(f), rd, w, atomic, fused, rs
                    )
                    for (label, mapping, work, atomic, fused, rs), f, rd, w, r
                    in zip(k.meta, flops[s], reads[s], writes[s], rows[s])
                ],
                peak_memory_bytes=peaks[s],
                end_resident_bytes=ends[s],
            )
            for s in range(len(stats))
        ]

    def walk(self, stats: GraphStats) -> LedgerWalk:
        """The ledger's :class:`~repro.exec.memory.LedgerWalk` on ``stats``."""
        x = _points([stats])[:, 0]
        return LedgerWalk(
            tuple((self.timeline @ x).tolist()),
            tuple((self.pinned @ x).tolist()),
            int(self.end @ x),
        )


def lower(
    plan: ExecPlan,
    pinned: FrozenSet[str],
    kernels: Optional[_KernelForms] = None,
) -> CostForms:
    """Lower ``plan`` under the ``pinned`` roots (reusing the plan's
    ``kernels`` forms when another pinned set already lowered them)."""
    if kernels is None:
        kernels = _lower_kernels(plan)
    walk = ledger_walk(plan, root_sizes(plan, _SYMBOLIC), pinned=pinned)
    return CostForms(
        kernels,
        _matrix(walk.timeline),
        _matrix(walk.pinned),
        _matrix([walk.end_resident_bytes])[0],
    )
