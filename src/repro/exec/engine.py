"""Concrete plan interpreter over NumPy kernels.

The engine executes an :class:`~repro.exec.plan.ExecPlan` on a real
:class:`~repro.graph.csr.Graph`.  Results are independent of the plan's
kernel partitioning and stash policy — fusion and recomputation never
change a computed value — which the test suite exploits: every
optimized configuration must reproduce the per-op baseline bit for bit
(up to float associativity).

Fusion is not only accounting, though.  Inside a fused kernel an
*aggregation chain* — ``copy_u`` → (× one weight per edge, or per edge
and head) → ``sum`` / ``mean``, :meth:`ExecPlan.chains` — is one step:
the product of the graph's adjacency operator with the vertex rows
(:func:`repro.exec.kernels.aggregate`), so GCN / SAGE / GIN / RGCN and
GAT / MoNet's attention-weighted sums aggregate without ever holding a
message tensor; the backward's per-edge dot product
``reduce_to_shape(copy_v(a) · copy_u(b))`` is one ``u_dot_v`` scatter,
chunked over edges.  A fused kernel that
owns other kernel-internal edge tensors executes as one walk over blocks
of destination rows (source rows when its widest gather reduces over
out-edges), each block building only a ``BLOCK_BYTES``-sized slice of
every internal edge tensor, reducing it and dropping it
(:meth:`Engine._run_kernel`, :meth:`ExecPlan.blocked`); a chain inside
such a kernel is one of the walk's steps.  Internal values never enter
the run's value table — the host-side meaning of "internal values live
on chip".  Both keep each segment's ``+0.0``-then-left-to-right order in
CSC/CSR edge order, so they are bit-identical to running the same kernel
node by node (a weighted chain: wherever scipy's product rounds
``w * x`` before adding it — README clause 1d), which is what per-op
kernels still do.  ``MultiEngine`` shards never walk; they take every
chain but an out-edge aggregation, whose exchange is billed on its edge
operand.  Runs that round or inspect
at the node boundaries a chain removes — float16 / bfloat16 / int8
storage, ``check_finite`` — keep every node.

A caller that reads only some output rows — a serving batch reads its
seeds' — passes each vertex's hop distance from them
(``run_plan(distance=)``, non-decreasing: the field is laid out hop by
hop) and every node then computes only the ring of the field its
readers need (:meth:`ExecPlan.rings`, :class:`_Rings`), a prefix of
its rows: the read rows come out bit for bit as in the whole-field run.

Array conventions (see :mod:`repro.exec.kernels`): callers provide
vertex/edge tensors with their natural leading row axis and parameters
in natural shape; the engine wraps PARAM/DENSE values with a leading
1-axis internally and unwraps them on return.
"""

from __future__ import annotations

import time
from collections import ChainMap
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, MutableMapping, Optional,
    Sequence, Set, Tuple, Union,
)

import numpy as np

from repro.exec import blocks
from repro.exec.kernels import (
    aggregate, apply_kernel, gather_kernel, param_grad_kernel,
    scatter_kernel, writes_out,
)
from repro.exec.memory import (
    ArenaPool, MemoryLedger, MemoryPlan, StepMemoryPlan, pack,
)
from repro.exec.plan import (
    AggregationChain, BlockedKernel, ExecPlan, Kernel, Liveness,
)
from repro.exec.rings import WHOLE
from repro.graph.csr import Graph
from repro.ir.functions import get_scatter_fn
from repro.ir.module import GRAPH_CONSTANTS, Module
from repro.ir.ops import OpKind, OpNode
from repro.ir.precision import bf16_round, simulate_storage
from repro.ir.tensorspec import LOGICAL_DTYPES, Domain, TensorSpec

#: The domains whose values have a row per vertex or edge.
_ROWS = (Domain.VERTEX, Domain.EDGE)

__all__ = [
    "Engine", "PlanRun", "translate_argmax", "require_accounting_precision",
    "require_arena_dtypes",
]


def require_accounting_precision(precision) -> None:
    """Arena-backed execution needs the accounting precision (float32).

    Slabs are sized from ``TensorSpec.nbytes``; arrays of any other
    engine precision would not fit them.  Raised where an arena plan is
    first asked for, not at the first slab that overflows.
    """
    if np.dtype(precision) != np.dtype("float32"):
        raise ValueError(
            "executing through a memory plan puts values in spec-sized "
            "arena slabs and needs the accounting precision: pass "
            'precision="float32"'
        )


def require_arena_dtypes(dtypes: Iterable[str]) -> None:
    """Arena-backed execution needs physical storage dtypes.

    Logical dtypes are *simulated* in float32 arrays, which do not fit
    the (honestly sized) logical-byte slabs.  Raised where an arena run
    begins.
    """
    logical = sorted(set(dtypes).intersection(LOGICAL_DTYPES))
    if logical:
        raise ValueError(
            f"arena-backed execution does not support logical "
            f"dtypes {logical}: slabs are sized for storage bytes "
            "but the simulation materialises float32; run without "
            "a memory plan (fp32/fp16 plans remain arena-backed)"
        )


def translate_argmax(ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Map gather-max argmax edge ids through ``table`` (``-1`` = no
    edge, preserved): block- or part-local ids to global COO ids on the
    way out, global ids to owner-local rows on the way in."""
    out = ids.astype(np.int64, copy=True)
    mask = out >= 0
    out[mask] = table[out[mask]]
    return out


@dataclass
class PlanRun:
    """State of one plan execution: :meth:`Engine._begin` decides it,
    the per-node step and the per-kernel epilogue read it.  A
    partitioned run (:class:`~repro.exec.multi.MultiEngine`) holds one
    per shard."""

    plan: ExecPlan
    values: MutableMapping[str, np.ndarray]
    wanted: Dict[str, None]     # plan.result_names(), as an ordered set
    argmax_needed: Set[str]     # plan.argmax_demand()
    ledger: MemoryLedger
    bf16_outputs: Set[str]      # empty unless the engine is spec-driven
    #: Output name → the array its kernel writes into (arena runs).
    storage: Mapping[str, np.ndarray]
    #: Result name → storage the caller holds it in (``run_plan``'s ``out``).
    held: Mapping[str, np.ndarray]
    finishes: bool              # any node-boundary work to do at all?
    chains: bool                # may aggregation chains run as one step?
    #: The rings a run reading only distance-0 output rows computes
    #: on (``run_plan``'s ``distance``); ``None``: every row.
    rings: Optional["_Rings"] = None


class _Rings:
    """Where each node of a run that reads only the outputs' rows at
    hop distance 0 computes, on a field laid out hop by hop: the ring
    map's (:meth:`ExecPlan.rings`, or a training step's
    :func:`~repro.exec.rings.training_rings`), which also gives each
    module input the ring it is held on.

    Ring ``d`` — the vertices within ``d`` hops — is rows ``[0, n_d)``
    of the field and its in-edges are the first ``E_d`` positions of
    the CSC grouping, so a node on ring ``d`` below the field's deepest
    runs on the in-edge row block of rows ``[0, n_d)``
    (:meth:`Graph.row_block`, the walk's layout): its vertex values hold
    ``n_d`` rows, its edge values ring ``d``'s in-edges in CSC order.
    A reader on an inner ring takes a prefix of either; an edge value
    of the whole field (a module input) is read at the block's edge
    ids.  A scatter reads its far operand through the block's absolute
    source ids, which lie on ring ``d + 1``.  A sum over out-edges of
    an edge value held on ring ``d`` runs on those edges grouped by
    source (:meth:`Graph.row_block`'s ``within``).  A node on a
    deeper ring runs as if there were no rings.

    A gradient is held on the smaller of its demand and its support,
    so a reader may need it further out than it is held: it reads
    ``+0.0`` there (:func:`_zero_padded`).  A PARAM_GRAD, or any node
    that runs on every row, reads each operand held on a ring that way
    out to every row — a ringed edge value back at its COO positions.
    """

    def __init__(
        self,
        plan: ExecPlan,
        graph: Graph,
        distance: np.ndarray,
        depth: Optional[Mapping[str, int]] = None,
    ):
        #: A lone plan is handed its inputs whole, and its demand walk
        #: reads nothing past the ring it is held on; a training map
        #: holds gradients on their support, which readers may widen.
        self._widens = depth is not None
        self._bound: FrozenSet[str] = frozenset()
        if depth is None:
            module = plan.module
            depth = plan.rings()
            self._bound = frozenset(module.inputs) | frozenset(module.params)
        self.depth = depth
        self.top = int(distance[-1])
        self._graph = graph
        self._specs = plan.module.specs
        #: ``n_d`` for each ring below the deepest.
        self._rows = np.searchsorted(distance, np.arange(self.top), side="right")
        #: Values held on a ring, widened to every row (a run's values
        #: never change, and PARAM_GRADs share operands).
        self._whole: Dict[str, np.ndarray] = {}

    def of(self, name: str) -> Optional[int]:
        """The ring value ``name`` is held on (its node runs on), or
        ``None`` for the whole field."""
        ring = WHOLE if name in self._bound else self.depth.get(name, WHOLE)
        return ring if ring < self.top else None

    def _n(self, ring: Optional[int]) -> int:
        return self._graph.num_vertices if ring is None else int(self._rows[ring])

    def touches(self, kernel: Kernel) -> bool:
        """Does any node of ``kernel`` run on, or read, a ring?"""
        return any(
            self.of(name) is not None
            for node in kernel.nodes
            for name in (node.name, *node.inputs)
        )

    def step(
        self,
        node: OpNode,
        chain: Optional[AggregationChain],
        values: Mapping[str, np.ndarray],
        out: Optional[np.ndarray],
    ):
        """``(operands, block, out)`` for :meth:`Engine._execute` to run
        ``node`` (or the chain it heads) on its ring; ``None`` when it
        runs on the whole field and reads nothing held on a ring."""
        ring = self.of(node.name)
        names = node.inputs if chain is None else chain.operands
        if node.kind is OpKind.GATHER and node.orientation == "out":
            edges_on = self.of(node.inputs[0])
            if edges_on is None:
                return None
            rows, within = self._n(ring), self._n(edges_on)
            block = self._graph.row_block("out", 0, rows, within=within)
        elif ring is not None and node.kind is not OpKind.PARAM_GRAD:
            block = self._graph.row_block("in", 0, int(self._rows[ring]))
        elif not self._widens or all(self.of(name) is None for name in names):
            return None
        else:
            return [self._every_row(name, values) for name in names], None, out
        row_wise = chain is None and node.kind in (OpKind.APPLY, OpKind.VIEW)
        operands: List[np.ndarray] = []
        for name in names:
            x, domain = values[name], self._specs[name].domain
            if domain is Domain.EDGE:
                x = x[block.eids] if self.of(name) is None else x[: block.num_edges]
            elif domain is Domain.VERTEX and row_wise:
                x = x[: block.num_vertices]
            operands.append(x)
        if self._widens:
            self._pad(node, chain, names, operands, block)
        if out is not None:
            by_edge = self._specs[node.outputs[0]].domain is Domain.EDGE
            out = out[: block.num_edges if by_edge else block.num_vertices]
        return operands, block, out

    def _pad(
        self,
        node: OpNode,
        chain: Optional[AggregationChain],
        names: Sequence[str],
        operands: List[np.ndarray],
        block,
    ) -> None:
        """Give each operand the rows the block reads, ``+0.0`` past the
        ring it is held on: a gradient read further out than its support."""
        far = chain is not None or (
            node.kind is OpKind.SCATTER and get_scatter_fn(node.fn).reads_u
        )
        for i, name in enumerate(names):
            domain = self._specs[name].domain
            if domain is Domain.EDGE:
                rows = block.num_edges
            elif domain is Domain.VERTEX:
                rows = block.far_vertices if i == 0 and far else block.num_vertices
            else:
                continue
            operands[i] = _zero_padded(operands[i], rows)

    def _every_row(self, name: str, values: Mapping[str, np.ndarray]) -> np.ndarray:
        """``values[name]`` on every row of the field: a value held on a
        ring reads ``+0.0`` past it — a ringed edge value back at its
        COO positions — built once per run (PARAM_GRADs share operands)."""
        x = values[name]
        domain = self._specs[name].domain
        if self.of(name) is None or domain not in _ROWS:
            return x
        wide = self._whole.get(name)
        if wide is None:
            graph = self._graph
            if domain is Domain.VERTEX:
                wide = _zero_padded(x, graph.num_vertices)
            else:
                wide = np.zeros((graph.num_edges,) + x.shape[1:], dtype=x.dtype)
                wide[graph.csc_eids[: x.shape[0]]] = x
            self._whole[name] = wide
        return wide


def _zero_padded(x: np.ndarray, rows: int) -> np.ndarray:
    """``x`` if it holds ``rows`` rows; else ``x`` followed by ``+0.0``
    rows up to ``rows`` (a gradient read past the ring it is held on)."""
    if x.shape[0] >= rows:
        return x
    wide = np.zeros((rows,) + x.shape[1:], dtype=x.dtype)
    wide[: x.shape[0]] = x
    return wide


class Engine:
    """Executes plans on one graph.

    Parameters
    ----------
    graph:
        Topology every plan is bound to.
    precision:
        Floating dtype used for computation (``"float32"`` matches GPU
        accounting; tests use ``"float64"`` for finite-difference
        gradient checks).
    free_dead_values:
        Drop arrays as soon as their last consumer kernel has run
        (mirrors the analytic memory ledger and keeps host RAM bounded
        on the million-edge workloads).
    memory_plan:
        Optional arena plan(s): one phase's
        :class:`~repro.exec.memory.MemoryPlan`
        (:func:`repro.exec.memory.plan_memory`) or a step's
        :class:`~repro.exec.memory.StepMemoryPlan`
        (``compiled.memory_plan(stats)``).  When :meth:`run_plan`
        executes a plan one of them was built for, each value is
        written into the arena by its kernel: a boundary value into its
        root's slab, a value that dies inside a fused kernel into
        storage laid out by the same rule at node granularity (the
        slabs are laid out again among the values really written, so
        no byte is reserved for one that is not).  A kernel with no
        in-place path (the scipy product behind every segment sum)
        keeps the fresh storage it allocates, and nothing is copied in.
        Every phase of a step runs in one buffer, sized to the largest
        phase.  This requires the engine precision to
        match the accounting dtype
        (:func:`require_accounting_precision`).  Results never enter
        the buffer, so they stay valid across later runs: they come
        back in fresh storage, or in the caller's own
        (:meth:`run_plan`'s ``out``).

    After every :meth:`run_plan` the engine exposes the measured
    live-byte ledger of the run — ``measured_peak_bytes`` /
    ``measured_end_bytes`` — which reconciles byte-for-byte with
    :func:`repro.exec.analytic.analyze_plan` at float32 (same pinned
    set; the memory plan's when one is active, empty otherwise).
    """

    def __init__(
        self,
        graph: Graph,
        *,
        precision: str = "float32",
        free_dead_values: bool = True,
        check_finite: bool = False,
        memory_plan: Union[MemoryPlan, StepMemoryPlan, None] = None,
    ):
        if memory_plan is not None:
            require_accounting_precision(precision)
        self.graph = graph
        self.precision = np.dtype(precision)
        #: Default-precision engines execute each value in its *spec*
        #: dtype (the storage simulation behind fp16/bf16/int8 plans);
        #: a float64 engine keeps the legacy cast-everything behaviour
        #: gradient checks rely on.
        self._spec_driven = self.precision == np.dtype("float32")
        self.free_dead_values = free_dead_values
        #: Debugging mode: raise on the first non-finite kernel output,
        #: naming the producing node (NaN/Inf failure localisation).
        self.check_finite = check_finite
        self.memory_plan = memory_plan
        #: Arena plans that back storage only: unlike ``memory_plan``
        #: they leave the ledger's pinned set empty, so the measured
        #: watermark stays the unpinned walk's.  What a
        #: :class:`~repro.train.loop.Trainer` runs its later steps in.
        self._arena_plan: Union[StepMemoryPlan, MemoryPlan, None] = None
        #: (configuration, pool, per-phase storage, phases) of the arena
        #: last run in (:meth:`_arena_storage`).
        self._arena: Optional[tuple] = None
        #: Live-byte high-watermark of the most recent :meth:`run_plan`.
        self.measured_peak_bytes: int = 0
        #: Live bytes still resident when that run finished.
        self.measured_end_bytes: int = 0
        #: Measured-execution hook: when set to a list, :meth:`run_plan`
        #: appends one ``(kernel_index, seconds)`` wall-clock sample per
        #: kernel it executes (see :mod:`repro.exec.measure`).
        self.kernel_timings: Optional[List[Tuple[int, float]]] = None

    # ------------------------------------------------------------------
    def _phases(self) -> List[MemoryPlan]:
        """The configured arena plans, one per phase (none: no arena)."""
        configured = (
            self.memory_plan if self.memory_plan is not None else self._arena_plan
        )
        if isinstance(configured, StepMemoryPlan):
            return configured.phases()
        return [] if configured is None else [configured]

    def _memory_plan_for(self, plan: ExecPlan) -> Optional[MemoryPlan]:
        """Resolve the configured memory plan matching ``plan``, if any."""
        return next((mp for mp in self._phases() if mp.plan is plan), None)

    def _arena_storage(
        self,
    ) -> Tuple[ArenaPool, Dict[int, Tuple[Dict[str, np.ndarray], Set[str]]]]:
        """The pool every phase runs in and, per phase (by ``id`` of its
        memory plan), the arrays its kernels write into and the names
        of every value a step writes into given storage — built once per
        configuration, the first time any phase runs."""
        phases = self._phases()
        key = (tuple(map(id, phases)), self.check_finite, blocks.BLOCK_BYTES)
        if self._arena is None or self._arena[0] != key:
            layouts = [self._lay_out(mp) for mp in phases]
            pool = ArenaPool(max(extent for _, _, extent in layouts))
            storage = {}
            for mp, (places, writers, _) in zip(phases, layouts):
                specs = mp.plan.module.specs
                views = {
                    name: pool.view(offset, self._shape(specs[name]), specs[name].dtype)
                    for name, offset in places.items()
                }
                storage[id(mp)] = (views, writers)
            # The phases ride along so their ids stay theirs.
            self._arena = (key, pool, storage, phases)
        return self._arena[1], self._arena[2]

    def _shape(self, spec: TensorSpec) -> Tuple[int, ...]:
        """The engine-side shape of a ``spec`` value on this graph."""
        if spec.domain in (Domain.PARAM, Domain.DENSE):
            return (1,) + spec.feat_shape
        rows = spec.rows(self.graph.num_vertices, self.graph.num_edges)
        return (rows,) + spec.feat_shape

    def _lay_out(
        self, memory_plan: MemoryPlan
    ) -> Tuple[Dict[str, int], Set[str], int]:
        """Where the values one phase's kernels write live in the arena.

        Returns ``(places, writers, extent)``.  ``writers`` names every
        value a step writes into storage it is handed: the output of a
        step whose kernel has an ``out`` path and whose operands all
        have the output's storage dtype, and the whole arrays a walk
        assembles.  Every other value keeps the fresh storage its
        kernel allocates.  ``places`` gives the writers a byte offset
        each, by the slab rule (:func:`~repro.exec.memory.pack`) on one
        time axis: a boundary value lives over its slab's kernels, a
        value that dies inside its kernel over its steps.  So the slabs
        are laid out again among the values that are really written
        there, and internals share their bytes.  Results get no place:
        they are handed to the caller, who may give storage of its own
        (:meth:`run_plan`'s ``out``).  Nor do a walk's block-local
        values, which are block-sized.
        """
        plan = memory_plan.plan
        specs = plan.module.specs
        V, E = self.graph.num_vertices, self.graph.num_edges
        chains = self._takes_chains(self._storage_dtypes(plan.module))
        results = {plan.root_of(n) for n in plan.result_names()}
        # One time axis for slabs and steps: kernel k's steps are
        # k * S + (0 .. S - 1).
        S = 1 + max((len(kernel.nodes) for kernel in plan.kernels), default=0)
        writers: Set[str] = set()
        values: List[Tuple[str, int, int, int]] = []
        for index, kernel in enumerate(plan.kernels):
            chain_of = plan.chains(index) if chains else {}
            internal = set(plan.kernel_io(index).internal)
            walk = self._walk_of(plan, index, chains)
            if walk is None:
                # A chain runs at its head; its interior never runs.
                nodes = [
                    node for node in kernel.nodes
                    if node.name not in chain_of or chain_of[node.name].head is node
                ]
            else:
                nodes = walk[0].pre + walk[0].post
                writers.update(n for step in walk[0].steps for n, _ in step.spill)
            lives: Dict[str, List[int]] = {}
            for pos, node in enumerate(nodes):
                chain = chain_of.get(node.name)
                for name in (chain.operands if chain else node.inputs) + node.params:
                    if plan.root_of(name) in lives:
                        lives[plan.root_of(name)][1] = index * S + pos
                if self._writes_in_place(node, chain, specs):
                    name = node.outputs[0]
                    writers.add(name)
                    if name in internal and walk is None:
                        lives[name] = [index * S + pos] * 2
            values.extend(
                (name, specs[name].nbytes(V, E), birth, death)
                for name, (birth, death) in lives.items()
            )
        values.extend(
            (name, slab.nbytes, slab.birth * S, slab.death * S + S - 1)
            for name, slab in memory_plan.slabs.items()
            if name in writers and name not in results
        )
        places, extent, _ = pack(values)
        return places, writers, extent

    def _writes_in_place(
        self, node: OpNode, chain: Optional[AggregationChain], specs
    ) -> bool:
        """Will the step running ``node`` write its output into an array
        it is handed?  Its kernel takes ``out``, and every operand has
        the output's dtype (so the result's is that dtype too)."""
        if chain is not None:
            kind, fn = "scatter", chain.scatter   # None: the scipy product
        elif node.kind in (OpKind.APPLY, OpKind.SCATTER):
            kind, fn = node.kind.value, node.fn
        else:
            return False
        if fn is None or not writes_out(kind, fn):
            return False
        dtype = specs[node.outputs[0]].dtype
        return all(
            specs[name].dtype == dtype
            for name in (chain.operands if chain else node.inputs) + node.params
        )

    def _takes_chains(self, dtypes: Set[str]) -> bool:
        """May aggregation chains run as one step in a run simulating
        storage ``dtypes``?

        A chain removes node boundaries: nothing may round there
        (narrow storage) or look there (the finite check, whose
        diagnostic names the first offending node).
        """
        return not self.check_finite and dtypes.isdisjoint(
            ("float16", *LOGICAL_DTYPES)
        )

    def _storage_dtypes(self, module: Module) -> Set[str]:
        """Storage dtypes a run of ``module`` simulates (a float64 engine
        casts every float and simulates none)."""
        if not self._spec_driven:
            return set()
        return {s.dtype for s in module.specs.values()}

    def _walk_of(
        self, plan: ExecPlan, index: int, chains: bool
    ) -> Optional[Tuple[BlockedKernel, int]]:
        """``(blocked, rows_per_block)`` when kernel ``index`` runs as a
        walk on this graph: the plan classifies it as blocked
        (:meth:`ExecPlan.blocked`) and its edges exceed one block."""
        blocked = plan.blocked(index, chains)
        if blocked is None:
            return None
        rows_per_block = blocks.BLOCK_BYTES // (
            blocked.row_elements * self.precision.itemsize
        )
        if self.graph.num_edges <= rows_per_block:
            return None
        return blocked, rows_per_block

    # ------------------------------------------------------------------
    def bind(self, module: Module, arrays: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Prepare an execution environment for ``module``.

        Wraps PARAM/DENSE values with the leading 1-axis, casts floats
        to the engine precision, validates shapes, and synthesises graph
        constants (degrees).
        """
        env: Dict[str, np.ndarray] = {}
        for name in list(module.inputs) + list(module.params):
            if name in GRAPH_CONSTANTS:
                const = self.graph_constant(name)
                spec = module.specs.get(name)
                if self._spec_driven and spec is not None:
                    const = simulate_storage(spec, const)
                env[name] = const
                continue
            if name not in arrays:
                raise KeyError(f"missing array for module value {name!r}")
            env[name] = self._wrap(name, module.specs[name], arrays[name])
        return env

    def graph_constant(self, name: str) -> np.ndarray:
        """Degree arrays (and future topology-derived inputs) by name."""
        if name == "g_in_degrees":
            return self.graph.in_degrees.astype(self.precision)
        if name == "g_out_degrees":
            return self.graph.out_degrees.astype(self.precision)
        raise KeyError(name)  # pragma: no cover - registry guards this

    def _wrap(self, name: str, spec: TensorSpec, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if np.issubdtype(arr.dtype, np.floating):
            if self._spec_driven:
                arr = simulate_storage(spec, arr)
            else:
                arr = arr.astype(self.precision, copy=False)
        expected_rows = spec.rows(self.graph.num_vertices, self.graph.num_edges)
        if spec.domain in (Domain.PARAM, Domain.DENSE):
            if arr.shape == spec.feat_shape:
                arr = arr[None]
            elif arr.shape != (1,) + spec.feat_shape:
                raise ValueError(
                    f"{name!r}: expected shape {spec.feat_shape}, got {arr.shape}"
                )
            return arr
        if arr.shape != (expected_rows,) + spec.feat_shape:
            raise ValueError(
                f"{name!r}: expected shape {(expected_rows,) + spec.feat_shape}, "
                f"got {arr.shape}"
            )
        return arr

    @staticmethod
    def unwrap(spec: TensorSpec, arr: np.ndarray) -> np.ndarray:
        """Strip the leading 1-axis from PARAM/DENSE results."""
        if spec.domain in (Domain.PARAM, Domain.DENSE):
            return arr[0]
        return arr

    # ------------------------------------------------------------------
    def run_plan(
        self,
        plan: ExecPlan,
        env: Mapping[str, np.ndarray],
        *,
        unwrap: bool = True,
        out: Optional[Mapping[str, np.ndarray]] = None,
        distance: Optional[np.ndarray] = None,
        rings: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, np.ndarray]:
        """Execute ``plan``; return outputs plus keep-set values.

        ``env`` must hold every module input/param (see :meth:`bind`).
        The returned dict contains the module outputs and every value in
        the plan's keep set (the training stash), unwrapped to natural
        shapes when ``unwrap``.

        ``out`` is storage the caller holds across runs, by result name
        (typically what the previous run of ``plan`` returned, which it
        is done with).  An arena-backed run leaves those results there
        and returns the same arrays: a kernel with an in-place path
        writes into them directly, any other result is copied in when
        the run ends.  So a result crosses to the next phase with no
        per-run allocation.  Results that are module inputs are never
        written, and without an arena ``out`` is not read.

        ``distance`` — each vertex's hop distance from the rows the
        caller will read (the seeds of a sampled field,
        :attr:`~repro.graph.sampling.MiniBatch.distance`), which must
        not decrease along the vertices — restricts the run to what
        those rows need: each node computes only the ring of the field
        :meth:`ExecPlan.rings` gives it, a prefix of the rows (see
        :class:`_Rings`).  A vertex output read at ring 0 then holds the
        distance-0 rows only, bit for bit the whole-field run's;
        keep-set results are whole and exact everywhere.

        ``rings`` replaces :meth:`ExecPlan.rings` as the map a run with
        ``distance`` computes on: a training step's
        (:func:`~repro.exec.rings.training_rings`), under which the
        keep set comes back on the rings the backward reads, ``env``
        holds each input on the ring the map gives it, and gradients
        are computed on their support.
        """
        run = self._begin(plan, env, out, distance, rings)
        timings = self.kernel_timings
        for i, kernel in enumerate(plan.kernels):
            if timings is not None:
                t0 = time.perf_counter()
            self._run_kernel(run, kernel, i)
            if timings is not None:
                timings.append((i, time.perf_counter() - t0))
            self._end_kernel(run, i)
        self.measured_peak_bytes = run.ledger.peak_bytes
        self.measured_end_bytes = run.ledger.current_bytes

        specs = plan.module.specs
        result: Dict[str, np.ndarray] = {}
        for name in run.wanted:
            arr = run.values[name]
            held = run.held.get(name)
            if held is not None and arr is not held:
                np.copyto(held, arr)
                arr = held
            result[name] = self.unwrap(specs[name], arr) if unwrap else arr
        return result

    # ------------------------------------------------------------------
    # The pieces of a run: set-up, per-kernel entry (node by node, or
    # one blocked walk), per-node step, per-kernel epilogue.
    # ``run_plan`` strings them together for one graph; ``MultiEngine``
    # drives set-up, step and epilogue on one Engine per shard.
    # ------------------------------------------------------------------
    def _begin(
        self,
        plan: ExecPlan,
        env: Mapping[str, np.ndarray],
        out: Optional[Mapping[str, np.ndarray]] = None,
        distance: Optional[np.ndarray] = None,
        depth: Optional[Mapping[str, int]] = None,
    ) -> PlanRun:
        """Set-up: result order, argmax demand, ledger, arena, bf16 set,
        rings."""
        module = plan.module
        values: Dict[str, np.ndarray] = dict(env)
        wanted = dict.fromkeys(plan.result_names())
        dtypes = self._storage_dtypes(module)
        memory_plan = self._memory_plan_for(plan)
        placed, held = {}, {}
        if memory_plan is not None:
            require_arena_dtypes(dtypes)
            placed, writers = self._arena_storage()[1][id(memory_plan)]
            if out:
                held = {
                    n: a for n, a in out.items()
                    if n in wanted and plan.producer_kernel(plan.root_of(n)) is not None
                }
                placed = {**placed, **{n: a for n, a in held.items() if n in writers}}
        ledger = MemoryLedger(
            plan,
            pinned=(
                memory_plan.pinned
                if memory_plan is not None and self.memory_plan is not None
                else ()
            ),
        )
        ledger.bind(values)

        bf16_outputs: Set[str] = (
            {n for n, s in module.specs.items() if s.dtype == "bfloat16"}
            if "bfloat16" in dtypes
            else set()
        )
        rings = None
        if distance is not None:
            distance = np.asarray(distance)
            if distance.shape != (self.graph.num_vertices,):
                raise ValueError(
                    f"distance must hold one hop count per vertex: expected "
                    f"shape ({self.graph.num_vertices},), got {distance.shape}"
                )
            if (distance[1:] < distance[:-1]).any():
                raise ValueError(
                    "distance must not decrease: rings are prefixes of a "
                    "field laid out hop by hop"
                )
            if distance[-1] > 0:
                rings = _Rings(plan, self.graph, distance, depth)
        return PlanRun(
            plan=plan,
            values=values,
            wanted=wanted,
            argmax_needed=plan.argmax_demand(),
            ledger=ledger,
            bf16_outputs=bf16_outputs,
            storage=placed,
            held=held,
            finishes=bool(bf16_outputs) or self.check_finite,
            chains=self._takes_chains(dtypes),
            rings=rings,
        )

    def _run_kernel(self, run: PlanRun, kernel: Kernel, index: int) -> None:
        """Execute one kernel of ``run.plan`` into ``run.values``.

        A fused kernel the plan classifies as blocked
        (:meth:`ExecPlan.blocked`) executes as one walk over blocks of
        home rows, unless the graph's edges fit a single block anyway —
        then, as for every other kernel, the nodes run one by one.
        Either way an aggregation chain (:meth:`ExecPlan.chains`) is one
        step at its gather, and its interior nodes never run.
        """
        chains = run.plan.chains(index) if run.chains else {}
        walk = self._walk_of(run.plan, index, run.chains)
        if walk is not None and run.rings is not None and run.rings.touches(kernel):
            walk = None  # a ring's kernel runs node by node (clause 1c)
        if walk is None:
            self._run_nodes(run, kernel.nodes, chains)
            return
        blocked, rows_per_block = walk
        self._run_nodes(run, blocked.pre, chains)
        self._walk(run, blocked, rows_per_block)
        self._run_nodes(run, blocked.post, chains)

    def _run_nodes(
        self,
        run: PlanRun,
        nodes: Sequence[OpNode],
        chains: Mapping[str, AggregationChain],
    ) -> None:
        """Step through ``nodes`` whole; a chain runs at its gather."""
        for node in nodes:
            chain = chains.get(node.name)
            if chain is None or chain.head is node:
                self._step(run, node, chain=chain)

    def _walk(
        self, run: PlanRun, blocked: BlockedKernel, rows_per_block: int
    ) -> None:
        """Run ``blocked.steps`` once per block of home rows.

        Each block sees the graph as :meth:`Graph.row_block` cuts it —
        the way a partitioned run sees a shard — so every step is the
        ordinary node dispatch on block-sized operands: block-local
        values shadow the whole arrays in ``run.values``.  Blocks hold
        whole segments in CSC/CSR order, so every gather reduces each
        segment in the per-node walk's order and the results are
        bit-identical.  Only what leaves the walk (``step.spill``) is
        assembled into whole arrays; the rest never exists beyond one
        block.  Node boundaries close per block (bf16 rounding and the
        finite check are elementwise).  In an arena run a spilled
        boundary write is assembled in its slab.
        """
        graph, whole = self.graph, run.values
        orientation = blocked.orientation
        indptr, _ = graph.segments(orientation)
        spilled: Dict[str, np.ndarray] = {}
        for lo, hi, _, _ in blocks.segment_blocks(indptr, rows_per_block):
            block = graph.row_block(orientation, lo, hi)
            local = {name: whole[name][lo:hi] for name in blocked.home_rows}
            for name in blocked.edge_rows:
                local[name] = whole[name][block.eids]
            scope = ChainMap(local, whole)
            for step in blocked.steps:
                node, chain = step.node, step.chain
                self._execute(
                    node, scope, run.argmax_needed, graph=block, chain=chain,
                    operands=[
                        whole[name] if far else None
                        for name, far in zip(
                            node.inputs if chain is None else chain.operands,
                            step.whole,
                        )
                    ],
                )
                if step.argmax:
                    local[step.argmax] = translate_argmax(
                        local[step.argmax], block.eids
                    )
                if run.finishes:
                    self._close(run, node, local)
                for name, by_edge in step.spill:
                    chunk = local[name]
                    out = spilled.get(name)
                    if out is None:
                        out = run.storage.get(name)
                        if out is None:
                            rows = graph.num_edges if by_edge else graph.num_vertices
                            out = np.empty((rows,) + chunk.shape[1:], dtype=chunk.dtype)
                        spilled[name] = out
                    if by_edge:
                        out[block.eids] = chunk
                    else:
                        out[lo:hi] = chunk
                for name in step.dead:
                    del local[name]
        whole.update(spilled)

    def _step(
        self,
        run: PlanRun,
        node: OpNode,
        *,
        operand: Optional[np.ndarray] = None,
        graph: Optional[Graph] = None,
        chain: Optional[AggregationChain] = None,
    ) -> None:
        """Run one node into ``run.values`` and close its boundary.

        ``operand``/``graph`` override the node's first input and the
        topology it indexes — what a partitioned run hands a SCATTER
        (owned rows ++ fetched ghost rows) or an out-orientation GATHER
        (fetched edge rows over the shard's out-graph).  ``chain`` runs
        the aggregation chain ``node`` heads in its place.  In an arena
        run the step writes into the output's storage, if it has any.
        A run on rings steps the node on its ring's block
        (:class:`_Rings`).
        """
        out = run.storage.get(node.outputs[0])
        operands = (operand,)
        on_ring = (
            run.rings.step(node, chain, run.values, out)
            if run.rings is not None and graph is None else None
        )
        if on_ring is not None:
            operands, graph, out = on_ring
        self._execute(
            node, run.values, run.argmax_needed,
            operands=operands, graph=graph, chain=chain, out=out,
        )
        if run.finishes:
            self._close(run, node, run.values)

    def _close(
        self, run: PlanRun, node: OpNode, values: MutableMapping[str, np.ndarray]
    ) -> None:
        """Node-boundary work — bf16 rounding, the finite check — on
        whole arrays or on one block's rows alike (both elementwise)."""
        if run.bf16_outputs and node.kind is not OpKind.VIEW:
            # Simulate bf16 storage: every produced value is rounded to
            # the bf16 grid at the node boundary (views alias
            # already-rounded storage).
            for o in node.outputs:
                if o in run.bf16_outputs and o in values:
                    values[o] = bf16_round(values[o])
        if self.check_finite:
            self._assert_finite(node, values)

    def _end_kernel(self, run: PlanRun, index: int) -> None:
        """Per-kernel epilogue: ledger upkeep, then the dead-value sweep."""
        run.ledger.after_kernel(index, run.values)
        if self.free_dead_values:
            self._sweep(
                run.plan, run.values, run.plan.liveness(), index, run.wanted
            )

    def verify_plan(
        self,
        plan: ExecPlan,
        arrays: Mapping[str, np.ndarray],
        *,
        rtol: float = 1e-6,
        atol: float = 1e-9,
    ) -> None:
        """Check a plan against the per-op reference execution.

        Runs ``plan`` and a freshly built per-op plan of the same module
        on the same inputs and raises ``AssertionError`` on any output
        divergence beyond the tolerances.  Cheap insurance when
        composing custom passes: fusion and recomputation must never
        change values.

        Thin shim over the static analyzer's RP701 differential checker
        (:func:`repro.analysis.differential.check_plan_equivalence`) —
        the dynamic completion of the "analyzer clean ⇒ verify_plan
        passes" contract — keeping the historical ``AssertionError``
        with the same message text.
        """
        from repro.analysis.differential import check_plan_equivalence

        diags = check_plan_equivalence(
            self, plan, arrays, rtol=rtol, atol=atol
        )
        if diags:
            raise AssertionError(diags[0].message)

    # ------------------------------------------------------------------
    def _execute(
        self,
        node: OpNode,
        values: MutableMapping[str, np.ndarray],
        argmax_needed: Set[str],
        *,
        operands: Sequence[Optional[np.ndarray]] = (),
        graph: Optional[Graph] = None,
        chain: Optional[AggregationChain] = None,
        out: Optional[np.ndarray] = None,
    ) -> None:
        """The one node dispatch: run ``node`` on ``values`` in place.

        ``operands`` overrides data inputs by position (``None`` keeps
        ``values[name]``); ``graph`` overrides the topology indexed.
        With ``chain``, ``node`` is its head and the inputs are the
        chain's operands: the whole chain is one product, or one
        scatter (a dot step).  ``out`` is the array an apply or scatter
        step writes its output into (see :meth:`_writes_in_place`).
        """
        ins = [values[n] for n in (chain.operands if chain else node.inputs)]
        for i, operand in enumerate(operands):
            if operand is not None:
                ins[i] = operand
        if graph is None:
            graph = self.graph
        params = [values[p][0] for p in node.params]
        if chain is not None and chain.scatter is None:
            values[node.outputs[0]] = aggregate(
                graph, *ins, orientation=node.orientation, mean=node.fn == "mean"
            )
        elif chain is not None or node.kind is OpKind.SCATTER:
            values[node.outputs[0]] = scatter_kernel(
                node.fn if chain is None else chain.scatter, graph, ins, out
            )
        elif node.kind is OpKind.GATHER:
            out, argmax = gather_kernel(
                node.fn,
                graph,
                ins[0],
                orientation=node.orientation,
                want_argmax=node.name in argmax_needed,
            )
            values[node.outputs[0]] = out
            if len(node.outputs) > 1 and argmax is not None:
                values[node.outputs[1]] = argmax
        elif node.kind is OpKind.APPLY:
            values[node.outputs[0]] = apply_kernel(
                node.fn, ins, params, node.attrs, out
            )
        elif node.kind is OpKind.VIEW:
            x = ins[0]
            values[node.outputs[0]] = x.reshape(
                (x.shape[0],) + tuple(node.attrs["out_shape"])
            )
        elif node.kind is OpKind.PARAM_GRAD:
            grad = param_grad_kernel(node.fn, ins, params, node.attrs)
            values[node.outputs[0]] = grad[None]
        else:  # pragma: no cover - kinds are closed
            raise AssertionError(f"unhandled kind {node.kind}")

    def _assert_finite(
        self, node: OpNode, values: Mapping[str, np.ndarray]
    ) -> None:
        for out in node.outputs:
            arr = values.get(out)
            if (
                arr is not None
                and np.issubdtype(arr.dtype, np.floating)
                and not np.isfinite(arr).all()
            ):
                bad = int((~np.isfinite(arr)).sum())
                raise FloatingPointError(
                    f"non-finite values ({bad} entries) produced by node "
                    f"{node.name!r} ({node.kind.value}:{node.fn})"
                )

    def _sweep(
        self,
        plan: ExecPlan,
        values: Dict[str, np.ndarray],
        lives: Liveness,
        kernel_index: int,
        wanted: Set[str],
    ) -> None:
        """Free arrays whose last consuming kernel has completed.

        Mirrors the ledger: boundary values die after their last
        consumer — ``lives.deaths``, the index the run's
        :class:`~repro.exec.memory.MemoryLedger` frees by — and
        kernel-internal values die with their kernel (on a GPU they
        never left on-chip storage at all).  Freeing is root-wise:
        popping a root while a view alias of it stays in ``values``
        would keep the storage alive (NumPy views hold a base
        reference), so every alias of a dead root is swept with it.
        """
        dead = set(plan.kernel_io(kernel_index).internal)
        dead.update(lives.deaths.get(kernel_index, ()))
        if dead:
            for name in list(values):
                if name not in wanted and plan.root_of(name) in dead:
                    del values[name]
