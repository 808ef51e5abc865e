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
kernels and ``MultiEngine`` shards still do.  Runs that round or inspect
at the node boundaries a chain removes — float16 / bfloat16 / int8
storage, ``check_finite`` — and backends with their own copy, multiply
or sum keep every node.

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
    Dict, List, Mapping, MutableMapping, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from repro.exec import backend_blocked
from repro.exec.kernel_registry import get_backend, resolve_kernel
from repro.exec.kernels import _gather_layout, aggregate
from repro.exec.memory import ArenaPool, MemoryLedger, MemoryPlan, StepMemoryPlan
from repro.exec.plan import (
    AggregationChain, BlockedKernel, ExecPlan, Kernel, Liveness,
)
from repro.graph.csr import Graph
from repro.ir.module import GRAPH_CONSTANTS, Module
from repro.ir.ops import OpKind, OpNode
from repro.ir.precision import bf16_round, simulate_storage
from repro.ir.tensorspec import LOGICAL_DTYPES, Domain, TensorSpec

__all__ = [
    "Engine", "PlanRun", "translate_argmax", "require_accounting_precision",
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
    pool: Optional[ArenaPool]
    finishes: bool              # any node-boundary work to do at all?
    chains: bool                # may aggregation chains run as one step?


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
        executes a plan one of them was built for, every boundary value
        lives inside that plan's arena (slab reuse included), which
        requires the engine precision to match the accounting dtype
        (:func:`require_accounting_precision`).  Returned results are
        copied out of the arena, so they stay valid across later runs
        that reuse the slabs.

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
        backend: str = "reference",
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
        #: Kernel backend bundle (see :mod:`repro.exec.kernel_registry`);
        #: aliases like ``"numpy"`` resolve to their canonical name.
        self._kernels = get_backend(backend)
        self.backend = self._kernels.name
        #: A chain stands in for these reference kernels (and a dot step
        #: runs as ``u_dot_v``), so chains run only when they are what
        #: the backend would call.
        self._chains = all(
            resolve_kernel(kind, fn, self.backend) is resolve_kernel(kind, fn)
            for kind, fn in (
                ("scatter", "copy_u"), ("scatter", "copy_v"), ("apply", "mul"),
                ("gather", "sum"), ("gather", "mean"),
                ("apply", "reduce_to_shape"), ("scatter", "u_dot_v"),
            )
        )
        self._pools: Dict[int, ArenaPool] = {}
        #: Live-byte high-watermark of the most recent :meth:`run_plan`.
        self.measured_peak_bytes: int = 0
        #: Live bytes still resident when that run finished.
        self.measured_end_bytes: int = 0
        #: Measured-execution hook: when set to a list, :meth:`run_plan`
        #: appends one ``(kernel_index, seconds)`` wall-clock sample per
        #: kernel it executes (see :mod:`repro.exec.measure`).
        self.kernel_timings: Optional[List[Tuple[int, float]]] = None

    # ------------------------------------------------------------------
    def _memory_plan_for(self, plan: ExecPlan) -> Optional[MemoryPlan]:
        """Resolve the configured memory plan matching ``plan``, if any."""
        configured = self.memory_plan
        if configured is None:
            return None
        phases = (
            configured.phases()
            if isinstance(configured, StepMemoryPlan)
            else [configured]
        )
        return next((mp for mp in phases if mp.plan is plan), None)

    def _pool_for(self, memory_plan: MemoryPlan) -> ArenaPool:
        pool = self._pools.get(id(memory_plan))
        if pool is None or pool.memory_plan is not memory_plan:
            pool = ArenaPool(memory_plan)
            self._pools[id(memory_plan)] = pool
        return pool

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
    ) -> Dict[str, np.ndarray]:
        """Execute ``plan``; return outputs plus keep-set values.

        ``env`` must hold every module input/param (see :meth:`bind`).
        The returned dict contains the module outputs and every value in
        the plan's keep set (the training stash), unwrapped to natural
        shapes when ``unwrap``.
        """
        run = self._begin(plan, env)
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
            if run.pool is not None and run.pool.slab_for(plan.root_of(name)):
                # Returned values leave the arena: a later run reuses
                # the slabs, which must never mutate results a caller
                # still holds.
                arr = np.array(arr)
            result[name] = self.unwrap(specs[name], arr) if unwrap else arr
        return result

    # ------------------------------------------------------------------
    # The pieces of a run: set-up, per-kernel entry (node by node, or
    # one blocked walk), per-node step, per-kernel epilogue.
    # ``run_plan`` strings them together for one graph; ``MultiEngine``
    # drives set-up, step and epilogue on one Engine per shard.
    # ------------------------------------------------------------------
    def _begin(
        self, plan: ExecPlan, env: Mapping[str, np.ndarray]
    ) -> PlanRun:
        """Set-up: result order, argmax demand, ledger, arena, bf16 set."""
        module = plan.module
        values: Dict[str, np.ndarray] = dict(env)
        wanted = dict.fromkeys(plan.result_names())

        #: Storage dtypes this run simulates (a float64 engine casts
        #: every float and simulates none).
        storage = (
            {s.dtype for s in module.specs.values()} if self._spec_driven else set()
        )
        memory_plan = self._memory_plan_for(plan)
        if memory_plan is not None:
            logical = sorted(storage.intersection(LOGICAL_DTYPES))
            if logical:
                # Logical dtypes are *simulated* in float32 arrays, which
                # do not fit the (honestly sized) logical-byte slabs.
                raise ValueError(
                    f"arena-backed execution does not support logical "
                    f"dtypes {logical}: slabs are sized for storage bytes "
                    "but the simulation materialises float32; run without "
                    "a memory plan (fp32/fp16 plans remain arena-backed)"
                )
        pool = self._pool_for(memory_plan) if memory_plan is not None else None
        ledger = MemoryLedger(
            plan,
            pinned=memory_plan.pinned if memory_plan is not None else (),
        )
        ledger.bind(values)
        if pool is not None:
            # Unpinned module inputs (e.g. the stash a backward plan
            # consumes) live in the arena too: copy them into slabs so
            # their storage is released by reuse, not by the GC.
            for name in list(module.inputs) + list(module.params):
                if name in values and pool.slab_for(plan.root_of(name)):
                    values[name] = pool.adopt(plan.root_of(name), values[name])

        bf16_outputs: Set[str] = (
            {n for n, s in module.specs.items() if s.dtype == "bfloat16"}
            if "bfloat16" in storage
            else set()
        )
        return PlanRun(
            plan=plan,
            values=values,
            wanted=wanted,
            argmax_needed=plan.argmax_demand(),
            ledger=ledger,
            bf16_outputs=bf16_outputs,
            pool=pool,
            finishes=bool(bf16_outputs) or pool is not None or self.check_finite,
            # A chain removes node boundaries: nothing may round there
            # (narrow storage) or look there (the finite check, whose
            # diagnostic names the first offending node).
            chains=self._chains and not self.check_finite
            and storage.isdisjoint(("float16", *LOGICAL_DTYPES)),
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
        blocked = run.plan.blocked(index, run.chains)
        if blocked is not None:
            rows_per_block = backend_blocked.BLOCK_BYTES // (
                blocked.row_elements * self.precision.itemsize
            )
            if self.graph.num_edges > rows_per_block:
                self._run_nodes(run, blocked.pre, chains)
                self._walk(run, blocked, rows_per_block)
                self._run_nodes(run, blocked.post, chains)
                return
        self._run_nodes(run, kernel.nodes, chains)

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
        finite check are elementwise); arena adoption waits for the
        assembled arrays.
        """
        graph, whole = self.graph, run.values
        orientation = blocked.orientation
        indptr, _ = _gather_layout(graph, orientation)
        spilled: Dict[str, np.ndarray] = {}
        for lo, hi, _, _ in backend_blocked.segment_blocks(indptr, rows_per_block):
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
                        rows = graph.num_edges if by_edge else graph.num_vertices
                        out = spilled[name] = np.empty(
                            (rows,) + chunk.shape[1:], dtype=chunk.dtype
                        )
                    if by_edge:
                        out[block.eids] = chunk
                    else:
                        out[lo:hi] = chunk
                for name in step.dead:
                    del local[name]
        whole.update(spilled)
        if run.pool is not None:
            self._adopt(run, spilled)

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
        the aggregation chain ``node`` heads in its place.
        """
        self._execute(
            node, run.values, run.argmax_needed,
            operands=(operand,), graph=graph, chain=chain,
        )
        if run.finishes:
            self._finish(run, node)

    def _finish(self, run: PlanRun, node: OpNode) -> None:
        """Node-boundary work: bf16 rounding, finite check, arena adoption."""
        self._close(run, node, run.values)
        if run.pool is not None and node.kind is not OpKind.VIEW:
            # Escaping writes are adopted before any view of them is
            # minted, so aliases are arena-backed too.
            self._adopt(run, node.outputs)

    def _close(
        self, run: PlanRun, node: OpNode, values: MutableMapping[str, np.ndarray]
    ) -> None:
        """The elementwise half of a node boundary, on whole arrays or
        on one block's rows alike."""
        if run.bf16_outputs and node.kind is not OpKind.VIEW:
            # Simulate bf16 storage: every produced value is rounded to
            # the bf16 grid at the node boundary (views alias
            # already-rounded storage).
            for o in node.outputs:
                if o in run.bf16_outputs and o in values:
                    values[o] = bf16_round(values[o])
        if self.check_finite:
            self._assert_finite(node, values)

    @staticmethod
    def _adopt(run: PlanRun, names: Sequence[str]) -> None:
        """Move the named values that own an arena slab into it."""
        values = run.values
        for o in names:
            if o in values and run.pool.slab_for(o):
                values[o] = run.pool.adopt(o, values[o])

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
    ) -> None:
        """The one node dispatch: run ``node`` on ``values`` in place.

        ``operands`` overrides data inputs by position (``None`` keeps
        ``values[name]``); ``graph`` overrides the topology indexed.
        With ``chain``, ``node`` is its head and the inputs are the
        chain's operands: the whole chain is one product, or one
        scatter (a dot step).
        """
        ins = [values[n] for n in (chain.operands if chain else node.inputs)]
        for i, operand in enumerate(operands):
            if operand is not None:
                ins[i] = operand
        if graph is None:
            graph = self.graph
        params = [values[p][0] for p in node.params]
        kernels = self._kernels
        if chain is not None and chain.scatter is None:
            values[node.outputs[0]] = aggregate(
                graph, *ins, orientation=node.orientation, mean=node.fn == "mean"
            )
        elif chain is not None or node.kind is OpKind.SCATTER:
            values[node.outputs[0]] = kernels.scatter(
                node.fn if chain is None else chain.scatter, graph, ins
            )
        elif node.kind is OpKind.GATHER:
            out, argmax = kernels.gather(
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
            values[node.outputs[0]] = kernels.apply(node.fn, ins, params, node.attrs)
        elif node.kind is OpKind.VIEW:
            x = ins[0]
            values[node.outputs[0]] = x.reshape(
                (x.shape[0],) + tuple(node.attrs["out_shape"])
            )
        elif node.kind is OpKind.PARAM_GRAD:
            grad = kernels.param_grad(node.fn, ins, params, node.attrs)
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
