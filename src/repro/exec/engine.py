"""Concrete plan interpreter over NumPy kernels.

The engine executes an :class:`~repro.exec.plan.ExecPlan` on a real
:class:`~repro.graph.csr.Graph`.  Results are independent of the plan's
kernel partitioning and stash policy — fusion and recomputation are
*accounting* transformations — which the test suite exploits: every
optimized configuration must reproduce the per-op baseline bit for bit
(up to float associativity).

Array conventions (see :mod:`repro.exec.kernels`): callers provide
vertex/edge tensors with their natural leading row axis and parameters
in natural shape; the engine wraps PARAM/DENSE values with a leading
1-axis internally and unwraps them on return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, MutableMapping, Optional, Set, Tuple

import numpy as np

from repro.exec.kernel_registry import get_backend
from repro.exec.memory import ArenaPool, MemoryLedger, MemoryPlan, StepMemoryPlan
from repro.exec.plan import ExecPlan
from repro.graph.csr import Graph
from repro.ir.module import GRAPH_CONSTANTS, Module
from repro.ir.ops import OpKind, OpNode
from repro.ir.precision import bf16_round, simulate_storage
from repro.ir.tensorspec import LOGICAL_DTYPES, Domain, TensorSpec

__all__ = ["Engine", "PlanRun", "argmax_demand", "result_names"]


def argmax_demand(module: Module, wanted: Set[str]) -> Set[str]:
    """Gather(max) nodes whose argmax output is actually consumed."""
    consumers = module.consumer_map()
    demand = set()
    for node in module.nodes:
        if node.kind is OpKind.GATHER and node.fn == "max":
            aux = node.outputs[1]
            if consumers.get(aux) or aux in wanted:
                demand.add(node.name)
    return demand


def result_names(plan: ExecPlan) -> List[str]:
    """What a run returns, in order: module outputs, then the keep set
    in module definition order (never in set order, which follows
    ``PYTHONHASHSEED``)."""
    module = plan.module
    defined = list(module.inputs) + list(module.params)
    defined += [o for node in module.nodes for o in node.outputs]
    position = {name: i for i, name in enumerate(defined)}
    names = list(dict.fromkeys(module.outputs))
    return names + sorted(set(plan.keep) - set(names), key=position.__getitem__)


@dataclass
class PlanRun:
    """State of one plan execution: :meth:`Engine._begin` decides it,
    the per-node step and the per-kernel epilogue read it.  A
    partitioned run (:class:`~repro.exec.multi.MultiEngine`) holds one
    per shard."""

    plan: ExecPlan
    values: MutableMapping[str, np.ndarray]
    wanted: Dict[str, None]     # result_names(plan), as an ordered set
    argmax_needed: Set[str]
    ledger: MemoryLedger
    bf16_outputs: Set[str]      # empty unless the engine is spec-driven
    pool: Optional[ArenaPool]
    finishes: bool              # any node-boundary work to do at all?


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
        Optional arena plan(s) from :func:`repro.exec.memory.plan_memory`
        — a single :class:`~repro.exec.memory.MemoryPlan`, a
        :class:`~repro.exec.memory.StepMemoryPlan`, a mapping, or a
        sequence.  When :meth:`run_plan` executes a plan one of them was
        built for, every boundary value lives inside that plan's arena
        (slab reuse included), which requires the engine precision to
        match the accounting dtype (float32).  Returned results are
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
        memory_plan: Optional[object] = None,
        backend: str = "reference",
    ):
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
        def candidates(obj):
            if obj is None:
                return
            if isinstance(obj, MemoryPlan):
                yield obj
            elif isinstance(obj, StepMemoryPlan):
                yield from obj.phases()
            elif isinstance(obj, Mapping):
                for v in obj.values():
                    yield from candidates(v)
            else:  # sequence of plans
                for v in obj:
                    yield from candidates(v)

        for mp in candidates(self.memory_plan):
            if mp.plan is plan:
                return mp
        return None

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
            for node in kernel.nodes:
                self._step(run, node)
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
    # The three pieces of a run: set-up, per-node step, per-kernel
    # epilogue.  ``run_plan`` strings them together for one graph;
    # ``MultiEngine`` drives the same pieces on one Engine per shard.
    # ------------------------------------------------------------------
    def _begin(
        self, plan: ExecPlan, env: Mapping[str, np.ndarray]
    ) -> PlanRun:
        """Set-up: result order, argmax demand, ledger, arena, bf16 set."""
        module = plan.module
        values: Dict[str, np.ndarray] = dict(env)
        wanted = dict.fromkeys(result_names(plan))

        memory_plan = self._memory_plan_for(plan)
        if memory_plan is not None and self._spec_driven:
            logical = sorted(
                {s.dtype for s in module.specs.values() if s.dtype in LOGICAL_DTYPES}
            )
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
            if self._spec_driven
            else set()
        )
        return PlanRun(
            plan=plan,
            values=values,
            wanted=wanted,
            argmax_needed=argmax_demand(module, wanted),
            ledger=ledger,
            bf16_outputs=bf16_outputs,
            pool=pool,
            finishes=bool(bf16_outputs) or pool is not None or self.check_finite,
        )

    def _step(
        self,
        run: PlanRun,
        node: OpNode,
        *,
        operand: Optional[np.ndarray] = None,
        graph: Optional[Graph] = None,
    ) -> None:
        """Run one node into ``run.values`` and close its boundary.

        ``operand``/``graph`` override the node's first input and the
        topology it indexes — what a partitioned run hands a SCATTER
        (owned rows ++ fetched ghost rows) or an out-orientation GATHER
        (fetched edge rows over the shard's out-graph).
        """
        self._execute(
            node, run.values, run.argmax_needed, operand=operand, graph=graph
        )
        if run.finishes:
            self._finish(run, node)

    def _finish(self, run: PlanRun, node: OpNode) -> None:
        """Node-boundary work: bf16 rounding, arena adoption, finite check."""
        values = run.values
        if node.kind is not OpKind.VIEW:
            if run.bf16_outputs:
                # Simulate bf16 storage: every produced value is
                # rounded to the bf16 grid at the node boundary
                # (views alias already-rounded storage).
                for o in node.outputs:
                    if o in run.bf16_outputs and o in values:
                        values[o] = bf16_round(values[o])
            if run.pool is not None:
                # Escaping writes are adopted before any view of
                # them is minted, so aliases are arena-backed too.
                for o in node.outputs:
                    if o in values and run.pool.slab_for(o):
                        values[o] = run.pool.adopt(o, values[o])
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
        operand: Optional[np.ndarray] = None,
        graph: Optional[Graph] = None,
    ) -> None:
        """The one node dispatch: run ``node`` on ``values`` in place."""
        ins = [values[n] for n in node.inputs]
        if operand is not None:
            ins[0] = operand
        if graph is None:
            graph = self.graph
        params = [values[p][0] for p in node.params]
        kernels = self._kernels
        if node.kind is OpKind.SCATTER:
            values[node.outputs[0]] = kernels.scatter(node.fn, graph, ins)
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
        lives: Dict[str, tuple],
        kernel_index: int,
        wanted: Set[str],
    ) -> None:
        """Free arrays whose last consuming kernel has completed.

        Mirrors the analytic ledger: boundary values die after their
        last consumer, kernel-internal values die with their kernel
        (on a GPU they never left on-chip storage at all).  Freeing is
        root-wise: popping a root while a view alias of it stays in
        ``values`` would keep the storage alive (NumPy views hold a
        base reference), so every alias of a dead root is swept with
        it.
        """
        internal = set(plan.kernel_io(kernel_index).internal)
        dead: Set[str] = set()
        for name in list(values):
            root = plan.root_of(name)
            if name in wanted or root in wanted:
                continue
            if root in internal:
                dead.add(root)
                continue
            life = lives.get(root)
            if life is not None and life[1] == kernel_index:
                dead.add(root)
        if dead:
            for name in list(values):
                if name not in wanted and plan.root_of(name) in dead:
                    values.pop(name, None)
