"""Concrete plan interpreter over NumPy kernels.

The engine executes an :class:`~repro.exec.plan.ExecPlan` on a real
:class:`~repro.graph.csr.Graph`.  Results are independent of the plan's
kernel partitioning and stash policy — fusion and recomputation never
change a computed value — which the test suite exploits: every
optimized configuration must reproduce the per-op baseline bit for bit
(up to float associativity).

A plan runs as a *program*, lowered once per run configuration
(:meth:`Engine._program`) into one :class:`BoundStep` per node that
executes — its resolved kernel, operand and output slots and
node-boundary work — and cached with the plan, so the fresh engine each
sampled batch builds runs the same program.  Values live in a slot
list; names appear only at binding, at the caller's storage and at the
result boundary.  Every step runs through one call,
:meth:`Engine._dispatch`.

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
(:meth:`Engine._walk`, :meth:`ExecPlan.blocked`); a chain inside
such a kernel is one of the walk's steps.  Internal values never enter
the run's value table — the host-side meaning of "internal values live
on chip".  Both keep each segment's ``+0.0``-then-left-to-right order in
CSC/CSR edge order, so they are bit-identical to running the same kernel
node by node (a weighted chain: wherever scipy's compiled CSR loop
rounds ``w * x`` before adding it — README clause 1d), which is what per-op
kernels still do.  ``MultiEngine`` shards step through the same bound
steps and never walk; they take every chain, an out-edge aggregation
over the shard's out-graph.  Runs that round or inspect
at the node boundaries a chain removes — float16 / bfloat16 / int8
storage, ``check_finite`` — keep every node.

A caller that reads only some output rows — a serving batch reads its
seeds' — passes each vertex's hop distance from them
(``run_plan(distance=)``, non-decreasing: the field is laid out hop by
hop) and every node then computes only the ring of the field its
readers need (:meth:`ExecPlan.rings`, :func:`~repro.exec.rings.ring_step`),
a prefix of its rows: the read rows come out bit for bit as in the
whole-field run.  A run supplies the ring sizes and cuts each ring's
block once; the rest is lowered with the program.

Array conventions (see :mod:`repro.exec.kernels`): callers provide
vertex/edge tensors with their natural leading row axis and parameters
in natural shape; the engine wraps PARAM/DENSE values with a leading
1-axis internally and unwraps them on return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
    Set, Tuple, Union,
)

import numpy as np

from repro.exec import blocks
from repro.exec.kernels import aggregate, resolve_kernel, writes_out
from repro.exec.memory import (
    ArenaPool, MemoryLedger, MemoryPlan, StepMemoryPlan, pack,
)
from repro.exec.plan import AggregationChain, BlockedKernel, ExecPlan
from repro.exec.rings import WHOLE, RingStep, ring_step
from repro.graph.csr import Graph
from repro.ir.module import GRAPH_CONSTANTS, Module
from repro.ir.ops import OpKind, OpNode
from repro.ir.precision import bf16_round, simulate_storage
from repro.ir.tensorspec import LOGICAL_DTYPES, Domain, TensorSpec

__all__ = [
    "Engine", "PlanRun", "BoundStep", "translate_argmax",
    "require_accounting_precision", "require_arena_dtypes",
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


# ----------------------------------------------------------------------
# The bound program
# ----------------------------------------------------------------------
#: A resolved kernel: ``(graph, operands, params, out) -> value``, or
#: ``(value, argmax)`` for a gather(max) whose argmax is demanded.
Kernel = Callable[..., object]


@dataclass(frozen=True)
class BoundStep:
    """One node (or the chain it heads) resolved for execution."""

    node: OpNode
    chain: Optional[AggregationChain]
    kernel: Kernel
    #: Slots of the data operands (a chain's: its operands) and params.
    ins: Tuple[int, ...]
    params: Tuple[int, ...]
    #: Slot of the value output, and of the argmax a demanded
    #: gather(max) mints (``None`` otherwise).
    out: int
    argmax: Optional[int]
    #: Does the kernel write into an array it is handed (its kernel
    #: takes ``out`` and every operand has the output's dtype)?
    in_place: bool
    #: Output slots rounded to the bfloat16 grid at the node boundary.
    bf16: Tuple[int, ...]
    #: Is the node boundary closed at all (bf16 rounding, finite check)?
    finishes: bool
    #: Where the step runs in a ring run (``None``: as if no rings).
    ring: Optional[RingStep] = None
    #: Feature shape of an output a whole-row reader reads past its
    #: ring: the step writes it into a zeroed every-row buffer.
    widen: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class BoundWalk:
    """A blocked kernel's walk (:class:`~repro.exec.plan.BlockedKernel`)
    over slots: ``pre`` and ``post`` run whole, each of ``steps`` once
    per block of home rows as ``(step, far, spill, dead)`` — operand
    positions read from the whole arrays, ``(slot, by_edge)`` outputs
    assembled into whole arrays, block-local slots dropped after it."""

    blocked: BlockedKernel
    #: The walk runs when the graph's edges exceed one block of rows.
    rows_per_block: int
    pre: Tuple[BoundStep, ...]
    steps: Tuple[Tuple[BoundStep, FrozenSet[int], tuple, Tuple[int, ...]], ...]
    post: Tuple[BoundStep, ...]
    home_rows: Tuple[int, ...]
    edge_rows: Tuple[int, ...]


@dataclass(frozen=True)
class BoundKernel:
    """One kernel of a program: its steps node by node, its walk (when
    the plan classifies it as blocked and no ring touches it), and its
    epilogue — the writes the ledger charges and the slots freed once it
    has run."""

    index: int
    steps: Tuple[BoundStep, ...]
    walk: Optional[BoundWalk]
    #: The slots of the kernel's escaping writes, and their roots.
    writes: Tuple[int, ...]
    roots: Tuple[str, ...]
    frees: Tuple[int, ...]


@dataclass(frozen=True)
class Program:
    """A plan lowered for one run configuration (see :meth:`Engine._program`)."""

    #: Value name → slot, and slot → name.
    slots: Mapping[str, int]
    names: Tuple[str, ...]
    #: ``(name, slot)`` of the module inputs and params, and
    #: ``(name, slot, boxed)`` of the results in
    #: :meth:`ExecPlan.result_names` order (``boxed``: a PARAM/DENSE
    #: value, held with a leading 1-axis).
    inputs: Tuple[Tuple[str, int], ...]
    results: Tuple[Tuple[str, int, bool], ...]
    kernels: Tuple[BoundKernel, ...]
    #: Node name → its step (nodes a taken chain stands in for: none).
    step_of: Mapping[str, BoundStep]
    #: The ``RingStep.block`` keys of the row blocks a ring run cuts,
    #: once per run.
    blocks: Tuple[Tuple, ...] = ()
    #: The ring map it was lowered for (keeps the cache key's id live).
    depth: Optional[Mapping[str, int]] = None


def _bind_kernel(node: OpNode, chain: Optional[AggregationChain], argmax: bool) -> Kernel:
    """Resolve the kernel of ``node`` — or of the chain it heads — once.

    The one place the engine looks up a kernel: a chain is one product
    (:func:`~repro.exec.kernels.aggregate`) or one scatter (a dot
    step); every other node is its ``(kind, fn)`` entry of the kernel
    table.  A bound kernel takes ``(graph, operands, params, out)``.
    """
    if chain is not None and chain.scatter is None:
        orientation, mean = node.orientation, node.fn == "mean"
        return lambda graph, ins, params, out: aggregate(
            graph, *ins, orientation=orientation, mean=mean
        )
    attrs = node.attrs
    if chain is not None or node.kind is OpKind.SCATTER:
        scatter = resolve_kernel("scatter", node.fn if chain is None else chain.scatter)
        return lambda graph, ins, params, out: (
            scatter(graph, ins) if out is None else scatter(graph, ins, out=out)
        )
    if node.kind is OpKind.GATHER:
        gather, orientation = resolve_kernel("gather", node.fn), node.orientation
        if argmax:
            return lambda graph, ins, params, out: gather(graph, ins[0], orientation, True)
        return lambda graph, ins, params, out: gather(graph, ins[0], orientation, False)[0]
    if node.kind is OpKind.APPLY:
        apply = resolve_kernel("apply", node.fn)
        return lambda graph, ins, params, out: (
            apply(ins, params, attrs) if out is None
            else apply(ins, params, attrs, out=out)
        )
    if node.kind is OpKind.VIEW:
        shape = tuple(attrs["out_shape"])
        return lambda graph, ins, params, out: ins[0].reshape((ins[0].shape[0],) + shape)
    if node.kind is OpKind.PARAM_GRAD:
        param_grad = resolve_kernel("param_grad", node.fn)
        return lambda graph, ins, params, out: param_grad(ins, params, attrs)[None]
    raise AssertionError(f"unhandled kind {node.kind}")  # pragma: no cover


def _every_chain(
    plan: ExecPlan, index: int
) -> Tuple[Dict[str, AggregationChain], Set[str]]:
    """An engine's chains of kernel ``index``: every one, by head name,
    and the interior nodes that therefore never run."""
    found = plan.chains(index)
    taken = {c.head.name: c for c in found.values()}
    return taken, {name for name in found if name not in taken}


@dataclass
class PlanRun:
    """State of one program execution: :meth:`Engine._begin` sets it
    up, the steps and the per-kernel epilogue read it.  A partitioned
    run (:class:`~repro.exec.multi.MultiEngine`) holds one per shard."""

    program: Program
    values: List[Optional[np.ndarray]]
    ledger: MemoryLedger
    #: Slot → the array its step writes into (arena runs).
    storage: Mapping[int, np.ndarray]
    #: Result name → storage the caller holds it in (``run_plan``'s ``out``).
    held: Mapping[str, np.ndarray]
    #: A ring run's blocks, by :attr:`Program.blocks` key.
    blocks: Mapping[Tuple, object] = field(default_factory=dict)
    #: Slot → the value on every row, ``+0.0`` past its ring (built
    #: once per run: PARAM_GRADs share operands).
    wide: Dict[int, np.ndarray] = field(default_factory=dict)


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
        in-place path (the CSR product behind every segment sum)
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
        program = self._program(plan)
        names = program.names
        results = {plan.root_of(n) for n in plan.result_names()}
        # One time axis for slabs and steps: kernel k's steps are
        # k * S + (0 .. S - 1).
        S = 1 + max((len(kernel.nodes) for kernel in plan.kernels), default=0)
        writers: Set[str] = set()
        values: List[Tuple[str, int, int, int]] = []
        for index, kernel in enumerate(program.kernels):
            internal = set(plan.kernel_io(index).internal)
            walk = kernel.walk
            if walk is None or E <= walk.rows_per_block:
                walk, steps = None, kernel.steps
            else:
                steps = walk.pre + walk.post
                writers.update(names[s] for _, _, spill, _ in walk.steps for s, _ in spill)
            lives: Dict[str, List[int]] = {}
            for pos, step in enumerate(steps):
                for slot in step.ins + step.params:
                    root = plan.root_of(names[slot])
                    if root in lives:
                        lives[root][1] = index * S + pos
                if step.in_place:
                    name = names[step.out]
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
            kind, fn = "scatter", chain.scatter   # None: the CSR product
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

    def _takes_chains(self, module: Module) -> bool:
        """May aggregation chains run as one step in a run of ``module``?

        A chain removes node boundaries: nothing may round there
        (narrow storage, which a float64 engine does not simulate) or
        look there (the finite check, whose diagnostic names the first
        offending node).
        """
        return not self.check_finite and (not self._spec_driven or all(
            s.dtype not in ("float16", *LOGICAL_DTYPES) for s in module.specs.values()
        ))

    # ------------------------------------------------------------------
    # Lowering: a plan to a program, once per run configuration
    # ------------------------------------------------------------------
    #: Which chains a run takes, ``(plan, index) -> (chains by head
    #: name, nodes that never run)``: every one.  A test oracle may take
    #: none (``tests.helpers.per_node_multi_engine``).
    _chain_choice = staticmethod(_every_chain)

    def _program(
        self,
        plan: ExecPlan,
        depth: Optional[Mapping[str, int]] = None,
        widens: bool = False,
        top: int = 0,
    ) -> Program:
        """The program ``plan`` runs as under this engine's settings.

        Lowered on first use per configuration — precision, whether dead
        values are freed, ``check_finite``, the chain choice,
        ``BLOCK_BYTES``, and for a ring run the ring map (``depth``,
        whether its readers widen, and the field's deepest hop ``top``)
        — and cached with the plan, so every engine running it shares
        it: a setting changed between runs picks a program of its own,
        never a stale one.
        """
        key = (
            self.precision, self.free_dead_values, self.check_finite,
            self._chain_choice, blocks.BLOCK_BYTES,
            None if depth is None else (id(depth), widens, top),
        )
        program = plan.programs.get(key)
        if program is None:
            program = plan.programs[key] = self._lower(plan, depth, widens, top)
        return program

    def _lower(
        self,
        plan: ExecPlan,
        depth: Optional[Mapping[str, int]],
        widens: bool,
        top: int,
    ) -> Program:
        """Lower ``plan`` into a :class:`Program` (see :meth:`_program`).

        Chains are taken when the run may take any (:meth:`_takes_chains`),
        as :attr:`_chain_choice` picks them; a kernel walks only under
        the engine's own choice (every chain), the one the plan
        classifies walks by.  A ring run's steps carry the
        :func:`~repro.exec.rings.ring_step` of ``depth`` on a field
        ``top`` hops deep: a value is held on its ring when that ring
        lies inside the field, else on every row.  A lone plan's map
        (``widens`` unset) is handed its inputs whole.
        """
        module, specs = plan.module, plan.module.specs
        choice = self._chain_choice if self._takes_chains(module) else None
        given = [*module.inputs, *module.params]
        names = tuple(dict.fromkeys(
            given + [o for node in module.nodes for o in node.outputs]
        ))
        slots = {name: slot for slot, name in enumerate(names)}
        demand = plan.argmax_demand()
        bf16 = self._spec_driven and any(s.dtype == "bfloat16" for s in specs.values())
        runs = []  # per kernel: the nodes that run, with the chain each heads
        for index, kernel in enumerate(plan.kernels):
            taken, skipped = choice(plan, index) if choice else ({}, ())
            runs.append([(n, taken.get(n.name)) for n in kernel.nodes if n.name not in skipped])

        held, recipes, widened = None, {}, set()
        if depth is not None:
            bound = frozenset() if widens else frozenset(given)

            def held(name: str) -> Optional[int]:
                ring = WHOLE if name in bound else depth.get(name, WHOLE)
                return ring if ring < top else None

            for node, chain in (pair for nodes in runs for pair in nodes):
                operands = chain.operands if chain else node.inputs
                recipe = recipes[node.name] = ring_step(
                    node, operands, chain is not None, held, specs, widens
                )
                if recipe is not None and recipe.block is None:
                    widened.update(operands[i] for i, _, _ in recipe.cuts)

        step_of: Dict[str, BoundStep] = {}
        for node, chain in (pair for nodes in runs for pair in nodes):
            argmax = node.name in demand and len(node.outputs) > 1
            rounded = tuple(
                slots[o] for o in node.outputs if specs[o].dtype == "bfloat16"
            ) if bf16 and node.kind is not OpKind.VIEW else ()
            in_place = self._writes_in_place(node, chain, specs)
            recipe, out = recipes.get(node.name), node.outputs[0]
            step_of[node.name] = BoundStep(
                node=node,
                chain=chain,
                kernel=_bind_kernel(node, chain, argmax),
                ins=tuple(slots[n] for n in (chain.operands if chain else node.inputs)),
                params=tuple(slots[p] for p in node.params),
                out=slots[out],
                argmax=slots[node.outputs[1]] if argmax else None,
                in_place=in_place,
                bf16=rounded,
                finishes=bool(rounded) or self.check_finite,
                ring=recipe,
                # A value a whole-row reader reads past its ring is
                # written into a zeroed every-row buffer by its own step.
                widen=specs[out].feat_shape if (
                    out in widened and in_place and not rounded
                    and recipe.block is not None and specs[out].domain is Domain.VERTEX
                ) else None,
            )

        lives, results = plan.liveness(), set(plan.result_names())
        kernels: List[BoundKernel] = []
        for index, kernel in enumerate(plan.kernels):
            blocked = plan.blocked(index, choice is not None)
            walk = None
            # A ring's kernel runs node by node.
            if blocked is not None and choice in (None, _every_chain) and not (
                held and any(
                    held(name) is not None
                    for node in kernel.nodes for name in (node.name, *node.inputs)
                )
            ):
                walk = BoundWalk(
                    blocked=blocked,
                    rows_per_block=blocks.BLOCK_BYTES // (
                        blocked.row_elements * self.precision.itemsize
                    ),
                    pre=tuple(step_of[n.name] for n in blocked.pre),
                    steps=tuple(
                        (
                            step_of[s.node.name],
                            frozenset(i for i, whole in enumerate(s.whole) if whole),
                            tuple((slots[n], by_edge) for n, by_edge in s.spill),
                            tuple(slots[n] for n in s.dead),
                        )
                        for s in blocked.steps
                    ),
                    post=tuple(step_of[n.name] for n in blocked.post),
                    home_rows=tuple(slots[n] for n in blocked.home_rows),
                    edge_rows=tuple(slots[n] for n in blocked.edge_rows),
                )
            io = plan.kernel_io(index)
            # Freeing is root-wise: a view alias left behind would keep
            # its dead root's storage alive.
            dead = set(io.internal).union(lives.deaths.get(index, ()))
            kernels.append(BoundKernel(
                index=index,
                steps=tuple(step_of[node.name] for node, _ in runs[index]),
                walk=walk,
                writes=tuple(slots[w] for w in io.writes),
                roots=tuple(plan.root_of(w) for w in io.writes),
                frees=tuple(
                    slot for name, slot in slots.items()
                    if name not in results and plan.root_of(name) in dead
                ) if self.free_dead_values else (),
            ))
        return Program(
            slots=slots,
            names=names,
            inputs=tuple((name, slots[name]) for name in given),
            results=tuple(
                (name, slots[name], specs[name].domain in (Domain.PARAM, Domain.DENSE))
                for name in plan.result_names()
            ),
            kernels=tuple(kernels),
            step_of=step_of,
            blocks=tuple(dict.fromkeys(
                step.ring.block for step in step_of.values()
                if step.ring is not None and step.ring.block is not None
            )),
            depth=depth,
        )

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
        if arr.dtype.kind == "f":
            if not self._spec_driven:
                arr = arr.astype(self.precision, copy=False)
            elif spec.dtype in LOGICAL_DTYPES or arr.dtype != spec.dtype:
                arr = simulate_storage(spec, arr)  # else already as stored
        if spec.domain in (Domain.PARAM, Domain.DENSE):
            if arr.shape == spec.feat_shape:
                arr = arr[None]
            elif arr.shape != (1,) + spec.feat_shape:
                raise ValueError(
                    f"{name!r}: expected shape {spec.feat_shape}, got {arr.shape}"
                )
            return arr
        expected_rows = spec.rows(self.graph.num_vertices, self.graph.num_edges)
        if arr.shape != (expected_rows,) + spec.feat_shape:
            raise ValueError(
                f"{name!r}: expected shape {(expected_rows,) + spec.feat_shape}, "
                f"got {arr.shape}"
            )
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
        :func:`~repro.exec.rings.ring_step`).  A vertex output read at
        ring 0 then holds the distance-0 rows only, bit for bit the
        whole-field run's; keep-set results are whole and exact
        everywhere.

        ``rings`` replaces :meth:`ExecPlan.rings` as the map a run with
        ``distance`` computes on: a training step's
        (:func:`~repro.exec.rings.training_rings`), under which the
        keep set comes back on the rings the backward reads, ``env``
        holds each input on the ring the map gives it, and gradients
        are computed on their support.
        """
        run = self._begin(plan, env, out, distance, rings)
        timings = self.kernel_timings
        edges = self.graph.num_edges
        for kernel in run.program.kernels:
            if timings is not None:
                t0 = time.perf_counter()
            # A kernel the plan classifies as blocked runs as one walk,
            # unless the graph's edges fit a single block anyway; either
            # way a chain is one step at its gather.
            walk = kernel.walk
            if walk is None or edges <= walk.rows_per_block:
                for step in kernel.steps:
                    self._run_step(run, step)
            else:
                self._walk(run, walk)
            if timings is not None:
                timings.append((kernel.index, time.perf_counter() - t0))
            self._end_kernel(run, kernel)
        self.measured_peak_bytes = run.ledger.peak_bytes
        self.measured_end_bytes = run.ledger.current_bytes

        values = run.values
        result: Dict[str, np.ndarray] = {}
        for name, slot, boxed in run.program.results:
            arr = values[slot]
            held = run.held.get(name)
            if held is not None and arr is not held:
                np.copyto(held, arr)
                arr = held
            result[name] = arr[0] if boxed and unwrap else arr
        return result

    # ------------------------------------------------------------------
    # The pieces of a run: set-up, per-kernel entry (step by step, or
    # one blocked walk), per-step entry, per-kernel epilogue.
    # ``run_plan`` strings them together for one graph; ``MultiEngine``
    # drives set-up, steps and epilogue on one Engine per shard.
    # ------------------------------------------------------------------
    def _begin(
        self,
        plan: ExecPlan,
        env: Mapping[str, np.ndarray],
        out: Optional[Mapping[str, np.ndarray]] = None,
        distance: Optional[np.ndarray] = None,
        depth: Optional[Mapping[str, int]] = None,
    ) -> PlanRun:
        """Set-up: the program, the slot list, ledger, arena storage and,
        for a ring run, the ring blocks."""
        top = 0
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
            top = int(distance[-1]) if distance.size else 0
        if top > 0:
            program = self._program(
                plan, plan.rings() if depth is None else depth, depth is not None, top
            )
        else:
            program = self._program(plan)
        values: List[Optional[np.ndarray]] = [None] * len(program.names)
        for name, slot in program.inputs:
            values[slot] = env[name]

        memory_plan = self._memory_plan_for(plan)
        storage, held = {}, {}
        if memory_plan is not None:
            require_arena_dtypes(s.dtype for s in plan.module.specs.values())
            placed, writers = self._arena_storage()[1][id(memory_plan)]
            if out:
                held = {
                    n: a for n, a in out.items()
                    if n in plan.result_names()
                    and plan.producer_kernel(plan.root_of(n)) is not None
                }
                placed = {**placed, **{n: a for n, a in held.items() if n in writers}}
            storage = {program.slots[n]: a for n, a in placed.items()}
        ledger = MemoryLedger(
            plan,
            pinned=(
                memory_plan.pinned
                if memory_plan is not None and self.memory_plan is not None
                else ()
            ),
        )
        ledger.bind(env)
        run = PlanRun(program, values, ledger, storage, held)
        if program.blocks:
            graph = self.graph
            rows = np.searchsorted(distance, np.arange(top), side="right")

            def n(ring: Optional[int]) -> int:
                return graph.num_vertices if ring is None else int(rows[ring])

            run.blocks = {
                key: graph.row_block("in", 0, n(key[1])) if key[0] == "in"
                else graph.row_block("out", 0, n(key[1]), within=n(key[2]))
                for key in program.blocks
            }
        return run

    def _run_step(
        self,
        run: PlanRun,
        step: BoundStep,
        operands: Optional[Sequence[np.ndarray]] = None,
        graph: Optional[Graph] = None,
    ) -> None:
        """Run one step on whole arrays into ``run.values`` and close its
        boundary.

        ``operands``/``graph`` override the step's operands and the
        topology it indexes — what a partitioned run hands a SCATTER or
        an in-edge chain (owned rows ++ fetched ghost source rows), an
        out-edge aggregation (owned ++ ghost destination rows and the
        weight's rows in out-edge order, over the shard's out-graph) or
        an out-orientation GATHER (fetched edge rows, over the
        out-graph).  In an arena run the step writes into the output's
        storage, if it has any.

        A step of a ring run runs on its ring's block, its operands cut
        to it (:class:`~repro.exec.rings.RingStep`).  A step whose
        output a whole-row reader reads past its ring writes into a
        zeroed every-row buffer, kept as the value's every-row form; any
        other operand held on a ring is widened once per run when such a
        reader first reads it (:meth:`_every_row`).
        """
        values = run.values
        ins = list(map(values.__getitem__, step.ins) if operands is None else operands)
        out = run.storage.get(step.out) if step.in_place else None
        ring = step.ring
        if ring is not None and ring.block is None:
            for i, domain, _ in ring.cuts:
                ins[i] = self._every_row(run, step.ins[i], ins[i], domain)
        elif ring is not None:
            graph = run.blocks[ring.block]
            for i, take, pad in ring.cuts:
                x = ins[i]
                if take == "eids":
                    x = x[graph.eids]
                elif take is not None:
                    rows = getattr(graph, take)
                    if x.shape[0] > rows:
                        x = x[:rows]
                if pad is not None:
                    rows = getattr(graph, pad)
                    if x.shape[0] < rows:
                        x = _zero_padded(x, rows)
                ins[i] = x
            rows = getattr(graph, ring.out)
            if out is not None:
                out = out[:rows]
            elif step.widen is not None:
                wide = np.zeros((self.graph.num_vertices,) + step.widen, dtype=ins[0].dtype)
                run.wide[step.out] = wide
                out = wide[:rows]
        self._dispatch(step, values, ins, self.graph if graph is None else graph, out)
        if step.finishes:
            self._finish(step, values)

    def _every_row(
        self, run: PlanRun, slot: int, x: np.ndarray, domain: str
    ) -> np.ndarray:
        """``x``, held on a ring, on every row of the field: ``+0.0``
        past the ring — a ringed edge value back at its COO positions."""
        wide = run.wide.get(slot)
        if wide is None:
            graph = self.graph
            if domain == "vertex":
                wide = _zero_padded(x, graph.num_vertices)
            else:
                wide = np.zeros((graph.num_edges,) + x.shape[1:], dtype=x.dtype)
                wide[graph.csc_eids[: x.shape[0]]] = x
            run.wide[slot] = wide
        return wide

    def _walk(self, run: PlanRun, walk: BoundWalk) -> None:
        """Run a blocked kernel as a walk: its ``pre`` steps whole, its
        block steps once per block of home rows, its ``post`` steps
        whole on what the blocks spilled.

        Each block sees the graph as :meth:`Graph.row_block` cuts it —
        the way a partitioned run sees a shard — so every step is the
        ordinary dispatch on block-sized operands, in a copy of the
        slot list whose block-local values shadow the whole arrays.
        Blocks hold whole segments in CSC/CSR order, so every gather
        reduces each segment in the per-node walk's order and the
        results are bit-identical.  Only what leaves the walk (the
        spills) is assembled into whole arrays; the rest never exists
        beyond one block.  Node boundaries close per block (bf16
        rounding and the finite check are elementwise).  In an arena
        run a spilled boundary write is assembled in its slab.
        """
        for step in walk.pre:
            self._run_step(run, step)
        graph, whole = self.graph, run.values
        orientation = walk.blocked.orientation
        indptr, _ = graph.segments(orientation)
        spilled: Dict[int, np.ndarray] = {}
        for lo, hi, _, _ in blocks.segment_blocks(indptr, walk.rows_per_block):
            block = graph.row_block(orientation, lo, hi)
            local = list(whole)
            for slot in walk.home_rows:
                local[slot] = whole[slot][lo:hi]
            for slot in walk.edge_rows:
                local[slot] = whole[slot][block.eids]
            for step, far, spill, dead in walk.steps:
                ins = [
                    (whole if i in far else local)[slot]
                    for i, slot in enumerate(step.ins)
                ]
                self._dispatch(step, local, ins, block)
                if step.argmax is not None:
                    local[step.argmax] = translate_argmax(local[step.argmax], block.eids)
                if step.finishes:
                    self._finish(step, local)
                for slot, by_edge in spill:
                    chunk = local[slot]
                    out = spilled.get(slot)
                    if out is None:
                        out = run.storage.get(slot)
                        if out is None:
                            rows = graph.num_edges if by_edge else graph.num_vertices
                            out = np.empty((rows,) + chunk.shape[1:], dtype=chunk.dtype)
                        spilled[slot] = out
                    if by_edge:
                        out[block.eids] = chunk
                    else:
                        out[lo:hi] = chunk
                for slot in dead:
                    local[slot] = None
        for slot, arr in spilled.items():
            whole[slot] = arr
        for step in walk.post:
            self._run_step(run, step)

    def _dispatch(
        self,
        step: BoundStep,
        values: List[Optional[np.ndarray]],
        ins: Sequence[np.ndarray],
        graph,
        out: Optional[np.ndarray] = None,
    ) -> None:
        """The one call of a bound kernel: ``step`` on operands ``ins``
        over ``graph`` (the whole graph, a walk's or a ring's block, a
        shard), its outputs stored in ``values``.  With ``out`` an apply
        or scatter step writes into that array."""
        params = [values[slot][0] for slot in step.params] if step.params else ()
        value = step.kernel(graph, ins, params, out)
        if step.argmax is not None:
            value, values[step.argmax] = value
        values[step.out] = value

    def _finish(self, step: BoundStep, values: List[Optional[np.ndarray]]) -> None:
        """Node-boundary work — bf16 rounding, the finite check — on
        whole arrays or on one block's rows alike (both elementwise).
        Every produced value is rounded to the bf16 grid (views alias
        already-rounded storage and round nothing)."""
        for slot in step.bf16:
            if values[slot] is not None:
                values[slot] = bf16_round(values[slot])
        if self.check_finite:
            self._assert_finite(step.node, [values[step.out]] + (
                [] if step.argmax is None else [values[step.argmax]]
            ))

    def _end_kernel(self, run: PlanRun, kernel: BoundKernel) -> None:
        """Per-kernel epilogue: ledger upkeep, then free what died —
        boundary values after their last consumer (the plan's liveness
        ``deaths``, which the ledger frees by too) and kernel-internal
        values with their kernel (on a GPU they never left on-chip
        storage), every alias of a dead root with it."""
        values = run.values
        run.ledger.after_kernel(
            kernel.index, zip(kernel.roots, map(values.__getitem__, kernel.writes))
        )
        for slot in kernel.frees:
            values[slot] = None

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
    def _assert_finite(
        self, node: OpNode, arrays: Sequence[Optional[np.ndarray]]
    ) -> None:
        for arr in arrays:
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
