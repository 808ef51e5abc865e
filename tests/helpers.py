"""Shared test utilities: gradient checking, module runners, and the
differential-testing harness.

The differential contract the suite enforces: **optimizations never
change values**.  Any two execution configurations of the same model
(different strategies, different kernel partitionings, a fused kernel
walked block by block or node by node, single- vs multi-GPU) must
produce equal outputs
and parameter gradients, up to float associativity; and the analytic
byte counters must agree with byte counts re-derived from the actual
array shapes an Engine run touches.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

import numpy as np

import repro.models  # noqa: F401  (populates the model registry)
from repro.exec import Engine, MultiEngine, plan_module
from repro.exec.kernels import (
    apply_kernel, gather_kernel, param_grad_kernel, scatter_kernel,
)
from repro.exec.memory import MemoryLedger, ledger_walk, root_sizes
from repro.exec.plan import KernelIO
from repro.exec.rings import WHOLE
from repro.exec.profiler import KernelRecord, PhaseCounters
from repro.frameworks import compile_forward, compile_training, get_strategy
from repro.graph import Graph
from repro.ir import Module, differentiate
from repro.ir.autodiff import grad_seed_name
from repro.ir.functions import get_scatter_fn
from repro.ir.module import GRAPH_CONSTANTS
from repro.ir.ops import OpKind, OpNode
from repro.ir.precision import bf16_round
from repro.ir.tensorspec import Domain
from repro.registry import MODELS
from repro.serve.cache import FeatureCache, GatherSplit


def run_forward(
    module: Module,
    graph: Graph,
    arrays: Dict[str, np.ndarray],
    *,
    mode: str = "per_op",
    keep=(),
) -> Dict[str, np.ndarray]:
    """Execute a module and return outputs (plus keep values)."""
    engine = Engine(graph, precision="float64")
    plan = plan_module(module, mode=mode, keep=keep)
    env = engine.bind(module, arrays)
    return engine.run_plan(plan, env, unwrap=True)


def analytic_grads(
    module: Module,
    graph: Graph,
    arrays: Dict[str, np.ndarray],
    *,
    weights: Optional[Dict[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Parameter gradients of ``loss = Σ w ⊙ out`` via the IR backward."""
    engine = Engine(graph, precision="float64")
    tg = differentiate(module)
    fwd_plan = plan_module(module, mode="per_op", keep=tg.saved_values)
    env = engine.bind(module, arrays)
    fwd = engine.run_plan(fwd_plan, env, unwrap=False)

    bwd = tg.backward
    benv: Dict[str, np.ndarray] = {}
    for name in bwd.inputs:
        if name.startswith("grad__"):
            out_name = name[len("grad__"):]
            w = None if weights is None else weights.get(out_name)
            seed = (
                np.ones_like(fwd[out_name]) if w is None
                else np.asarray(w, dtype=np.float64)
            )
            benv[name] = seed
        elif name in GRAPH_CONSTANTS:
            benv[name] = engine.graph_constant(name)
        elif name in fwd:
            benv[name] = fwd[name]
        else:
            benv[name] = env[name]
    bwd_plan = plan_module(bwd, mode="per_op")
    res = engine.run_plan(bwd_plan, benv)
    return {p: res[g] for p, g in tg.param_grads.items()}


def numeric_grads(
    module: Module,
    graph: Graph,
    arrays: Dict[str, np.ndarray],
    param: str,
    *,
    eps: float = 1e-6,
    weights: Optional[Dict[str, np.ndarray]] = None,
) -> np.ndarray:
    """Central finite differences of ``loss = Σ w ⊙ out`` w.r.t. one param."""

    def loss(a: Dict[str, np.ndarray]) -> float:
        outs = run_forward(module, graph, a)
        total = 0.0
        for name in module.outputs:
            w = None if weights is None else weights.get(name)
            arr = outs[name]
            total += float(arr.sum() if w is None else (arr * w).sum())
        return total

    base = arrays[param].astype(np.float64)
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = dict(arrays)
        minus = dict(arrays)
        pb = base.copy()
        pb[idx] += eps
        plus[param] = pb
        mb = base.copy()
        mb[idx] -= eps
        minus[param] = mb
        grad[idx] = (loss(plus) - loss(minus)) / (2 * eps)
        it.iternext()
    return grad


def backward_arrays(compiled, arrays, fwd) -> Dict[str, np.ndarray]:
    """Inputs of the backward plan: all-ones output gradients, the
    stash the forward run returned, and the forward plan's own inputs
    (graph constants are left to ``bind``)."""
    bwd_module = compiled.bwd_plan.module
    bwd_arrays: Dict[str, np.ndarray] = {}
    for name in list(bwd_module.inputs) + list(bwd_module.params):
        if name.startswith("grad__"):
            bwd_arrays[name] = np.ones_like(fwd[name[len("grad__"):]])
        elif name in GRAPH_CONSTANTS:
            continue  # bind() synthesises these from the topology
        elif name in fwd:
            bwd_arrays[name] = fwd[name]
        elif name in arrays:
            bwd_arrays[name] = arrays[name]
        else:
            raise KeyError(f"backward input {name!r} unavailable")
    return bwd_arrays


@functools.lru_cache(maxsize=None)
def csr_product_fuses() -> bool:
    """Does this scipy build contract ``y += w * x`` into one rounding?

    README clause 1d: a weighted aggregation chain is bit-identical to
    the edge-tensor path exactly when it does not.  Three float32 terms
    per column, ``-1 - 2**-11 + t*t`` with ``t = 1 + 2**-12``: ``t*t``
    is ``1 + 2**-11 + 2**-24``, a tie that rounds to ``1 + 2**-11``, so
    the unfused sum is ``0`` and the fused one ``2**-24``.  Nine columns
    cover a vectorised body and its remainder.
    """
    from repro.graph.csr import adjacency_operator

    t = np.float32(1 + 2.0 ** -12)
    operator = adjacency_operator(
        np.array([0, 3]), np.arange(3), 3, np.array([1, 1, t], dtype=np.float32)
    )
    x = np.repeat(np.array([[-1], [-(2.0 ** -11)], [t]], dtype=np.float32), 9, axis=1)
    y = operator @ x
    fused = y == np.float32(2.0 ** -24)
    assert (fused | (y == 0)).all() and fused.all() == fused.any(), y
    return bool(fused.any())


def assert_same_values(got, want, plan, ctx: str) -> None:
    """Two runs of ``plan`` returned the same values, in the same order,
    by dtype, shape and ``tobytes()``.

    The one stated exception is README clause 1d: where scipy fuses
    ``y += w * x`` (:func:`csr_product_fuses`), a plan holding a
    *weighted* aggregation chain agrees with its per-node execution to
    one rounding per term, checked as ``allclose`` at the dtype's scale.
    """
    exact = not csr_product_fuses() or not any(
        chain.weight is not None
        for index in range(len(plan.kernels))
        for chain in plan.chains(index).values()
    )
    assert list(got) == list(want), ctx
    for name in want:
        a, b = np.asarray(got[name]), np.asarray(want[name])
        assert (a.dtype, a.shape) == (b.dtype, b.shape), f"{ctx}:{name}"
        if exact or a.dtype.kind != "f":
            assert a.tobytes() == b.tobytes(), f"{ctx}:{name}"
        else:
            rtol = 64 * np.finfo(a.dtype).eps
            scale = float(np.abs(b).max(initial=0.0))
            assert np.allclose(a, b, rtol=rtol, atol=rtol * scale), f"{ctx}:{name}"


# ----------------------------------------------------------------------
# The reference interpreter
# ----------------------------------------------------------------------
def reference_node(
    node: OpNode,
    values: Dict[str, np.ndarray],
    graph,
    argmax_needed=frozenset(),
    operands: Optional[List[np.ndarray]] = None,
) -> None:
    """Run one node on a name-keyed dict through the public kernel
    dispatch (``apply_kernel`` / ``scatter_kernel`` / ``gather_kernel``
    / ``param_grad_kernel``).  ``operands`` replaces its data inputs,
    ``graph`` is the layout it indexes (a graph or a row block)."""
    ins = [values[name] for name in node.inputs] if operands is None else operands
    params = [values[p][0] for p in node.params]
    out = node.outputs[0]
    if node.kind is OpKind.SCATTER:
        values[out] = scatter_kernel(node.fn, graph, ins)
    elif node.kind is OpKind.GATHER:
        value, argmax = gather_kernel(
            node.fn, graph, ins[0], orientation=node.orientation,
            want_argmax=node.name in argmax_needed,
        )
        values[out] = value
        if argmax is not None and len(node.outputs) > 1:
            values[node.outputs[1]] = argmax
    elif node.kind is OpKind.APPLY:
        values[out] = apply_kernel(node.fn, ins, params, node.attrs)
    elif node.kind is OpKind.VIEW:
        x = ins[0]
        values[out] = x.reshape((x.shape[0],) + tuple(node.attrs["out_shape"]))
    else:
        values[out] = param_grad_kernel(node.fn, ins, params, node.attrs)[None]


def _zero_padded(x: np.ndarray, rows: int) -> np.ndarray:
    if x.shape[0] >= rows:
        return x
    wide = np.zeros((rows,) + x.shape[1:], dtype=x.dtype)
    wide[: x.shape[0]] = x
    return wide


class ReferenceRings:
    """Where each node of a ring run computes, decided node by node
    from the ring map, and the operands it reads there — the rules of
    :mod:`repro.exec.rings`, without chains.

    A node on ring ``d`` below the field's deepest hop runs on
    ``graph.row_block("in", 0, n_d)``; a sum over out-edges of an edge
    value held on ring ``w`` on ``row_block("out", 0, n, within=n_w)``.
    Operands are cut to the block: prefixes of values held on a ring,
    whole-field edge values at the block's edge ids.  Under a training
    map (``depth`` given) a gradient read past its ring reads ``+0.0``,
    and a node on every row reads each ringed operand widened to every
    row (a ringed edge value back at its COO positions).
    """

    def __init__(self, plan, graph: Graph, distance: np.ndarray, depth=None):
        module = plan.module
        self.widens = depth is not None
        self.bound = frozenset() if self.widens else frozenset(
            list(module.inputs) + list(module.params)
        )
        self.depth = plan.rings() if depth is None else depth
        self.top = int(distance[-1])
        self.rows = np.searchsorted(distance, np.arange(self.top), side="right")
        self.graph = graph
        self.specs = module.specs
        self.whole: Dict[str, np.ndarray] = {}

    def of(self, name: str) -> Optional[int]:
        ring = WHOLE if name in self.bound else self.depth.get(name, WHOLE)
        return ring if ring < self.top else None

    def n(self, ring: Optional[int]) -> int:
        return self.graph.num_vertices if ring is None else int(self.rows[ring])

    def cut(self, node: OpNode, values: Mapping[str, np.ndarray]):
        """``(operands, layout)`` of ``node``'s run (``None``: as held)."""
        graph, specs = self.graph, self.specs
        ring = self.of(node.name)
        if node.kind is OpKind.GATHER and node.orientation == "out":
            edges_on = self.of(node.inputs[0])
            if edges_on is None:
                return None, graph
            block = graph.row_block("out", 0, self.n(ring), within=self.n(edges_on))
        elif ring is not None and node.kind is not OpKind.PARAM_GRAD:
            block = graph.row_block("in", 0, self.n(ring))
        elif not self.widens or all(self.of(name) is None for name in node.inputs):
            return None, graph
        else:
            return [self.every_row(name, values) for name in node.inputs], graph
        row_wise = node.kind in (OpKind.APPLY, OpKind.VIEW)
        far = node.kind is OpKind.SCATTER and get_scatter_fn(node.fn).reads_u
        operands = []
        for i, name in enumerate(node.inputs):
            x, domain = values[name], specs[name].domain
            if domain is Domain.EDGE:
                x = x[block.eids] if self.of(name) is None else x[: block.num_edges]
                if self.widens:
                    x = _zero_padded(x, block.num_edges)
            elif domain is Domain.VERTEX:
                if row_wise:
                    x = x[: block.num_vertices]
                if self.widens:
                    x = _zero_padded(
                        x, block.far_vertices if i == 0 and far else block.num_vertices
                    )
            operands.append(x)
        return operands, block

    def every_row(self, name: str, values: Mapping[str, np.ndarray]) -> np.ndarray:
        x, domain = values[name], self.specs[name].domain
        if self.of(name) is None or domain not in (Domain.VERTEX, Domain.EDGE):
            return x
        if name not in self.whole:
            graph = self.graph
            if domain is Domain.VERTEX:
                wide = _zero_padded(x, graph.num_vertices)
            else:
                wide = np.zeros((graph.num_edges,) + x.shape[1:], dtype=x.dtype)
                wide[graph.csc_eids[: x.shape[0]]] = x
            self.whole[name] = wide
        return self.whole[name]


class ReferenceRun(NamedTuple):
    """What :func:`reference_run` returns."""

    #: ``run_plan(..., unwrap=False)``'s results, in its order.
    results: Dict[str, np.ndarray]
    #: The measured live-byte peak (``Engine.measured_peak_bytes``).
    peak: int
    #: Every value still held when the run ended.
    values: Dict[str, np.ndarray]


def reference_run(
    engine: Engine,
    plan,
    env: Mapping[str, np.ndarray],
    *,
    distance: Optional[np.ndarray] = None,
    rings=None,
    free: Optional[bool] = None,
) -> ReferenceRun:
    """``engine.run_plan(plan, env, distance=, rings=)`` as a plain
    per-node interpreter: the oracle for the bound program.

    Every node runs on a name-keyed dict through the public kernel
    dispatch (:func:`reference_node`) — no chains, no walks, no slots —
    on whole arrays, or on its ring's block (:class:`ReferenceRings`).
    The node boundary rounds to bf16 and checks finiteness as the
    engine's settings say; after each kernel the measured ledger is
    charged and, unless ``free`` is off (default: the engine's
    ``free_dead_values``), every value whose root died is dropped,
    aliases with it.  No arena.
    """
    graph, module = engine.graph, plan.module
    values = dict(env)
    wanted = plan.result_names()
    demand = plan.argmax_demand()
    bf16 = (
        {name for name, spec in module.specs.items() if spec.dtype == "bfloat16"}
        if engine.precision == np.dtype("float32") else set()
    )
    ledger = MemoryLedger(plan)
    ledger.bind(values)
    ring = None
    if distance is not None and len(distance) and distance[-1] > 0:
        ring = ReferenceRings(plan, graph, np.asarray(distance), rings)
    lives = plan.liveness()
    free = engine.free_dead_values if free is None else free
    for index, kernel in enumerate(plan.kernels):
        for node in kernel.nodes:
            operands, layout = (None, graph) if ring is None else ring.cut(node, values)
            reference_node(node, values, layout, demand, operands)
            if node.kind is not OpKind.VIEW:
                for o in node.outputs:
                    if o in bf16 and o in values:
                        values[o] = bf16_round(values[o])
            if engine.check_finite:
                for o in node.outputs:
                    arr = values.get(o)
                    if arr is not None and arr.dtype.kind == "f" and not np.isfinite(arr).all():
                        raise FloatingPointError(
                            f"non-finite values ({int((~np.isfinite(arr)).sum())} "
                            f"entries) produced by node {node.name!r} "
                            f"({node.kind.value}:{node.fn})"
                        )
        io = plan.kernel_io(index)
        ledger.after_kernel(index, [(plan.root_of(w), values.get(w)) for w in io.writes])
        if free:
            dead = set(io.internal).union(lives.deaths.get(index, ()))
            for name in list(values):
                if name not in wanted and plan.root_of(name) in dead:
                    del values[name]
    return ReferenceRun({name: values[name] for name in wanted}, ledger.peak_bytes, values)


def run_plan_per_node(engine: Engine, plan, env):
    """``(results, measured peak)`` of :func:`reference_run`: the oracle
    for the blocked walk and the chains, every node on whole arrays."""
    run = reference_run(engine, plan, env)
    return run.results, run.peak


def per_node_multi_engine(graph: Graph, partition, **kwargs) -> MultiEngine:
    """A :class:`MultiEngine` whose shards run every node.

    The oracle for the chains partitioned runs take: each shard's chain
    choice takes none, so every aggregation builds its messages and
    every halo is fetched by the node that reads it, as under narrow
    storage or the finite check.
    """
    multi = MultiEngine(graph, partition, **kwargs)
    for shard in multi._shards:
        shard._chain_choice = _no_chains
    return multi


def _no_chains(plan, index):
    """A chain choice that takes no chain (see :func:`per_node_multi_engine`)."""
    return {}, set()


def naive_ledger(plan, stats, *, pinned=()):
    """The §6 ledger recomputed from scratch at every step.

    The oracle for :func:`repro.exec.memory.ledger_walk`, returned in
    its ``(timeline, pinned share, end-resident)`` shape.  It keeps no
    running state and reads no liveness cache: for every step of the
    plan's kernel order it asks again, from ``kernel_io`` alone, which
    roots have been made and which are still owed — pinned, kept, an output, read
    by this or a later step, or written this very step (an input
    nothing reads is held through the first kernel).  Graph constants
    cost nothing.  Quadratic in the kernel count, on purpose.
    """
    module, root = plan.module, plan.root_of
    V, E = stats.num_vertices, stats.num_edges
    order = list(range(len(plan.kernels)))
    constants = {root(n) for n in GRAPH_CONSTANTS}
    pinned = {root(n) for n in pinned}
    held = pinned | {root(n) for n in [*plan.keep, *module.outputs]}
    given = {root(n) for n in [*module.inputs, *module.params]} - constants

    def nbytes(roots) -> int:
        return sum(module.specs[r].nbytes(V, E) for r in roots)

    timeline, share = [nbytes(given)], [nbytes(given & pinned)]
    made = set(given)
    for t, kernel in enumerate(order):
        fresh = {root(w) for w in plan.kernel_io(kernel).writes}
        made = given | {
            root(w) for k in order[: t + 1] for w in plan.kernel_io(k).writes
        }
        made -= constants
        owed = held | fresh | {
            root(r) for k in order[t:] for r in plan.kernel_io(k).reads
        }
        if t == 0:
            owed |= given
        timeline.append(nbytes(made & owed))
        share.append(nbytes(made & owed & pinned))
    end = nbytes(made & held) if order else timeline[0]
    return tuple(timeline), tuple(share), end


@functools.lru_cache(maxsize=None)
def zoo_plans(model: str, strategy: str, precision: str) -> Tuple:
    """``(pinned, plans)`` of one zoo model compiled under a strategy at
    a storage precision: the training pair's forward and backward plans,
    or the forward plan alone for an inference-only strategy."""
    resolved = replace(get_strategy(strategy), precision=precision)
    compile_ = compile_training if resolved.supports_training else compile_forward
    compiled = compile_(MODELS.get(model)(8, 3), resolved)
    return tuple(compiled.pinned), tuple(plan for _, plan in compiled.phases())


def naive_kernel_io(plan, index: int) -> KernelIO:
    """One kernel's boundary traffic, rescanning the whole plan.

    The oracle for :meth:`ExecPlan.kernel_io
    <repro.exec.plan.ExecPlan.kernel_io>`, which reads one
    root → reading-kernels index per plan: here every call gathers what
    the *other* kernels' computing (non-VIEW) nodes read, and asks of
    every output whether any kept or output alias resolves to it.
    Quadratic in the kernel count, on purpose.
    """
    kernel, root = plan.kernels[index], plan.root_of
    inside = {o for node in kernel.nodes for o in node.outputs}
    outside = {
        root(name)
        for j, other in enumerate(plan.kernels) if j != index
        for node in other.nodes if node.kind is not OpKind.VIEW
        for name in node.all_inputs()
    }
    aliases = [n.outputs[0] for n in plan.module.nodes if n.kind is OpKind.VIEW]
    protected = set(plan.keep) | set(plan.module.outputs)
    reads: List[str] = []
    writes: List[str] = []
    internal: List[str] = []
    for node in kernel.nodes:
        if node.kind is OpKind.VIEW:
            continue
        for name in node.all_inputs():
            if root(name) not in inside and root(name) not in map(root, reads):
                reads.append(name)
        for o in node.outputs:
            escapes = o in outside or o in protected or any(
                root(v) == o and v in protected for v in aliases
            )
            (writes if escapes else internal).append(o)
    return KernelIO(tuple(reads), tuple(writes), tuple(internal))


def kernel_record(plan, index: int, stats) -> KernelRecord:
    """One kernel's cost-model record, walked node by node on ``stats``.

    The oracle for :meth:`CostForms.evaluate
    <repro.exec.cost_form.CostForms.evaluate>`: the per-node formulas
    of :mod:`repro.ir.ops` evaluated on integer extents, every read
    staged once per kernel at its dominant access pattern.
    """
    kernel = plan.kernels[index]
    io = plan.kernel_io(index)
    specs = plan.module.specs
    V, E = stats.num_vertices, stats.num_edges
    read_bytes = 0
    for name in io.reads:
        read_bytes += max(
            node.read_bytes(name, specs, stats)
            for node in kernel.nodes if name in node.all_inputs()
        )
    if kernel.mapping == "none":
        work, rows = "uniform", 0
    elif kernel.mapping == "dense":
        work = "uniform"
        rows = max(specs[node.outputs[0]].rows(V, E) for node in kernel.nodes)
    elif kernel.mapping == "edge":
        work, rows = "uniform", E
    elif not any(n.is_graph_related() for n in kernel.nodes):
        work, rows = "uniform", V
    else:
        gathers = {n.orientation for n in kernel.nodes if n.kind is OpKind.GATHER}
        work, rows = ("degree_out" if gathers == {"out"} else "degree_in"), V
    return KernelRecord(
        label=kernel.label,
        mapping=kernel.mapping,
        work=work,
        rows=rows,
        flops=sum(node.flops(specs, stats) for node in kernel.nodes),
        read_bytes=read_bytes,
        write_bytes=sum(
            node.write_bytes(o, specs, stats)
            for node in kernel.nodes for o in node.outputs if o in io.writes
        ),
        atomic=kernel.atomic,
        fused_ops=sum(1 for n in kernel.nodes if n.kind is not OpKind.VIEW),
        reduce_scatter=kernel.reduce_scatter,
    )


def phase_counters(plan, stats, *, pinned=()) -> PhaseCounters:
    """``analyze_plan`` the slow way: :func:`kernel_record` per kernel,
    memory from :func:`repro.exec.memory.ledger_walk` on integer sizes."""
    walk = ledger_walk(plan, root_sizes(plan, stats), pinned=pinned)
    return PhaseCounters(
        records=[kernel_record(plan, i, stats) for i in range(len(plan.kernels))],
        peak_memory_bytes=walk.peak_bytes,
        end_resident_bytes=walk.end_resident_bytes,
    )


def training_phases(engine, compiled, features: np.ndarray, params):
    """Yield the forward, then the backward ``run_plan`` result dict.

    ``engine`` is an :class:`~repro.exec.engine.Engine` or
    :class:`~repro.exec.multi.MultiEngine` (they share the
    ``bind``/``run_plan`` interface).  The backward pass is seeded with
    all-ones output gradients so results are deterministic and
    loss-free.  A generator, so callers can read the engine's per-run
    attributes (measured peaks, exchanges) between the two phases.
    """
    module = compiled.forward
    arrays = compiled.model.make_inputs(engine.graph, features)
    arrays.update(params)
    env = engine.bind(module, arrays)
    fwd = engine.run_plan(compiled.fwd_plan, env, unwrap=False)
    yield fwd

    bwd_arrays = backward_arrays(compiled, arrays, fwd)
    bwd_module = compiled.bwd_plan.module
    benv = engine.bind(bwd_module, bwd_arrays)
    yield engine.run_plan(compiled.bwd_plan, benv)


def training_values(
    engine,
    compiled,
    features: np.ndarray,
    params: Dict[str, np.ndarray],
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Run one compiled training configuration end to end.

    Returns ``(outputs, param_grads)`` of :func:`training_phases` with
    globally-assembled arrays.
    """
    fwd, res = training_phases(engine, compiled, features, params)
    grads = {p: res[g] for p, g in compiled.param_grads.items()}
    outputs = {o: np.asarray(fwd[o]) for o in compiled.forward.outputs}
    return outputs, grads


def assert_values_close(
    got: Dict[str, np.ndarray],
    want: Dict[str, np.ndarray],
    *,
    rtol: float = 1e-9,
    atol: float = 1e-11,
    context: str = "",
) -> None:
    """Assert two value dicts agree up to float associativity."""
    assert set(got) == set(want), (
        f"{context}: value sets differ: {sorted(set(got) ^ set(want))}"
    )
    for name in sorted(got):
        a, b = np.asarray(got[name]), np.asarray(want[name])
        assert a.shape == b.shape, f"{context}:{name}: {a.shape} vs {b.shape}"
        assert np.allclose(a, b, rtol=rtol, atol=atol), (
            f"{context}:{name}: max abs diff "
            f"{float(np.abs(a - b).max()):.3e}"
        )


# ----------------------------------------------------------------------
# Analytic counters vs actual array shapes
# ----------------------------------------------------------------------
def record_value_shapes(
    engine: Engine, plan, env: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Execute ``plan`` keeping every intermediate array alive."""
    return reference_run(engine, plan, env, free=False).values


def derived_kernel_bytes(
    plan, graph: Graph, values: Dict[str, np.ndarray], index: int
) -> Tuple[int, int]:
    """Re-derive one kernel's boundary bytes from actual array shapes.

    Independent re-implementation of the counting convention used by
    :func:`repro.exec.analytic.kernel_record`, driven by the concrete
    arrays an Engine run produced rather than by ``TensorSpec``
    formulas: a vertex operand read through an edge index stages one
    row per edge; everything else streams its actual leading extent.
    """
    kernel = plan.kernels[index]
    io = plan.kernel_io(index)
    specs = plan.module.specs

    read_bytes = 0
    for name in io.reads:
        arr = values[name]
        row_bytes = int(
            np.prod(arr.shape[1:], dtype=np.int64) * arr.dtype.itemsize
        )
        rows_per_node: List[int] = []
        for node in kernel.nodes:
            if name not in node.all_inputs():
                continue
            rows = arr.shape[0]
            if (
                node.kind is OpKind.SCATTER
                and specs[name].domain is Domain.VERTEX
                and not get_scatter_fn(node.fn).vertex_direct_read
            ):
                rows = graph.num_edges
            rows_per_node.append(rows)
        read_bytes += max(rows_per_node) * row_bytes if rows_per_node else 0

    write_bytes = sum(int(values[name].nbytes) for name in io.writes)
    return read_bytes, write_bytes


def _assert_plan_matches_shapes(plan, graph: Graph, values) -> None:
    stats = graph.stats()
    for i in range(len(plan.kernels)):
        record = kernel_record(plan, i, stats)
        got_read, got_write = derived_kernel_bytes(plan, graph, values, i)
        assert record.read_bytes == got_read, (
            f"kernel {i} ({plan.kernels[i].label}): analytic reads "
            f"{record.read_bytes} != shape-derived {got_read}"
        )
        assert record.write_bytes == got_write, (
            f"kernel {i} ({plan.kernels[i].label}): analytic writes "
            f"{record.write_bytes} != shape-derived {got_write}"
        )


def assert_counters_match_shapes(
    compiled, graph: Graph, features: np.ndarray, params: Dict[str, np.ndarray]
) -> None:
    """Analytic kernel byte counters == bytes derived from real arrays.

    Runs the compiled forward *and* backward plans concretely in
    float32 (the accounting dtype), then checks every kernel's analytic
    read/write bytes against the shape-derived counts, exactly.  Any
    silent dtype upcast or extent mismatch in a kernel implementation
    fails here.
    """
    engine = Engine(graph, precision="float32", free_dead_values=False)
    module = compiled.forward
    arrays = compiled.model.make_inputs(graph, features)
    arrays.update(params)
    env = engine.bind(module, arrays)
    fwd_values = record_value_shapes(engine, compiled.fwd_plan, env)
    _assert_plan_matches_shapes(compiled.fwd_plan, graph, fwd_values)

    bwd_module = compiled.bwd_plan.module
    bwd_arrays: Dict[str, np.ndarray] = {}
    for name in list(bwd_module.inputs) + list(bwd_module.params):
        if name.startswith("grad__"):
            out = name[len("grad__"):]
            bwd_arrays[name] = np.ones_like(fwd_values[out])
        elif name in GRAPH_CONSTANTS:
            continue
        elif name in fwd_values:
            bwd_arrays[name] = fwd_values[name]  # bind takes wrapped params
        else:
            raise KeyError(f"backward input {name!r} unavailable")
    benv = engine.bind(bwd_module, bwd_arrays)
    bwd_values = record_value_shapes(engine, compiled.bwd_plan, benv)
    _assert_plan_matches_shapes(compiled.bwd_plan, graph, bwd_values)


def gradcheck(
    module: Module,
    graph: Graph,
    arrays: Dict[str, np.ndarray],
    *,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    params: Optional[list] = None,
) -> None:
    """Assert IR-derived gradients match finite differences."""
    got = analytic_grads(module, graph, arrays)
    check = params if params is not None else list(got)
    for p in check:
        num = numeric_grads(module, graph, arrays, p)
        assert np.allclose(got[p], num, rtol=rtol, atol=atol), (
            f"gradcheck failed for {p!r}:\nanalytic=\n{got[p]}\nnumeric=\n{num}"
        )


#: Every counter a feature cache keeps.
CACHE_COUNTERS = (
    "hits", "misses", "hit_bytes", "miss_bytes", "invalidated",
    "invalidated_bytes", "evictions", "invalidations", "pinned_bypasses",
)


def cache_state(cache) -> tuple:
    """Every counter, the size and the LRU order of a feature cache."""
    return (
        tuple(getattr(cache, name) for name in CACHE_COUNTERS)
        + (len(cache), cache.keys())
    )


def recording_cache(calls: list) -> type:
    """A :class:`FeatureCache` subclass that appends each of its
    ``gather`` / ``invalidate`` calls to ``calls``, as the argument
    tuple :func:`replay_cache_calls` takes; patch it over
    ``repro.serve.server.FeatureCache`` to record a server's stream."""

    class RecordingFeatureCache(FeatureCache):
        def gather(self, vertices, row_bytes):
            ids = np.array(vertices, dtype=np.int64)
            calls.append(("gather", ids, row_bytes))
            return super().gather(vertices, row_bytes)

        def invalidate(self, vertices):
            calls.append(("invalidate", np.array(vertices, dtype=np.int64)))
            return super().invalidate(vertices)

    return RecordingFeatureCache


def replay_cache_calls(calls, cache):
    """Run recorded calls on ``cache``, yielding each call's result."""
    for op, *args in calls:
        yield getattr(cache, op)(*args)


def serve_report_digest(report) -> str:
    """SHA-256 over a ServeReport's outcomes, batch traces (timings,
    cache split, versions, field cost) and delivered outputs."""
    h = hashlib.sha256()
    for o in report.outcomes:
        h.update(repr((o.request_id, o.arrival_s, o.start_s, o.finish_s,
                       o.deadline_s, o.gpu, o.snapshot_s)).encode())
    for b in report.batches:
        h.update(repr((b.request_ids, b.dispatch_s, b.start_s, b.finish_s,
                       b.gpu, b.hit_bytes, b.miss_bytes, b.invalidated_bytes,
                       b.graph_version, b.feature_version, b.cost.seeds,
                       b.cost.field, b.cost.edges,
                       b.cost.gather_bytes)).encode())
    for rid in sorted(report.outputs):
        h.update(np.ascontiguousarray(report.outputs[rid]).tobytes())
    return h.hexdigest()


class ReferenceFeatureCache:
    """Bounded LRU over feature rows, keyed by vertex id.

    The row-by-row oracle :class:`repro.serve.cache.FeatureCache` is
    held to: one ordered dict, one operation per looked-up row.

    ``capacity_rows`` bounds the number of cached rows; 0 disables
    caching (every lookup misses, the uncached-accounting limit).
    Lookups are resolved row by row in vertex order, so a batch's split
    is deterministic; missed rows are inserted (and the least recently
    used *unpinned* row evicted) immediately, modelling a fetch-through
    cache.
    """

    def __init__(self, capacity_rows: int = 0):
        if capacity_rows < 0:
            raise ValueError("capacity_rows must be non-negative")
        self.capacity_rows = int(capacity_rows)
        self._rows: "OrderedDict[int, None]" = OrderedDict()
        # Vertices a versioned write removed while resident; the next
        # miss on one is an invalidation re-gather, not a cold miss.
        self._stale: Set[int] = set()
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

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._rows

    def keys(self) -> List[int]:
        """The resident rows, least recently used first."""
        return list(self._rows)

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
    def invalidate(self, vertices: np.ndarray) -> int:
        """Drop the resident rows a versioned write touched.

        Returns how many rows were actually resident (and are now
        marked stale).  Rows not in the cache need nothing: their next
        gather was going to miss anyway, so attributing it to
        invalidation would double-count drift against cold traffic.
        """
        dropped = 0
        for key in np.asarray(vertices, dtype=np.int64).tolist():
            if key in self._rows:
                del self._rows[key]
                self._stale.add(key)
                dropped += 1
        self.invalidations += dropped
        return dropped

    # ------------------------------------------------------------------
    def gather(self, vertices: np.ndarray, row_bytes: int) -> GatherSplit:
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
            batch_keys: Set[int] = set()
            for key in np.asarray(vertices, dtype=np.int64).tolist():
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


def rebuild_at(graph, features, updates, dispatch_s):
    """From-scratch (graph, features) with every update at or before
    ``dispatch_s`` applied — the reference state for one batch."""
    feats = np.asarray(features, dtype=np.float64).copy()
    src, dst, grown = [], [], 0
    for u in sorted(updates, key=lambda u: (u.arrival_s, u.update_id)):
        if u.arrival_s > dispatch_s:
            break
        if u.num_feature_rows:
            feats[u.feature_vertices] = u.feature_rows
        if u.delta is not None:
            src.append(u.delta.src)
            dst.append(u.delta.dst)
            grown += u.delta.num_new_vertices
            if u.new_vertex_rows is not None:
                feats = np.concatenate([feats, u.new_vertex_rows], axis=0)
    if not src and grown == 0:
        return graph, feats
    empty = np.array([], dtype=np.int64)
    g = graph.with_edges(
        np.concatenate(src) if src else empty,
        np.concatenate(dst) if dst else empty,
        num_new_vertices=grown,
    )
    return g, feats


def forward_receptive_hops(module: Module) -> int:
    """The receptive-field radius by forward relaxation: a value's hop
    radius relative to its anchor vertex (an edge's destination), +1
    where a SCATTER reads a vertex value through the edge source (not
    for ``max_grad``'s direct reads), +1 for an out-edge gather; relaxed
    to a fixed point.  The oracle :func:`repro.exec.rings.receptive_hops`
    — the backward ring walk read at the vertex inputs — must equal on
    modules without whole-row readers."""
    specs = module.specs
    depth: Dict[str, int] = {}
    changed = True
    while changed:
        changed = False
        for node in module.nodes:
            if node.kind is OpKind.SCATTER:
                fn = get_scatter_fn(node.fn)
                d, at = 0, 0
                if fn.reads_u:
                    u = node.inputs[0]
                    reach = specs[u].domain is Domain.VERTEX and not fn.vertex_direct_read
                    d, at = depth.get(u, 0) + reach, 1
                if fn.reads_v and at < len(node.inputs):
                    d = max(d, depth.get(node.inputs[at], 0))
            else:
                d = max((depth.get(n, 0) for n in node.all_inputs()), default=0)
                d += node.kind is OpKind.GATHER and node.orientation == "out"
            for out in node.outputs:
                if depth.get(out, 0) < d:
                    depth[out] = d
                    changed = True
    return max((depth.get(o, 0) for o in module.outputs), default=0)


def ring_root_sizes(plan, depth, graph: Graph, distance) -> Dict[str, int]:
    """:func:`~repro.exec.memory.root_sizes` of a run on rings: a root
    held on ring ``d`` (``depth``, a ring map) costs its spec on rows
    ``[0, n_d)`` and their in-edges; one on the field's last ring or
    beyond, the whole field's."""
    top = int(distance[-1])
    specs = plan.module.specs
    sizes = {}
    for root in root_sizes(plan, graph.stats()):
        ring = depth.get(root, WHOLE)
        rows, edges = graph.num_vertices, graph.num_edges
        if ring < top:
            rows = int(np.searchsorted(distance, ring, side="right"))
            edges = int(graph.csc_indptr[rows])
        sizes[root] = specs[root].nbytes(rows, edges)
    return sizes


def ring_graph(graph: Graph, distance: np.ndarray, depth: int):
    """The oracle for a field's ring ``depth``: ``(ring, edge_ids)``, a
    cold graph on all of ``graph``'s vertices whose edges are
    ``graph``'s edges ``edge_ids`` (ascending) — the in-edges of the
    vertices at most ``depth`` hops out (``distance``, per vertex) —
    in their order, so each segment keeps its order.  On a field laid
    out hop by hop its non-empty in-segments are those of rows
    ``[0, n_depth)``: what ``graph.row_block("in", 0, n_depth)`` holds."""
    kept = np.flatnonzero(distance[graph.dst] <= depth)
    return Graph(graph.src[kept], graph.dst[kept], graph.num_vertices), kept


# ----------------------------------------------------------------------
# The sampled batch as it was built eagerly: the slow reference
# ----------------------------------------------------------------------
def _reference_positions(indptr: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Positions of the segments of ``vertices``, concatenated in order
    (a vertex past the layout's last has an empty segment)."""
    last = indptr.shape[0] - 1
    starts = indptr[np.minimum(vertices, last)]
    counts = indptr[np.minimum(vertices + 1, last)] - starts
    offsets = np.cumsum(counts) - counts
    index = np.repeat(starts - offsets, counts)
    index += np.arange(index.shape[0])
    return index


def _reference_inherit(parent, vertices, member, kept, orientation, home):
    """``(indptr, eids)`` of an induced subgraph read off its parent's
    grouping with parent-length scratch; later layouts' edges follow at
    each vertex (``_append_grouping``)."""
    from repro.graph.csr import _append_grouping

    count, n = kept.shape[0], vertices.shape[0]
    indptr, order = parent.segments(orientation)
    far = parent.csc_src if orientation == "in" else parent.csr_dst
    positions = _reference_positions(indptr, vertices)
    local = np.empty(parent.num_edges, dtype=np.int64)
    local[kept] = np.arange(count)
    grouped = local[order[positions[member[far[positions]]]]]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(home[:count], minlength=n), out=indptr[1:])
    if count == home.shape[0]:
        return indptr, grouped
    return _append_grouping(indptr, grouped, home[count:], n)


def reference_induce(layouts, num_vertices: int, vertices: np.ndarray):
    """The whole-field induction, built eagerly over edge layouts
    (``repro.graph.sampling._khop``'s): every layout's edge list masked
    by membership, both groupings inherited from the first layout's at
    once.  Returns ``(subgraph, kept, edge_ids)``."""
    from repro.graph.sampling import _distinct

    kept = _distinct(vertices, num_vertices, "vertex")
    n = int(kept.size)
    new_id = np.full(num_vertices, -1, dtype=np.int64)
    new_id[kept] = np.arange(n)
    member = new_id >= 0
    src, dst, eids = [], [], []
    for graph, first_eid in layouts:
        found = np.flatnonzero(member[graph.src] & member[graph.dst])
        src.append(new_id[graph.src[found]])
        dst.append(new_id[graph.dst[found]])
        eids.append(found + first_eid)
    count = eids[0].shape[0]
    src, dst, eids = map(np.concatenate, (src, dst, eids))
    parent, own = layouts[0][0], eids[:count]
    segments = {
        "in": _reference_inherit(parent, kept, member, own, "in", dst),
        "out": _reference_inherit(parent, kept, member, own, "out", src),
    }
    return Graph.grouped(src, dst, n, segments), kept, eids


def reference_sample(layouts, num_vertices: int, seeds: np.ndarray, hops: int):
    """``(field, distance, subgraph, edge_ids)`` of one sampled batch:
    the k-hop field laid out hop by hop, then :func:`reference_induce`."""
    visited = np.zeros(num_vertices, dtype=bool)
    visited[np.asarray(seeds, dtype=np.int64)] = True
    frontier = np.flatnonzero(visited)
    rings = [frontier]
    for _ in range(hops):
        if frontier.size == 0:
            break
        reached = np.zeros(num_vertices, dtype=bool)
        for graph, _ in layouts:
            index = _reference_positions(graph.csc_indptr, frontier)
            reached[graph.csc_src[index]] = True
        frontier = np.flatnonzero(reached & ~visited)
        visited |= reached
        rings.append(frontier)
    field = np.concatenate(rings)
    distance = np.repeat(np.arange(len(rings)), [r.shape[0] for r in rings])
    sub, kept, eids = reference_induce(layouts, num_vertices, field)
    return kept, distance, sub, eids


def reference_row_block(graph: Graph, orientation: str, lo: int, hi: int,
                        within: Optional[int] = None) -> dict:
    """Every attribute of ``graph.row_block(orientation, lo, hi,
    within)``, cut from ``graph``'s whole groupings and edge list with
    edge-length scratch."""
    if within is not None:
        inner = reference_row_block(graph, "in", 0, within)
        marked = np.zeros(graph.num_edges, dtype=bool)
        marked[inner["eids"]] = True
        by_id = np.flatnonzero(marked)
        by_id = by_id[graph.src[by_id] < hi]
        order = np.argsort(graph.src[by_id], kind="stable")
        indptr = np.zeros(hi + 1, dtype=np.int64)
        np.cumsum(np.bincount(graph.src[by_id], minlength=hi), out=indptr[1:])
        place = np.empty(graph.num_edges, dtype=np.int64)
        place[inner["eids"]] = np.arange(inner["num_edges"], dtype=np.int64)
        order = place[by_id[order]]
        far = inner["dst"][order]
        return dict(
            num_vertices=hi, num_edges=inner["num_edges"], eids=inner["eids"],
            src=inner["src"], dst=inner["dst"], csr_indptr=indptr, csr_eids=order,
            csr_dst=far, out_degrees=np.diff(indptr),
            far_vertices=int(far.max()) + 1 if order.size else 0,
        )
    indptr, eids = graph.segments(orientation)
    far = graph.src if orientation == "in" else graph.dst
    p0, p1 = int(indptr[lo]), int(indptr[hi])
    seg = indptr[lo : hi + 1] - p0
    degrees = np.diff(seg)
    home = np.repeat(np.arange(hi - lo, dtype=np.int64), degrees)
    eids = eids[p0:p1]
    far = far[eids]
    block = dict(
        num_vertices=hi - lo, far_vertices=int(far.max()) + 1 if p1 > p0 else 0,
        num_edges=p1 - p0, eids=eids,
    )
    c = "csc" if orientation == "in" else "csr"
    block.update({
        "src": far if orientation == "in" else home,
        "dst": home if orientation == "in" else far,
        f"{c}_indptr": seg, f"{c}_eids": np.arange(p1 - p0, dtype=np.int64),
        "csc_src" if orientation == "in" else "csr_dst": far,
        "in_degrees" if orientation == "in" else "out_degrees": degrees,
    })
    return block


def reference_operator(block: dict, orientation: str, dtype, heads: int = 1):
    """The unit adjacency operator of a block (:func:`reference_row_block`)
    and the order it reads an edge tensor in, built from fresh arrays."""
    from repro.graph.csr import _interleave, adjacency_operator

    c = "csc" if orientation == "in" else "csr"
    indptr, eids = block[f"{c}_indptr"], block[f"{c}_eids"]
    far = (block["src"] if orientation == "in" else block["dst"])[eids]
    if heads != 1:
        indptr, far, eids = _interleave(indptr, far, eids, heads)
    operator = adjacency_operator(
        indptr, far, block["far_vertices"] * heads, np.ones(far.shape[0], dtype=dtype)
    )
    return operator, eids
