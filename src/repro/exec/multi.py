"""Partitioned plan execution: a halo-exchanging driver over per-part
:class:`~repro.exec.engine.Engine` steps.

:class:`MultiEngine` executes the *same* :class:`~repro.exec.plan.ExecPlan`
as ``Engine``, with every vertex/edge tensor sharded across the parts of
a :class:`~repro.graph.partition.GraphPartition` — one array shard per
simulated GPU.  It holds one ``Engine`` per part (over the part's
in-graph) and walks the plan node by node with all shards in lockstep.

**Shared with ``Engine``** — there is no second interpreter here: the
shards run the plan's bound program (:class:`~repro.exec.engine.BoundStep`:
the resolved kernel, operand slots, bf16 boundary rounding, argmax
demand), and binding (casts, storage simulation, graph constants) and
the measured memory ledger are the shard engines' own set-up / step /
per-kernel epilogue.

**Partition-specific** — all this module does:

- **Scatter** reading a vertex tensor through the edge source first
  fetches the part's owned ++ ghost source rows (``halo_in``) and hands
  the step that extended operand,
- **aggregation chains** (:meth:`ExecPlan.chains`): an in-edge
  aggregation or a dot step is one shard step at its head, handed the
  same owned ++ ghost source rows its ``copy_u`` would read, with that
  fetch made where the copy stood.  An out-edge aggregation
  (``copy_v`` → × weight → ``sum|mean`` over out-edges) is one step
  over the part's out-graph, on owned ++ ghost *destination* rows
  (``halo_dst``, fetched where the copy stood) and its weight's rows in
  out-edge order (``halo_out``, fetched where the multiply stood): the
  O(E·f) message never exists and never crosses.  The fetches are made
  whether or not the shards take the chain, so a run that keeps every
  node (narrow storage, ``check_finite``) runs the chain's nodes over
  the out-graph on the same rows — a ``copy_v`` a dot step also reads
  once per graph — and the exchange log depends on the plan and the
  partition only,
- any other **Gather over out-edges** fetches the remotely-owned edge
  rows of its operand (``halo_out``) and hands the step those rows with
  the part's out-graph; every gather output is trimmed to the owned
  rows,
- nodes producing **PARAM/DENSE** values run once and are aliased into
  every shard; **parameter gradients** over sharded rows are
  all-reduced across parts, in part order,
- gather-max **argmax** ids are translated between global and
  part-local edge ids on the way in and out, and results are assembled
  into global arrays.

**Contract.**  Edges are owned by their destination and each local
graph keeps edges in ascending global edge-id order, so every segmented
reduction accumulates in exactly the same order as the single-graph
kernel: graph operators (scatter/gather) and elementwise applies are
**bit-identical** to ``Engine`` given bit-identical operands.
Row-sharded *dense* ops (``linear`` and friends) are not — BLAS does
not produce row-independent bits when the row count changes — so
downstream values agree with ``Engine`` to float tolerance (1e-9
relative at float64; 1e-6 outputs / 1e-4 gradients at float32), as do
parameter gradients, which also carry the associativity of the
cross-part sum.  With a single part nothing is sharded and everything —
values, gradients, measured peak — is bit-identical.  The differential
test suite enforces this; :attr:`MultiEngine.exchanges` records every
transfer so tests (and reports) can reconcile concrete halo bytes
against the analytic :func:`~repro.exec.analytic.plan_comm_records`
schedule.

The engine mirrors the single-GPU API (``bind`` → ``run_plan``) and
returns globally-assembled arrays, so it drops into any place an
``Engine`` runs, backward plans included.

**Overlap.**  ``overlap="threads"`` executes kernels in the
hazard-wave order of :func:`repro.analysis.races.hazard_waves` (each
wave an antichain of the race analyzer's happens-before DAG, so every
reordering it performs is between ``may_overlap``-certified pairs) and
runs each wave's kernels on a ``ThreadPoolExecutor``, with every kernel
writing a private overlay that is merged in kernel order after the
wave.  It flattens exchange records in plan-kernel order and replays
the memory ledgers serially, so outputs, exchange schedules, and
measured peaks stay bit-identical to the serial oracle — the
differential contract the runtime tests pin.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

import numpy as np

from repro.exec.engine import BoundStep, Engine, PlanRun, translate_argmax
from repro.exec.plan import AggregationChain, ExecPlan
from repro.graph.csr import Graph
from repro.graph.partition import (
    GraphPartition,
    allreduce_bytes_per_gpu,
    partition_graph,
)
from repro.ir.functions import get_scatter_fn
from repro.ir.module import Module
from repro.ir.ops import OpKind, OpNode
from repro.ir.tensorspec import Domain

__all__ = ["MultiEngine", "ExchangeRecord", "MultiEnv"]

#: Domains whose values every simulated GPU holds in full.
_REPLICATED = (Domain.PARAM, Domain.DENSE)


@dataclass(frozen=True)
class ExchangeRecord:
    """One concrete interconnect transfer performed during a run."""

    label: str
    kind: str                 # "halo_in" | "halo_dst" | "halo_out" | "allreduce"
    bytes_per_gpu: Tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_per_gpu)


@dataclass
class MultiEnv:
    """Sharded execution environment: one value dict per part.

    Vertex/edge values hold the part's owned rows; PARAM/DENSE values
    are replicated — the same array (leading 1-axis) in every dict.
    """

    parts: List[Dict[str, np.ndarray]]


@dataclass(frozen=True)
class _FetchPlan:
    """Where the rows one part's exchange hands its step live: indices
    into the parts' owned rows stacked in part order, and how many of
    those rows another part owns (the interconnect traffic)."""

    index: np.ndarray
    remote_rows: int

    @classmethod
    def build(cls, part_id, owner_part, owner_row, offsets) -> "_FetchPlan":
        return cls(
            index=offsets[owner_part] + owner_row,
            remote_rows=int((owner_part != part_id).sum()),
        )


def _out_aggregations(
    plan: ExecPlan, index: int
) -> Tuple[Dict[str, AggregationChain], Set[str]]:
    """Kernel ``index``'s out-edge aggregations by member name (copy,
    ``mul`` and head), and the copies among them that an in-graph chain
    (a dot step) also reads."""
    chains = {c.head.name: c for c in plan.chains(index).values()}.values()
    outs = {
        n.name: c
        for c in chains if c.over_out_edges
        for n in c.interior + (c.head,)
    }
    shared = {
        n.name
        for c in chains if outs.get(c.head.name) is not c
        for n in c.interior if n.name in outs
    }
    return outs, shared


class MultiEngine:
    """Executes plans on a partitioned graph with explicit halo exchange.

    Parameters
    ----------
    graph:
        Global topology.
    partition:
        A prebuilt :class:`GraphPartition`, or an integer GPU count (a
        hash partition with seed 0 is built).
    precision:
        As in :class:`~repro.exec.engine.Engine`; every shard engine
        shares it.
    overlap:
        ``None`` (serial oracle, kernels in plan order) or
        ``"threads"`` (hazard waves on a real thread pool), which is
        bit-identical to the serial oracle.
    """

    OVERLAP_MODES = (None, "threads")

    def __init__(
        self,
        graph: Graph,
        partition: Union[GraphPartition, int],
        *,
        precision: str = "float32",
        overlap: Optional[str] = None,
    ):
        if overlap not in self.OVERLAP_MODES:
            raise ValueError(
                f"unknown overlap mode {overlap!r}; use one of "
                f"{self.OVERLAP_MODES}"
            )
        self.overlap = overlap
        #: Hazard waves of the most recent overlapped :meth:`run_plan`.
        self.overlap_waves: Optional[List[List[int]]] = None
        if isinstance(partition, int):
            partition = partition_graph(graph, partition)
        if partition.graph is not graph:
            raise ValueError("partition was built for a different graph")
        self.graph = graph
        self.partition = partition
        # Binding (casts, storage simulation, shape checks, graph
        # constants) happens once on global arrays, by a global Engine.
        self._binder = Engine(graph, precision=precision)
        self.precision = self._binder.precision
        #: One interpreter per simulated GPU, over the part's in-graph,
        #: taking every chain.  Nothing is freed mid-run: threaded runs
        #: execute out of plan order and replay the per-kernel epilogues
        #: afterwards.
        self._shards = [
            Engine(part.in_graph, precision=precision, free_dead_values=False)
            for part in partition.parts
        ]
        #: Transfers performed by the most recent :meth:`run_plan`.
        self.exchanges: List[ExchangeRecord] = []
        #: Per-part live-byte high-watermarks of the most recent run,
        #: under the analytic ledger discipline (owned shards only;
        #: replicated PARAM/DENSE values charged to every part).  Each
        #: entry is bounded by the per-partition analytic walk, whose
        #: vertex extents additionally cover the ghost rows.
        self.measured_peak_bytes_per_gpu: List[int] = []
        # Fetch plans per exchange kind and part, into the owned rows
        # stacked in part order.  halo_in / halo_dst: the part's owned
        # rows, then its ghost sources / ghost destinations; halo_out:
        # the part's out-edges, each owned by its destination's part.
        assignment, parts = partition.assignment, partition.parts
        vertex_at = np.cumsum([0] + [p.num_owned for p in parts])
        edge_at = np.cumsum([0] + [p.in_edge_ids.size for p in parts])

        def vertex_rows(p, ghosts) -> _FetchPlan:
            return _FetchPlan.build(
                p.part_id,
                np.concatenate([np.full(p.num_owned, p.part_id), assignment[ghosts]]),
                np.concatenate([
                    np.arange(p.num_owned), partition.vertex_owner_row[ghosts],
                ]),
                vertex_at,
            )

        self._fetch_plans = {
            "halo_in": [vertex_rows(p, p.ghost_src) for p in parts],
            "halo_dst": [vertex_rows(p, p.ghost_dst) for p in parts],
            "halo_out": [
                _FetchPlan.build(
                    p.part_id, assignment[graph.dst[p.out_edge_ids]],
                    partition.edge_owner_row[p.out_edge_ids], edge_at,
                )
                for p in parts
            ],
        }

    @property
    def num_parts(self) -> int:
        return self.partition.num_parts

    @property
    def comm_bytes(self) -> int:
        """Total interconnect bytes of the most recent run."""
        return sum(r.total_bytes for r in self.exchanges)

    def comm_bytes_per_gpu(self) -> List[int]:
        totals = [0] * self.num_parts
        for record in self.exchanges:
            for p, b in enumerate(record.bytes_per_gpu):
                totals[p] += b
        return totals

    # ------------------------------------------------------------------
    # Binding: global arrays -> shards
    # ------------------------------------------------------------------
    def bind(self, module: Module, arrays: Mapping[str, np.ndarray]) -> MultiEnv:
        """Shard global input/param arrays across the parts.

        Vertex tensors are sliced to owned rows, edge tensors to owned
        edges; PARAM/DENSE values are replicated.  Gather-max argmax
        tensors arriving as *inputs* (a stashed backward operand) are
        translated from global COO edge ids to part-local ids.
        """
        argmax_inputs = self._argmax_input_names(module)
        env = MultiEnv(parts=[{} for _ in range(self.num_parts)])
        for name, full in self._binder.bind(module, arrays).items():
            domain = module.specs[name].domain
            for part, values in zip(self.partition.parts, env.parts):
                if domain in _REPLICATED:
                    values[name] = full
                elif domain is Domain.EDGE:
                    values[name] = full[part.in_edge_ids]
                elif name in argmax_inputs:
                    values[name] = translate_argmax(
                        full[part.owned], self.partition.edge_owner_row
                    )
                else:
                    values[name] = full[part.owned]
        return env

    def _argmax_input_names(self, module: Module) -> Set[str]:
        """Module inputs that carry gather-max argmax edge ids."""
        names = set(module.inputs)
        return {
            node.inputs[1]
            for node in module.nodes
            if node.kind is OpKind.SCATTER and node.fn == "max_grad"
            and node.inputs[1] in names
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_plan(
        self,
        plan: ExecPlan,
        env: MultiEnv,
        *,
        unwrap: bool = True,
    ) -> Dict[str, np.ndarray]:
        """Execute ``plan`` on every part; return global arrays.

        Matches :meth:`Engine.run_plan`: the result holds module
        outputs plus the plan's keep set in the same order, assembled
        from the shards (argmax values are translated back to global
        edge ids).
        """
        module = plan.module
        runs = [
            shard._begin(plan, values)
            for shard, values in zip(self._shards, env.parts)
        ]
        # Exchange records collected per kernel and flattened in plan
        # order, so the schedule reconciles against plan_comm_records
        # regardless of the execution order the thread pool picks.
        sinks: List[List[ExchangeRecord]] = [[] for _ in plan.kernels]
        if self.overlap is None:
            self.overlap_waves = None
            for ki in range(len(plan.kernels)):
                self._run_kernel(plan, ki, runs, sinks[ki])
        else:
            # Local import: the analysis layer sits above this
            # low-level module, which must not import it eagerly.
            from repro.analysis.races import hazard_waves

            self.overlap_waves = hazard_waves(plan)
            self._run_threaded(plan, self.overlap_waves, runs, sinks)
        # Per-kernel epilogues replayed in plan order: the ledger reads
        # only its own kernel's writes and frees by liveness index, and
        # no value was dropped, so the replay reproduces the serial
        # peaks exactly whatever order the kernels ran in.
        for kernel in runs[0].program.kernels:
            for shard, run in zip(self._shards, runs):
                shard._end_kernel(run, kernel)
        self.exchanges = [record for records in sinks for record in records]
        self.measured_peak_bytes_per_gpu = [run.ledger.peak_bytes for run in runs]

        argmax_values = {
            node.outputs[1]
            for node in module.nodes
            if node.kind is OpKind.GATHER and node.fn == "max"
            and len(node.outputs) > 1
        }
        return {
            name: self._assemble(
                name, slot, module, runs,
                to_global_argmax=name in argmax_values, unwrap=unwrap,
            )
            for name, slot, _ in runs[0].program.results
        }

    def _run_threaded(
        self,
        plan: ExecPlan,
        waves: List[List[int]],
        runs: List[PlanRun],
        sinks: List[List[ExchangeRecord]],
    ) -> None:
        """Run each multi-kernel wave on a thread pool.

        A wave is an antichain of the hazard DAG, so its kernels
        neither read nor write each other's roots — they commute, and
        can run concurrently against the shared base state, each
        writing a private copy of the slot lists whose new entries are
        merged afterwards.
        """
        workers = max(1, min(16, os.cpu_count() or 1))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for wave in waves:
                if len(wave) == 1:
                    self._run_kernel(plan, wave[0], runs, sinks[wave[0]])
                    continue
                overlays = {
                    ki: [replace(run, values=list(run.values)) for run in runs]
                    for ki in wave
                }
                futures = [
                    pool.submit(self._run_kernel, plan, ki, overlays[ki], sinks[ki])
                    for ki in wave
                ]
                for fut in futures:
                    fut.result()
                # Merge what each kernel wrote, in kernel order.  Same-
                # wave kernels never write the same root (WAW is a
                # hazard edge), so the merge order is cosmetic; kernel
                # order keeps it deterministic anyway.
                bases = [list(run.values) for run in runs]
                for ki in wave:
                    for run, base, overlay in zip(runs, bases, overlays[ki]):
                        for slot, value in enumerate(overlay.values):
                            if value is not base[slot]:
                                run.values[slot] = value

    # -- the lockstep driver -------------------------------------------
    def _run_kernel(
        self,
        plan: ExecPlan,
        kernel_index: int,
        runs: List[PlanRun],
        exchanges: List[ExchangeRecord],
    ) -> None:
        """Step every shard through one kernel, node by node.

        Each node runs as its bound step on the shard engines; this
        driver only adds what a partition needs around it: halo rows
        for the operands another part owns, trimming gather outputs to
        owned rows, and running replicated (PARAM/DENSE) nodes once.  A
        taken chain is one step at its head, on the rows its copy would
        have read; the nodes it stands in for have no step.  An out-edge
        aggregation runs over the part's out-graph, as one step or node
        by node.  ``runs`` may hold a thread's private slot lists.
        """
        specs = plan.module.specs
        parts = self.partition.parts
        program = runs[0].program
        # Per-kernel exchange cache: nodes sharing an operand share one
        # halo transfer, mirroring plan_comm_records.
        halo = (plan, runs, {}, exchanges)
        outs, shared = _out_aggregations(plan, kernel_index)
        # Out-aggregation members run node by node: their values per
        # part, in out-edge order.
        far: Dict[str, List[np.ndarray]] = {}
        for node in plan.kernels[kernel_index].nodes:
            step = program.step_of.get(node.name)
            if specs[node.outputs[0]].domain in _REPLICATED:
                self._run_replicated(step, specs, runs, exchanges)
                continue
            chain = outs.get(node.name)
            graphs = ins = None
            if chain is not None:
                # Owned ++ ghost destination rows and the weight's rows
                # in out-edge order, fetched where the copy and the
                # multiply stand whether or not the chain is taken.
                rows = self._fetch("halo_dst", chain.operands[0], *halo)
                copy = node is chain.interior[0]
                weight = None if copy or chain.weight is None else self._fetch(
                    "halo_out", chain.weight, *halo
                )
                if step is None:
                    continue
                graphs = [part.out_graph for part in parts]
                if copy:
                    ins = [[x] for x in rows]
                elif step.chain is not None:
                    ins = [[x] for x in rows] if weight is None else [
                        [x, w] for x, w in zip(rows, weight)
                    ]
                else:
                    ins = [
                        [far[n][p] if n in far else weight[p] for n in node.inputs]
                        for p in range(self.num_parts)
                    ]
            else:
                u_name = self._source_read(node, None if step is None else step.chain)
                if u_name is not None:
                    # The source-side operand needs its halo refreshed.
                    # A copy a chain stands in for still fetches here,
                    # so the exchange log keeps the per-node order.
                    rows = self._fetch("halo_in", u_name, *halo)
                if step is None:
                    continue
                if u_name is not None:
                    # Owned rows ++ ghost rows, the in-graph's local ids.
                    ins = [
                        [x, *map(run.values.__getitem__, step.ins[1:])]
                        for x, run in zip(rows, runs)
                    ]
                elif node.kind is OpKind.GATHER and node.orientation == "out":
                    ins = [[x] for x in self._fetch("halo_out", node.inputs[0], *halo)]
                    graphs = [part.out_graph for part in parts]
            for p, (part, shard, run) in enumerate(zip(parts, self._shards, runs)):
                shard._run_step(
                    run, step, None if ins is None else ins[p],
                    None if graphs is None else graphs[p],
                )
                if node.kind is OpKind.GATHER:
                    # Local graphs carry ghost vertices after the owned
                    # ones; only the owned rows are this part's output.
                    for slot in (step.out, step.argmax):
                        if slot is not None:
                            run.values[slot] = run.values[slot][:part.num_owned]
                elif chain is not None:
                    # An interior value in out-edge order stays off the
                    # slot, which a dot step sharing the copy reads in
                    # in-edge order: that copy runs over the in-graph too.
                    far.setdefault(node.outputs[0], []).append(run.values[step.out])
                    run.values[step.out] = None
                    if node.name in shared:
                        shard._run_step(run, step)

    @staticmethod
    def _source_read(
        node: OpNode, chain: Optional[AggregationChain]
    ) -> Optional[str]:
        """The vertex operand ``node``'s step reads through the edge
        source, if any: a taken in-edge chain's or dot step's first
        operand (its ``copy_u``'s rows), or a scatter's ``u``."""
        if chain is not None:
            return chain.operands[0]
        if node.kind is OpKind.SCATTER:
            fn = get_scatter_fn(node.fn)
            if fn.reads_u and not fn.vertex_direct_read:
                return node.inputs[0]
        return None

    def _run_replicated(
        self,
        step: BoundStep,
        specs,
        runs: List[PlanRun],
        exchanges: List[ExchangeRecord],
    ) -> None:
        """A node whose output every GPU holds in full: run it once on
        shard 0 and alias the result into every shard.

        With replicated operands every GPU would compute the same
        value.  A PARAM_GRAD over sharded rows instead computes one
        partial per part, all-reduced here in part order; the node
        boundary (bf16 rounding) closes on the sum, not the partials.
        """
        first, shard = runs[0], self._shards[0]
        node, out = step.node, step.out
        if node.kind is not OpKind.PARAM_GRAD or all(
            specs[n].domain in _REPLICATED for n in node.inputs
        ):
            shard._run_step(first, step)
        else:
            for engine, run in zip(self._shards, runs):
                engine._dispatch(
                    step, run.values, [run.values[slot] for slot in step.ins],
                    engine.graph,
                )
            total = first.values[out]
            for run in runs[1:]:
                total = total + run.values[out]
            first.values[out] = total
            if step.finishes:
                shard._finish(step, first.values)
            if self.num_parts > 1:
                # Storage-width bytes (spec row_bytes), matching the
                # analytic allreduce schedule under any precision.
                share = allreduce_bytes_per_gpu(
                    specs[node.outputs[0]].row_bytes, self.num_parts
                )
                exchanges.append(
                    ExchangeRecord(
                        label=node.name, kind="allreduce",
                        bytes_per_gpu=tuple([share] * self.num_parts),
                    )
                )
        for run in runs[1:]:
            run.values[out] = first.values[out]

    # -- halo exchanges -------------------------------------------------
    def _fetch(
        self,
        kind: str,
        name: str,
        plan: ExecPlan,
        runs: List[PlanRun],
        halo_cache: Dict[Tuple[str, str], List[np.ndarray]],
        exchanges: List[ExchangeRecord],
    ) -> List[np.ndarray]:
        """Per part, the rows of ``name`` its step reads, gathered from
        the parts owning them.

        ``halo_in`` / ``halo_dst`` hand a vertex tensor's owned rows
        followed by its ghost-source / ghost-destination rows (all
        remote); ``halo_out`` lays an edge tensor out in each part's
        out-edge order, where rows owned locally are copied for free
        and only remotely-owned rows count as interconnect traffic.
        Each part's rows are one ``np.take`` from the owned rows stacked
        in part order.

        Transfer accounting charges the value's *storage* width per
        remote row (``TensorSpec.row_bytes``), so fp16 halos cost half
        of fp32 and qint8 halos ship int8 rows plus their scales,
        matching ``plan_comm_records`` exactly even when the simulation
        materialises wider concrete arrays.
        """
        root_label = plan.root_of(name)
        key = (kind, root_label)
        if key in halo_cache:
            return halo_cache[key]
        slot = runs[0].program.slots[name]
        owned = [run.values[slot] for run in runs]
        stacked = owned[0] if len(owned) == 1 else np.concatenate(owned)
        fetch_plans = self._fetch_plans[kind]
        fetched = [np.take(stacked, fp.index, axis=0) for fp in fetch_plans]
        if self.num_parts > 1:
            row_bytes = plan.module.specs[name].row_bytes
            exchanges.append(
                ExchangeRecord(
                    label=root_label, kind=kind,
                    bytes_per_gpu=tuple(fp.remote_rows * row_bytes for fp in fetch_plans),
                )
            )
        halo_cache[key] = fetched
        return fetched

    # -- assembly -------------------------------------------------------
    def _assemble(
        self,
        name: str,
        slot: int,
        module: Module,
        runs: List[PlanRun],
        *,
        to_global_argmax: bool,
        unwrap: bool,
    ) -> np.ndarray:
        spec = module.specs[name]
        if spec.domain in _REPLICATED:
            arr = runs[0].values[slot]
            return arr[0] if unwrap else arr
        V, E = self.graph.num_vertices, self.graph.num_edges
        sample = runs[0].values[slot]
        out = np.empty((spec.rows(V, E),) + sample.shape[1:], dtype=sample.dtype)
        for part, run in zip(self.partition.parts, runs):
            shard = run.values[slot]
            if to_global_argmax:
                shard = translate_argmax(shard, part.in_edge_ids)
            if spec.domain is Domain.VERTEX:
                out[part.owned] = shard
            else:
                out[part.in_edge_ids] = shard
        return out
