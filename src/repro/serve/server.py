"""The online inference server: batching, caching, scheduling, serving.

:class:`InferenceServer` drives one or more compiled forward plans (one
per tenant) over a shared concrete graph and feature store:

1. each tenant's request stream is coalesced by the micro-batcher
   (:func:`~repro.serve.batcher.coalesce`),
2. each micro-batch expands to its receptive field
   (:func:`~repro.serve.batcher.receptive_field` — the same schedule
   construction as sampled training) and resolves its feature gather
   against the bounded LRU cache (hits shrink the gather bill, misses
   pay it),
3. a :class:`~repro.gpu.cost_model.CostModel`-driven virtual clock
   prices each batch — kernel roofline on the field's stats plus the
   gather cost of the cache misses — and the SLO-aware scheduler
   (:func:`~repro.serve.scheduler.place_batches`) places batches from
   all tenant queues onto the GPU pool (EDF or FIFO),
4. batches execute through the ordinary float32
   :class:`~repro.exec.engine.Engine` on their induced subgraphs, on
   fresh storage, each node on the ring of the field the seeds' rows
   need (``run_plan(distance=)`` with the batch's hop distances), and
   each request's seed rows are delivered — bit-identical to a
   whole-field run's.  The clock still prices the whole field.

A :class:`~repro.gpu.cluster.Cluster` serves as a homogeneous pool —
whole batches are placed on single GPUs, so the interconnect never
enters the serving clock (no partitioning, no halo exchange).
Compiled forwards are expected to come out of the session-level
:class:`~repro.session.PlanCache` (LRU-bounded), which acts as the
plan-level compiled-forward cache serving hammers.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.dyn.delta import DynamicGraph
from repro.dyn.featurestore import FeatureStore

if TYPE_CHECKING:  # runtime import would cycle: dyn.workload uses serve.request
    from repro.dyn.workload import UpdateEvent
from repro.exec.analytic import feature_gather_row_bytes
from repro.exec.engine import Engine
from repro.exec.rings import receptive_hops
from repro.frameworks.strategy import CompiledForward
from repro.gpu.cluster import Cluster
from repro.gpu.cost_model import CostModel
from repro.gpu.spec import GPUSpec
from repro.graph.csr import Graph
from repro.graph.sampling import MiniBatch
from repro.serve.batcher import BatchPolicy, MicroBatch, coalesce, receptive_field
from repro.serve.cache import FeatureCache
from repro.serve.metrics import BatchTrace, RequestOutcome, ServeReport
from repro.serve.request import InferenceRequest
from repro.serve.scheduler import SCHEDULER_POLICIES, PendingBatch, place_batches
from repro.registry import GPUS, whole_count
from repro.exec.profiler import BatchCost

__all__ = ["InferenceServer"]


class _TenantRuntime:
    """Per-tenant compiled state: plan, params, gather-row pricing.

    What a batch needs that is constant for the plan — its output
    name and its receptive-field radius (the forward module's depth) —
    is resolved here once; input names
    are resolved once per model (:meth:`GNNModel.make_inputs`), so no
    batch builds or validates a module.
    """

    def __init__(self, name: str, compiled: CompiledForward):
        if not isinstance(compiled, CompiledForward):
            raise TypeError(
                f"tenant {name!r}: serving takes a CompiledForward "
                "(compile with training=False); got "
                f"{type(compiled).__name__}"
            )
        if len(compiled.forward.outputs) != 1:
            raise ValueError(
                f"tenant {name!r}: serving expects a single-output model"
            )
        self.name = name
        self.compiled = compiled
        self.hops = receptive_hops(compiled.forward)
        self.params = compiled.model.init_params(0)
        self.output_name = compiled.forward.outputs[0]
        self.row_bytes = feature_gather_row_bytes(compiled.plan)


class InferenceServer:
    """Serves online inference requests over one graph + feature store.

    Parameters
    ----------
    graph / features:
        The shared concrete topology and host feature matrix requests
        are answered from (``features`` has one row per vertex).
    compiled:
        A :class:`~repro.frameworks.strategy.CompiledForward`, or a
        mapping ``tenant name -> CompiledForward`` for multi-tenant
        serving.  A bare plan serves the ``"default"`` tenant.
    gpu:
        Device name / :class:`~repro.gpu.spec.GPUSpec` (one GPU) or a
        :class:`~repro.gpu.cluster.Cluster` (a pool of ``num_gpus``
        identical devices).
    batch_policy / scheduler_policy:
        Micro-batching knobs and the queue policy (``"edf"``/``"fifo"``).
    cache_rows:
        LRU feature-cache capacity in rows (0 disables caching).
    execute:
        ``False`` skips concrete engine execution (no delivered
        outputs).  Every metric is analytic, so reports are identical
        either way — the switch exists for costing-only experiments.

    Every tenant serves its model's ``init_params(0)``, at float32,
    on fields of its forward module's depth.
    """

    def __init__(
        self,
        graph: Graph,
        features: np.ndarray,
        compiled: Union[CompiledForward, Mapping[str, CompiledForward]],
        *,
        gpu: Union[str, GPUSpec, Cluster] = "RTX3090",
        batch_policy: Optional[BatchPolicy] = None,
        scheduler_policy: str = "edf",
        cache_rows: int = 0,
        execute: bool = True,
    ):
        if features.shape[0] != graph.num_vertices:
            raise ValueError(
                f"features have {features.shape[0]} rows, graph has "
                f"{graph.num_vertices} vertices"
            )
        # Refuse bad settings here, not mid-stream: batches are
        # placed only after every one is expanded and priced (and, on
        # dynamic runs, the updates before it applied).
        if scheduler_policy not in SCHEDULER_POLICIES:
            raise ValueError(
                f"unknown scheduler policy {scheduler_policy!r}; use one "
                f"of {SCHEDULER_POLICIES}"
            )
        if cache_rows < 0:
            raise ValueError("cache_rows must be non-negative")
        self.graph = graph
        self.features = features
        if isinstance(compiled, Mapping):
            tenant_plans = dict(compiled)
        else:
            tenant_plans = {"default": compiled}
        if not tenant_plans:
            raise ValueError("server needs at least one tenant plan")
        self.tenants: Dict[str, _TenantRuntime] = {
            name: _TenantRuntime(name, plan)
            for name, plan in tenant_plans.items()
        }
        resolved = GPUS.resolve(gpu)
        if isinstance(resolved, Cluster):
            self.cluster: Optional[Cluster] = resolved
            self.spec = resolved.gpu
            self.num_gpus = resolved.num_gpus
        else:
            self.cluster = None
            self.spec = resolved
            self.num_gpus = 1
        self.cost = CostModel(self.spec)
        self.batch_policy = (
            batch_policy if batch_policy is not None else BatchPolicy()
        )
        self.scheduler_policy = scheduler_policy
        self.cache_rows = int(cache_rows)
        self.execute = execute
        #: The feature cache of the most recent :meth:`serve` call.
        self.cache: Optional[FeatureCache] = None
        #: Dynamic state of the most recent :meth:`serve` call (``None``
        #: on static runs).
        self.dynamic_graph: Optional[DynamicGraph] = None
        self.feature_store: Optional[FeatureStore] = None

    # ------------------------------------------------------------------
    def _batch_sequence(
        self,
        requests: Sequence[InferenceRequest],
        *,
        num_vertices: Optional[int] = None,
    ) -> List[MicroBatch]:
        """Coalesce every tenant queue, merged in dispatch order.

        ``num_vertices`` widens seed validation to the post-update
        vertex space on dynamic runs (a seed referencing a vertex whose
        insertion arrives *after* the request's batch dispatch still
        fails, at snapshot-expansion time).
        """
        if num_vertices is None:
            num_vertices = self.graph.num_vertices
        by_tenant: Dict[str, List[InferenceRequest]] = {}
        seen_ids = set()
        for r in requests:
            if r.tenant not in self.tenants:
                raise KeyError(
                    f"request {r.request_id} targets unknown tenant "
                    f"{r.tenant!r}; server tenants: {sorted(self.tenants)}"
                )
            if r.request_id in seen_ids:
                raise ValueError(f"duplicate request_id {r.request_id}")
            seen_ids.add(r.request_id)
            if r.seeds.min() < 0 or r.seeds.max() >= num_vertices:
                raise ValueError(
                    f"request {r.request_id}: seed ids out of range"
                )
            by_tenant.setdefault(r.tenant, []).append(r)
        batches: List[MicroBatch] = []
        for tenant in sorted(by_tenant):
            batches.extend(coalesce(by_tenant[tenant], self.batch_policy))
        # Global dispatch order: the cache sees gathers in the order
        # batches leave the batcher, across all tenant queues.
        batches.sort(key=lambda b: (b.dispatch_s, b.tenant, b.requests[0].request_id))
        return batches

    def _execute_batch(
        self,
        runtime: _TenantRuntime,
        mb: MiniBatch,
        feature_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run the tenant's forward plan on the induced subgraph.

        Only the seeds' rows are read, so the run is restricted to the
        rings they need (the batch's hop distances) and returns the
        ring-0 rows, the seeds'; they are bit-identical to a direct
        whole-field :class:`Engine` run on the same subgraph with the
        same sliced feature rows.
        ``feature_rows`` overrides the static matrix slice on dynamic
        runs: the rows come from the batch's dispatch-time
        :class:`FeatureStore` snapshot.
        """
        compiled = runtime.compiled
        engine = Engine(mb.subgraph)
        if feature_rows is None:
            feature_rows = self.features[mb.vertices]
        arrays = compiled.model.make_inputs(mb.subgraph, feature_rows)
        arrays.update(runtime.params)
        env = engine.bind(compiled.forward, arrays)
        out = engine.run_plan(
            compiled.plan, env, unwrap=True, distance=mb.distance
        )
        return out[runtime.output_name]

    # ------------------------------------------------------------------
    def serve(
        self,
        requests: Sequence[InferenceRequest],
        updates: Optional[Sequence["UpdateEvent"]] = None,
        *,
        compact_every: Optional[int] = None,
    ) -> ServeReport:
        """Serve a request stream on the virtual clock; returns the report.

        ``updates`` turns the run dynamic: the update stream is replayed
        against a :class:`DynamicGraph` overlay of the server's graph
        and a versioned :class:`FeatureStore` copy of its features (the
        originals are never mutated).  Each batch observes the
        graph/feature state current at its *dispatch* time — every
        update with ``arrival_s <= dispatch_s`` applied, later ones
        invisible, regardless of how long the batch then queues for a
        GPU (the arrival-time-snapshot contract: the batcher is
        open-loop, so dispatch times depend only on arrivals, never on
        the scheduler policy).  Feature puts invalidate the serve
        cache's touched rows; the re-gather bill lands in the report's
        invalidated-bytes column.  ``compact_every`` folds the overlay
        into a fresh CSR after every that-many applied deltas —
        compaction changes only the mutation-IO ledger, never an
        answer.  Updates arriving after the last dispatch are still
        applied, so the report's final versions and mutation ledger
        cover the whole stream.
        """
        cache = FeatureCache(self.cache_rows)
        self.cache = cache
        if compact_every is not None:
            compact_every = whole_count(compact_every, "compact_every")
        dynamic = bool(updates)
        pending_updates: List["UpdateEvent"] = []
        dyn: Optional[DynamicGraph] = None
        store: Optional[FeatureStore] = None
        total_new_vertices = 0
        if dynamic:
            pending_updates = sorted(
                updates, key=lambda u: (u.arrival_s, u.update_id)
            )
            ids = {u.update_id for u in pending_updates}
            if len(ids) != len(pending_updates):
                raise ValueError("duplicate update_id in update stream")
            dyn = DynamicGraph(self.graph)
            store = FeatureStore(self.features, cache=cache)
            total_new_vertices = sum(
                u.num_new_vertices for u in pending_updates
            )
        self.dynamic_graph = dyn
        self.feature_store = store
        batches = self._batch_sequence(
            requests,
            num_vertices=self.graph.num_vertices + total_new_vertices,
        )

        num_graph_updates = num_feature_updates = 0
        deltas_since_compact = 0
        next_update = 0

        def apply_updates(horizon_s: Optional[float]) -> None:
            """Apply every update with ``arrival_s <= horizon_s``
            (all remaining when ``None``)."""
            nonlocal next_update, num_graph_updates
            nonlocal num_feature_updates, deltas_since_compact
            while next_update < len(pending_updates):
                event = pending_updates[next_update]
                if horizon_s is not None and event.arrival_s > horizon_s:
                    break
                if event.num_feature_rows:
                    store.put(event.feature_vertices, event.feature_rows)
                    num_feature_updates += 1
                if event.delta is not None:
                    dyn.apply(event.delta)
                    if event.num_new_vertices:
                        store.add_vertices(event.new_vertex_rows)
                    num_graph_updates += 1
                    deltas_since_compact += 1
                    if (
                        compact_every is not None
                        and deltas_since_compact >= compact_every
                    ):
                        dyn.compact()
                        deltas_since_compact = 0
                next_update += 1

        fields: List[MiniBatch] = []
        costs: List[BatchCost] = []
        splits = []
        pending: List[PendingBatch] = []
        versions: List[Tuple[int, int]] = []
        batch_feats: List[Optional[np.ndarray]] = []
        for batch in batches:
            runtime = self.tenants[batch.tenant]
            if dynamic:
                apply_updates(batch.dispatch_s)
                mb = dyn.receptive_field(batch.seeds, runtime.hops)
                versions.append((dyn.version, store.version))
                # Snapshot the field's feature rows now: later batches'
                # puts must not leak into this batch's execution.
                batch_feats.append(
                    store.rows(mb.vertices) if self.execute else None
                )
            else:
                mb = receptive_field(self.graph, batch.seeds, runtime.hops)
                versions.append((0, 0))
                batch_feats.append(None)
            field_stats = mb.subgraph.stats()
            compute = runtime.compiled.counters(field_stats)
            # The batch must fit one pool device.
            self.cost.check_memory(compute)
            # The cache's LRU order follows the rows' order: id order.
            split = cache.gather(np.sort(mb.vertices), runtime.row_bytes)
            service = self.cost.latency_seconds(compute, field_stats)
            service += self.cost.gather_seconds(split.paid_bytes)
            fields.append(mb)
            splits.append(split)
            costs.append(
                BatchCost(
                    seeds=mb.num_seeds,
                    field=mb.field_size,
                    edges=mb.subgraph.num_edges,
                    gather_bytes=split.paid_bytes,
                    compute=compute,
                    stats=field_stats,
                )
            )
            pending.append(
                PendingBatch(
                    dispatch_s=batch.dispatch_s,
                    service_s=service,
                    deadline_s=batch.deadline_s,
                )
            )
        if dynamic:
            apply_updates(None)

        placements = place_batches(
            pending, self.num_gpus, policy=self.scheduler_policy
        )

        gpu_busy = [0.0] * self.num_gpus
        traces: List[BatchTrace] = []
        outcomes: List[RequestOutcome] = []
        outputs: Dict[int, np.ndarray] = {}
        for batch, mb, cost, split, slot, (gv, fv), feats in zip(
            batches, fields, costs, splits, placements, versions, batch_feats,
        ):
            gpu_busy[slot.gpu] += slot.service_s
            traces.append(
                BatchTrace(
                    tenant=batch.tenant,
                    request_ids=tuple(r.request_id for r in batch.requests),
                    dispatch_s=batch.dispatch_s,
                    start_s=slot.start_s,
                    finish_s=slot.finish_s,
                    gpu=slot.gpu,
                    cost=cost,
                    hit_bytes=split.hit_bytes,
                    miss_bytes=split.miss_bytes,
                    invalidated_bytes=split.invalidated_bytes,
                    graph_version=gv,
                    feature_version=fv,
                )
            )
            logits = (
                self._execute_batch(self.tenants[batch.tenant], mb, feats)
                if self.execute
                else None
            )
            for r in batch.requests:
                outcomes.append(
                    RequestOutcome(
                        request_id=r.request_id,
                        tenant=r.tenant,
                        num_seeds=r.num_seeds,
                        arrival_s=r.arrival_s,
                        start_s=slot.start_s,
                        finish_s=slot.finish_s,
                        deadline_s=r.deadline_s,
                        gpu=slot.gpu,
                        snapshot_s=batch.dispatch_s if dynamic else None,
                    )
                )
                if logits is not None:
                    # The field's ring-0 prefix is the batch's seeds,
                    # ascending: a request's rows come from bisection.
                    rows = np.searchsorted(mb.vertices[: mb.num_seeds], r.seeds)
                    outputs[r.request_id] = logits[rows]
        outcomes.sort(key=lambda o: o.request_id)

        return ServeReport(
            outcomes=outcomes,
            batches=traces,
            num_gpus=self.num_gpus,
            gpu_busy_s=gpu_busy,
            batch_policy_max=self.batch_policy.max_batch,
            batch_policy_wait_s=self.batch_policy.max_wait_s,
            scheduler_policy=self.scheduler_policy,
            cache_rows=self.cache_rows,
            num_vertices=(
                dyn.num_vertices if dynamic else self.graph.num_vertices
            ),
            outputs=outputs,
            graph_version=dyn.version if dynamic else 0,
            feature_version=store.version if dynamic else 0,
            num_graph_updates=num_graph_updates,
            num_feature_updates=num_feature_updates,
            compactions=dyn.compactions if dynamic else 0,
            delta_apply_bytes=dyn.apply_bytes if dynamic else 0,
            compact_bytes=dyn.compact_bytes if dynamic else 0,
            feature_put_bytes=(
                store.put_bytes + store.grow_bytes if dynamic else 0
            ),
        )
