"""Fluent entry point: name-based configuration, cached compilation,
and cross-product sweeps.

One configuration::

    import repro

    report = (
        repro.session()
        .model("gat").dataset("cora").strategy("ours").gpu("RTX3090")
        .report(train_steps=5)
    )
    print(report.summary())

A :class:`Session` holds its configuration in one frozen
:class:`RunConfig`; each fluent setter replaces one of its axes:

- ``model`` — a registry name (sized from the dataset) or a
  ``GNNModel`` instance;
- ``dataset`` — a registry name, a ``Dataset``, or raw ``GraphStats``
  (:meth:`Session.stats`, named by ``workload``);
- ``strategy`` and ``precision`` — what the plan is compiled with:
  an ``ExecutionStrategy`` or its name, a feature-storage precision;
- ``gpu`` — a ``GPUSpec``, its name, or a ``Cluster``
  (:meth:`Session.cluster`, whose ``partitioner`` is the one home of
  the partition method);
- ``feature_dim`` and ``minibatch`` — the input width of registry
  models and the sampled mini-batch epoch.

Labels of reports and rows, the memo's parameters and every terminal
read that one record, and :class:`RunConfig` validates each axis.

A sweep over the cross product of registry names builds one
:class:`RunConfig` per point and prices it through the same path::

    sweep = repro.run_sweep(
        models=["gat", "gcn"],
        datasets=["cora", "pubmed"],
        strategies=["dgl-like", "ours"],
        feature_dim=64,
        save_as="my_sweep",        # -> benchmarks/results/my_sweep.json
    )
    print(sweep.table())

Compiled plans are cached per :class:`PlanCache` keyed by *(structural
model signature, strategy name)* — a sweep over N datasets that share
feature/class widths compiles each (model, strategy) pair exactly once,
because the plan depends only on the model's IR, never on the topology
the counters are later evaluated on.  The strategies compiled for one
model object share its pure stages (:mod:`repro.opt.stages`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exec.memory import StepMemoryPlan
from repro.exec.profiler import Counters, MiniBatchCounters, MultiGPUCounters
from repro.exec.rings import receptive_hops
from repro.frameworks import compile_forward, compile_training
from repro.frameworks.strategy import ExecutionStrategy
from repro.gpu.cluster import Cluster, ClusterCostModel, make_cluster
from repro.gpu.cost_model import CostModel
from repro.gpu.spec import GPUSpec
from repro.graph.datasets import Dataset, get_dataset
from repro.graph.partition import (
    PARTITION_METHODS,
    PartitionStats,
    partition_graph,
)
from repro.graph.sampling import plan_minibatches
from repro.graph.stats import GraphStats, expected_field_stats
from repro.ir.serialize import dumps_module
from repro.models.base import GNNModel
from repro.opt.stages import StageMemo
from repro.registry import GPUS, MODELS, STRATEGIES, whole_count
import repro.models  # noqa: F401  (populates the model registry)

__all__ = [
    "Session",
    "session",
    "PlanCache",
    "model_signature",
    "ExperimentReport",
    "SweepRow",
    "SweepReport",
    "run_sweep",
]


#: Per-instance signature memo — models are immutable once built, so
#: the IR fingerprint never needs recomputing for the same object.
_SIGNATURES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def model_signature(model: GNNModel, stages: Optional[StageMemo] = None) -> str:
    """Structural fingerprint of a model's naive IR.

    Two model instances with identical architecture and dimensions hash
    identically, so compiled plans are shared across datasets that agree
    on feature/class widths.  The hashed module is the float32 naive
    module ``stages`` holds for ``model`` (a fresh memo's when ``None``),
    the one its compiles then start from.
    """
    try:
        return _SIGNATURES[model]
    except (KeyError, TypeError):
        pass
    stages = StageMemo() if stages is None else stages
    payload = dumps_module(stages.naive(model))
    sig = hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]
    try:
        _SIGNATURES[model] = sig
    except TypeError:  # non-weakreferenceable model subclass
        pass
    return sig


class PlanCache:
    """Bounded LRU memo of compiled plans keyed by (model signature,
    strategy, training).

    The strategy enters the key by *value* (it is a frozen dataclass),
    so two strategies sharing a name but differing in any knob never
    alias each other's plans.

    ``capacity`` bounds the number of resident compilations — serving
    hammers this cache (every tenant × strategy resolves through it),
    so it must not grow without limit.  The default is generous enough
    that sweeps over the whole zoo never evict; ``None`` removes the
    bound.  Hit/miss/eviction counters are exposed for reports.

    Beside the plans, the cache keeps one :class:`StageMemo` per model
    object, keyed weakly: every strategy compiled for that object reuses
    its naive module, reorganised forward, backward and kernel
    partitions.  A memo dies with its model, so it cannot outgrow the
    models the caller (or a resident plan) still holds.
    """

    DEFAULT_CAPACITY = 128

    def __init__(self, capacity: Optional[int] = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None: unbounded)")
        self.capacity = capacity
        self._plans: "OrderedDict[Tuple[str, ExecutionStrategy, bool], object]" = (
            OrderedDict()
        )
        self._stages: "weakref.WeakKeyDictionary[GNNModel, StageMemo]" = (
            weakref.WeakKeyDictionary()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stages(self, model: GNNModel) -> StageMemo:
        """The memo of ``model``'s pure compile stages (a fresh one for
        a model that cannot be weakly referenced)."""
        try:
            memo = self._stages.get(model)
            if memo is None:
                memo = self._stages[model] = StageMemo()
        except TypeError:
            memo = StageMemo()
        return memo

    def get_or_compile(
        self,
        model: GNNModel,
        strategy: ExecutionStrategy,
        *,
        training: bool = True,
    ):
        stages = self.stages(model)
        key = (model_signature(model, stages), strategy, training)
        if key in self._plans:
            self.hits += 1
            self._plans.move_to_end(key)
            return self._plans[key]
        self.misses += 1
        compile_ = compile_training if training else compile_forward
        compiled = compile_(model, strategy, stages=stages)
        self._plans[key] = compiled
        if self.capacity is not None:
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
        return compiled

    def clear(self) -> None:
        self._plans.clear()
        self._stages.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)


# ======================================================================
@dataclass
class ExperimentReport:
    """Everything one configuration produced.

    Single-GPU runs leave ``multi`` as ``None`` (all of ``latency_s``
    is compute); cluster runs attach the per-GPU shards (compute
    counters + halo traffic per device) and the modelled
    communication/computation time split.
    """

    model: str
    dataset: str
    strategy: str
    gpu: str
    counters: Counters
    latency_s: float
    fits_device: bool
    losses: List[float] = field(default_factory=list)
    final_accuracy: Optional[float] = None
    num_gpus: int = 1
    multi: Optional[MultiGPUCounters] = None
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    #: Sampled mini-batch runs: seed batch size and the per-batch epoch
    #: counters (``counters`` above stays the full-graph reference;
    #: ``latency_s``/``fits_device`` reflect the sampled epoch).
    batch_size: Optional[int] = None
    minibatch: Optional[MiniBatchCounters] = None
    #: The configured storage precision (``None``: the strategy's own).
    precision: Optional[str] = None

    @property
    def priced(self):
        """The counters ``latency_s``/``fits_device`` were priced on: the
        sampled epoch, the cluster's shards, or the full-graph step."""
        if self.minibatch is not None:
            return self.minibatch
        return self.multi if self.multi is not None else self.counters

    @property
    def comm_fraction_time(self) -> float:
        total = self.compute_seconds + self.comm_seconds
        return self.comm_seconds / total if total > 0 else 0.0

    def summary(self) -> str:
        lines = [
            f"{self.model} on {self.dataset} [{self.strategy}, {self.gpu}]",
            f"  flops          {self.counters.flops / 1e9:10.2f} G",
            f"  dram io        {self.counters.io_bytes / 2**20:10.2f} MiB",
            f"  peak memory    {self.counters.peak_memory_bytes / 2**20:10.2f} MiB"
            + ("" if self.fits_device else "  ** exceeds device DRAM **"),
            f"  stash          {self.counters.stash_bytes / 2**20:10.2f} MiB",
            f"  kernel launches{self.counters.launches:8d}",
            # Mini-batch latency is one sampled *epoch* (a full vertex
            # pass — the unit comparable to a full-graph step).
            f"  modelled {'epoch' if self.minibatch is not None else 'step '} "
            f"{self.latency_s * 1e3:10.2f} ms",
        ]
        if self.minibatch is not None:
            mb = self.minibatch
            lines.append(
                f"  mini-batch     {self.batch_size} seeds/batch, "
                f"{mb.num_batches} batches/epoch"
            )
            lines.append(
                f"  feature gather {mb.gather_bytes / 2**20:10.2f} MiB/epoch "
                f"(field expansion {mb.expansion:.2f}x)"
            )
            lines.append(
                f"  epoch io       {mb.io_bytes / 2**20:10.2f} MiB "
                "(gathers + kernels; dram io above is the full-graph step)"
            )
            lines.append(
                f"  per-batch peak {mb.peak_memory_bytes / 2**20:10.2f} MiB"
            )
        if self.multi is not None:
            lines.append(f"  gpus           {self.num_gpus:8d}")
            for i, shard in enumerate(self.multi.per_gpu):
                lines.append(
                    f"    gpu{i}: flops {shard.compute.flops / 1e9:.2f} G, "
                    f"io {shard.compute.io_bytes / 2**20:.1f} MiB, "
                    f"peak {shard.compute.peak_memory_bytes / 2**20:.1f} MiB, "
                    f"halo {shard.comm_bytes / 2**20:.2f} MiB"
                )
            lines.append(
                f"  halo exchange  {self.multi.comm_bytes / 2**20:10.2f} MiB "
                f"({self.multi.cut_edges} cut edges)"
            )
            lines.append(
                f"  comm/compute   {self.comm_seconds * 1e3:.2f} ms / "
                f"{self.compute_seconds * 1e3:.2f} ms "
                f"(comm fraction {self.comm_fraction_time * 100:.1f}%)"
            )
        if self.losses:
            lines.append(
                f"  training       {len(self.losses)} steps, "
                f"loss {self.losses[0]:.4f} -> {self.losses[-1]:.4f}"
                + (
                    f", acc {self.final_accuracy:.3f}"
                    if self.final_accuracy is not None
                    else ""
                )
            )
        return "\n".join(lines)


# ======================================================================
@dataclass(frozen=True)
class RunConfig:
    """One configuration: every axis a :class:`Session` setter sets.

    Private to this module — the fluent setters are the one way to
    configure.  Construction validates each axis, so a setter refuses a
    bad value where it is given, and the record is frozen: a setter
    replaces it, never edits it, and the memo keys read its fields.
    """

    #: Registry name (sized from ``dataset``) or a model instance.
    model: Union[str, GNNModel, None] = None
    #: Registry name, ``Dataset``, or raw ``GraphStats``.
    dataset: Union[str, Dataset, GraphStats, None] = None
    #: Label of a raw ``GraphStats`` workload.
    workload: str = "custom"
    strategy: Union[str, ExecutionStrategy] = "ours"
    #: Canonical feature-storage precision; ``None`` keeps the
    #: strategy's own.
    precision: Optional[str] = None
    #: Registry name, ``GPUSpec``, or ``Cluster``.
    gpu: Union[str, GPUSpec, Cluster] = "RTX3090"
    #: Partition method of a cluster run (``None``: hash).
    partitioner: Optional[str] = None
    #: Input width of registry models (``None``: the dataset's).
    feature_dim: Optional[int] = None
    #: Sampled mini-batch epoch: ``(batch_size, seed)``, each field at
    #: the model's depth.
    minibatch: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.partitioner not in (None, *PARTITION_METHODS):
            raise ValueError(
                f"partition method must be in {PARTITION_METHODS}, "
                f"got {self.partitioner!r}"
            )
        if self.precision is not None:
            from repro.ir.precision import canonical_precision

            object.__setattr__(
                self, "precision", canonical_precision(self.precision)
            )
        if self.feature_dim is not None:
            object.__setattr__(
                self, "feature_dim", whole_count(self.feature_dim, "feature_dim")
            )
        if self.minibatch is not None:
            batch_size, seed = self.minibatch
            object.__setattr__(
                self, "minibatch", (whole_count(batch_size, "batch_size"), seed)
            )

    def device(self) -> Union[GPUSpec, Cluster]:
        """The resolved ``gpu`` axis: a spec, or a cluster."""
        return GPUS.resolve(self.gpu)

    def labels(self) -> Dict[str, Optional[str]]:
        """The names a report or sweep row shows for this configuration."""
        m, d, s, g = self.model, self.dataset, self.strategy, self.gpu
        device = self.device()
        if isinstance(d, GraphStats) or d is None:
            dataset = self.workload
        else:
            dataset = d if isinstance(d, str) else d.name
        return dict(
            model=m if isinstance(m, str) else m.name,
            dataset=dataset,
            strategy=s if isinstance(s, str) else s.name,
            gpu=(
                device.name if isinstance(device, Cluster)
                else g if isinstance(g, str) else g.name
            ),
            precision=self.precision,
        )


# ======================================================================
class Session:
    """Fluent configuration builder over the unified registries.

    Each setter replaces one axis of the session's :class:`RunConfig`
    and returns ``self``; terminal methods (:meth:`compile`,
    :meth:`counters`, :meth:`report`, :meth:`serve`) resolve names,
    compile through the shared :class:`PlanCache`, and evaluate.
    """

    def __init__(self, *, cache: Optional[PlanCache] = None) -> None:
        self._cache = cache if cache is not None else PlanCache()
        self._config = RunConfig()
        # Derived artifacts (the resolved registry model, partition
        # stats, counters of every kind, memory plans), so counters()
        # followed by latency_seconds()/fits() analyses once, not three
        # times; see _memoised.
        self._memo: Dict[tuple, tuple] = {}

    def _set(self, **axes) -> "Session":
        self._config = replace(self._config, **axes)
        return self

    # -- fluent setters ------------------------------------------------
    def model(self, model: Union[str, GNNModel]) -> "Session":
        """Registry name (needs a dataset for dims) or model instance."""
        return self._set(model=model)

    def dataset(self, dataset: Union[str, Dataset]) -> "Session":
        return self._set(dataset=dataset)

    def stats(self, stats: GraphStats, workload: str = "custom") -> "Session":
        """Evaluate counters on raw ``GraphStats`` (no named dataset)."""
        return self._set(dataset=stats, workload=workload)

    def strategy(self, strategy: Union[str, ExecutionStrategy]) -> "Session":
        return self._set(strategy=strategy)

    def precision(self, precision: Optional[str]) -> "Session":
        """Select the feature-storage precision of this configuration.

        ``precision`` is a policy name from
        :mod:`repro.ir.precision` — ``"fp32"`` (the oracle),
        ``"fp16"``/``"bf16"`` half-width feature storage, or ``"int8"``
        per-row quantized feature gathers with fp32 accumulation.  The
        resolved strategy carries the choice
        (``ExecutionStrategy.precision``), so compiled specs, analytic
        IO/memory ledgers, arena slabs, serving cache rows, and
        concrete execution all see the storage dtype.
        ``precision(None)`` restores the strategy's own (fp32)
        precision.
        """
        return self._set(precision=precision)

    def gpu(self, gpu: Union[str, GPUSpec]) -> "Session":
        """Single device by name/spec (a registered cluster name works too)."""
        return self._set(gpu=gpu, partitioner=None)

    def cluster(
        self,
        gpu: Union[str, GPUSpec, Cluster],
        num_gpus: Optional[int] = None,
        *,
        partitioner: Optional[str] = None,
    ) -> "Session":
        """Target ``num_gpus`` copies of a GPU joined by an interconnect.

        ``gpu`` is a registry name, a :class:`GPUSpec`, or a prebuilt
        :class:`Cluster` (then ``num_gpus`` must be omitted; a link
        other than the default comes from
        ``make_cluster(interconnect_gbps=)``).  ``partitioner`` is the
        partition method (``"hash"`` / ``"range"`` / ``"greedy"``),
        checked here; omitting it means hash, not an earlier call's
        value.  Stats-only workloads price hash only.
        """
        if isinstance(gpu, Cluster):
            if num_gpus is not None and num_gpus != gpu.num_gpus:
                raise ValueError(
                    f"cluster {gpu.name!r} has {gpu.num_gpus} GPUs, "
                    f"cannot override to {num_gpus}"
                )
        elif num_gpus is None:
            raise ValueError("cluster() needs num_gpus for a GPU name/spec")
        else:
            gpu = make_cluster(gpu, num_gpus)
        return self._set(gpu=gpu, partitioner=partitioner)

    def minibatch(
        self, batch_size: Optional[int], *, seed: int = 0
    ) -> "Session":
        """Evaluate sampled mini-batch training instead of full-graph.

        Per epoch the workload is covered by random seed batches of
        ``batch_size`` vertices (a whole number >= 1), each expanded to
        the receptive field of the compiled model's message-passing
        depth.  :meth:`report` then prices the *epoch* totals with
        per-batch peak memory (``report().minibatch``) — concrete
        datasets sample exact
        batches (seeded by ``seed``), stats-only workloads use the
        degree-model field estimate.
        ``minibatch(None)`` restores full-graph evaluation.  Mini-batch
        accounting is single-GPU; combine with :meth:`gpu`, not
        :meth:`cluster`.
        """
        return self._set(
            minibatch=None if batch_size is None else (batch_size, seed)
        )

    def feature_dim(self, dim: Optional[int]) -> "Session":
        """Input-width override for registry models (default: published)."""
        return self._set(feature_dim=dim)

    @property
    def plan_cache(self) -> PlanCache:
        return self._cache

    # -- resolution ----------------------------------------------------
    def resolve_strategy(self) -> ExecutionStrategy:
        cfg = self._config
        resolved = STRATEGIES.resolve(cfg.strategy)
        if cfg.precision is not None and resolved.precision != cfg.precision:
            resolved = replace(resolved, precision=cfg.precision)
        return resolved

    def resolve_gpu(self) -> GPUSpec:
        device = self._config.device()
        return device.gpu if isinstance(device, Cluster) else device

    def resolve_cluster(self) -> Optional[Cluster]:
        """The target cluster, if this session is multi-GPU."""
        device = self._config.device()
        return device if isinstance(device, Cluster) else None

    def resolve_partition_stats(self) -> PartitionStats:
        """Degree-level partition summary for the configured cluster.

        Workloads with a concrete graph are partitioned exactly by the
        :meth:`cluster` partitioner (default hash, seed 0); stats-only
        workloads use the expected hash-partition model and refuse any
        other method.  Results are memoised per (workload, part count,
        method).
        """
        cluster = self.resolve_cluster()
        num_parts = cluster.num_gpus if cluster is not None else 1
        method = self._config.partitioner or "hash"
        ds = self.resolve_dataset()
        concrete = ds is not None and ds.has_concrete_graph
        if not concrete and method != "hash":
            raise ValueError(
                f"partitioner {method!r} needs a concrete graph: the "
                "expected-partition model of a stats-only workload "
                "prices hash only"
            )

        def partition() -> PartitionStats:
            if concrete:
                return PartitionStats.from_partition(
                    partition_graph(ds.graph(), num_parts, method=method)
                )
            return PartitionStats.from_stats(self.resolve_stats(), num_parts)

        return self._memoised(
            "pstats", (self._workload_anchor(),), partition, num_parts, method
        )

    def _workload_anchor(self):
        """The object that identifies the workload: dataset, else stats."""
        ds = self.resolve_dataset()
        return ds if ds is not None else self.resolve_stats()

    def _memoised(self, kind: str, anchors: tuple, compute, *params):
        """Identity-keyed memo of one derived artifact.

        ``anchors`` are the objects the value is derived from (a
        compiled pair, a dataset, stats, partition stats) and
        ``params`` the hashable knobs.  Keys use object identity — two
        datasets sharing a name must never alias each other's results —
        and each entry stores its anchors, which keeps their ``id()``
        from being recycled while the entry lives.
        """
        key = (kind, *map(id, anchors), *params)
        hit = self._memo.get(key)
        if hit is not None and all(a is b for a, b in zip(hit[0], anchors)):
            return hit[1]
        value = compute()
        self._memo[key] = (anchors, value)
        return value

    def resolve_dataset(self) -> Optional[Dataset]:
        d = self._config.dataset
        if isinstance(d, str):
            return get_dataset(d)
        return None if isinstance(d, GraphStats) else d

    def resolve_stats(self) -> GraphStats:
        d = self._config.dataset
        if isinstance(d, GraphStats):
            return d
        ds = self.resolve_dataset()
        if ds is None:
            raise ValueError(
                "session has no workload: call .dataset(name) or "
                ".stats(graph_stats) before evaluating counters"
            )
        return ds.stats

    def resolve_model(self) -> GNNModel:
        m = self._config.model
        if m is None:
            raise ValueError("session has no model: call .model(name_or_instance)")
        if not isinstance(m, str):
            return m
        ds = self.resolve_dataset()
        if ds is None:
            raise ValueError(
                f"model {m!r} is a registry name and needs a dataset for "
                "its feature/class dimensions; call .dataset(...) first "
                "or pass a constructed model instance"
            )
        # One instance per (name, dataset, width): its IR is hashed once,
        # and no setter order can leave a model sized for another dataset.
        in_dim = self._in_dim(ds)
        return self._memoised(
            "model", (ds,), lambda: MODELS.get(m)(in_dim, ds.num_classes),
            m, in_dim,
        )

    def _in_dim(self, ds: Dataset) -> int:
        """Input width: the override, else the dataset's published one."""
        dim = self._config.feature_dim
        return dim if dim is not None else ds.feature_dim

    def _features(self, ds: Dataset, seed: int) -> np.ndarray:
        """``ds.features(in_dim, seed)``, drawn once per session and
        shared read-only: a consumer that writes to it fails instead of
        corrupting later calls."""
        in_dim = self._in_dim(ds)

        def draw() -> np.ndarray:
            features = ds.features(dim=in_dim, seed=seed)
            features.flags.writeable = False
            return features

        return self._memoised("features", (ds,), draw, in_dim, seed)

    # -- terminal operations -------------------------------------------
    def compile(self, *, training: bool = True):
        """Compile (or fetch from the plan cache) the configured pair."""
        return self._cache.get_or_compile(
            self.resolve_model(), self.resolve_strategy(), training=training
        )

    def analyze(
        self,
        *,
        training: Optional[bool] = None,
        lint: bool = True,
        checkers=None,
    ):
        """Statically analyze this configuration before running it.

        Compiles the session (training when the strategy supports it),
        bundles every artifact — plans, arena memory plans, partition
        stats, the analytic comm schedule — and runs the registered
        checkers (:mod:`repro.analysis`) over the bundle.  Returns an
        :class:`~repro.analysis.diagnostics.AnalysisReport` whose
        ``ok`` property proves the RP-coded invariants hold: kernel
        orders race-free, arena slabs overlap-free under the ledger
        watermark, logical dtypes confined to storage, every ghost read
        covered by exactly one exchange.  ``lint=False`` skips the
        determinism source lint (zoo sweeps lint the trees once
        instead of once per target).
        """
        from repro.analysis import Analyzer, build_bundle

        bundle = build_bundle(self, training=training, lint=lint)
        return Analyzer(checkers).run(bundle)

    def memory_plan(self, *, training: bool = True) -> StepMemoryPlan:
        """Arena memory plan of the configured pair on the workload.

        Plans every phase of the compiled configuration on the resolved
        stats (:func:`repro.exec.memory.plan_memory`), pinning the
        model's inputs and parameters — user-owned memory outside the
        arena — in the fusion order.  Memoised per (compiled, stats).
        """
        compiled, stats = self.compile(training=training), self.resolve_stats()
        return self._memoised(
            "memory", (compiled, stats), lambda: compiled.memory_plan(stats)
        )

    def counters(self, *, training: bool = True) -> Counters:
        return self._counters(
            self.compile(training=training), self.resolve_stats()
        )

    def _counters(self, compiled, stats: GraphStats) -> Counters:
        return self._memoised(
            "counters", (compiled, stats), lambda: compiled.counters(stats)
        )

    def _minibatch_schedule(self, compiled) -> List[Tuple[int, GraphStats]]:
        """One epoch's (num_seeds, field_stats) pairs for the workload."""
        batch_size, seed = self._config.minibatch
        hops = receptive_hops(compiled.forward)
        ds = self.resolve_dataset()
        rng = np.random.default_rng(seed)
        if ds is not None and ds.has_concrete_graph:
            graph = ds.graph()
            return [
                (mb.num_seeds, mb.subgraph.stats())
                for mb in plan_minibatches(graph, batch_size, hops, rng=rng)
            ]
        stats = self.resolve_stats()
        V = stats.num_vertices
        b = min(batch_size, V)
        sizes = [b] * (V // b) + ([V % b] if V % b else [])
        return [
            (n, expected_field_stats(stats, n, hops, rng=rng)) for n in sizes
        ]

    def _price(self, compiled) -> ExperimentReport:
        """Price this configuration on its already-compiled pair.

        The one place that decides *how* a configuration is priced:
        a sampled mini-batch epoch, a partitioned cluster step, or a
        full-graph step each pick their counters and the matching cost
        model here, and :meth:`report`, :meth:`latency_seconds`,
        :meth:`fits`, :func:`run_sweep` and the figure tables all read
        the record this fills.  ``compiled`` is passed in so a caller
        pays one plan-cache lookup however many devices or batchings it
        prices the pair on; ``counters`` always holds the full-graph
        reference.
        """
        cfg = self._config
        stats = self.resolve_stats()
        counters = self._counters(compiled, stats)
        cluster = self.resolve_cluster()
        priced: Dict[str, object] = {}
        if cfg.minibatch is not None:
            if cluster is not None:
                raise ValueError(
                    "mini-batch accounting is single-GPU: configure "
                    ".gpu(...) instead of .cluster(...)"
                )
            # Epoch totals; the per-batch maximum is what must fit.
            cost = CostModel(self.resolve_gpu())
            mc = self._memoised(
                "minibatch",
                (compiled, self._workload_anchor()),
                lambda: compiled.minibatch_counters(
                    self._minibatch_schedule(compiled),
                    num_vertices=stats.num_vertices,
                ),
                cfg.minibatch,
            )
            latency = compute = cost.minibatch_latency_seconds(mc)
            fits = cost.fits(mc)
            priced.update(batch_size=cfg.minibatch[0], minibatch=mc)
        elif cluster is not None:
            cost = ClusterCostModel(cluster)
            pstats = self.resolve_partition_stats()
            multi = self._memoised(
                "multi", (compiled, pstats),
                lambda: compiled.multi_counters(pstats),
            )
            breakdown = cost.breakdown(multi, pstats)
            latency, compute = breakdown.total_seconds, breakdown.compute_seconds
            fits = cost.fits(multi)
            priced.update(
                num_gpus=cluster.num_gpus,
                multi=multi,
                comm_seconds=breakdown.comm_seconds,
            )
        else:
            cost = CostModel(self.resolve_gpu())
            latency = compute = cost.latency_seconds(counters, stats)
            fits = cost.fits(counters)
        return ExperimentReport(
            **cfg.labels(),
            counters=counters,
            latency_s=latency,
            fits_device=fits,
            compute_seconds=compute,
            **priced,
        )

    def latency_seconds(self, *, training: bool = True) -> float:
        return self.report(training=training).latency_s

    def fits(self, *, training: bool = True) -> bool:
        return self.report(training=training).fits_device

    def report(
        self, *, train_steps: int = 0, seed: int = 0, training: bool = True
    ) -> ExperimentReport:
        """Counters + modelled latency, optionally with concrete training.

        ``training=False`` prices the forward (inference) plan instead
        of a training step.  On a cluster configuration the report
        carries per-GPU counters (``multi``), halo-exchange bytes, and
        the comm/compute time split; under :meth:`minibatch` the sampled
        epoch (``minibatch``).  Concrete training uses the dataset's
        ground-truth labels when it provides them; stats-only or
        label-less datasets fall back to synthetic labels planted from
        a hidden projection of the features.
        """
        if train_steps > 0 and not training:
            raise ValueError("train_steps needs training=True")
        compiled = self.compile(training=training)
        report = self._price(compiled)
        if train_steps <= 0:
            return report

        from repro.train import Adam, MiniBatchTrainer, Trainer  # local: keeps import cheap

        ds = self.resolve_dataset()
        if ds is None:
            raise ValueError(
                "concrete training needs a dataset with a graph; "
                "this session was configured with raw stats only"
            )
        graph = ds.graph()
        in_dim = self._in_dim(ds)
        feats = self._features(ds, seed)
        if ds.has_labels:
            labels = ds.labels()
        else:
            rng = np.random.default_rng(seed)
            labels = (
                feats @ rng.normal(size=(in_dim, ds.num_classes))
            ).argmax(axis=1)
        opt = Adam(lr=0.01)
        if self._config.minibatch is not None:
            # One "step" = one sampled epoch (a full vertex pass,
            # the unit comparable to a full-graph step).
            batch_size, mb_seed = self._config.minibatch
            mb_trainer = MiniBatchTrainer(
                compiled, graph, batch_size=batch_size,
                precision="float32", seed=seed, sampler_seed=mb_seed,
            )
            for _ in range(train_steps):
                epoch = mb_trainer.train_epoch(feats, labels, opt)
                report.losses.append(epoch.loss)
                report.final_accuracy = epoch.accuracy
            return report
        trainer = Trainer(compiled, graph, precision="float32", seed=seed)
        for _ in range(train_steps):
            loss, report.final_accuracy = trainer.train_step(feats, labels, opt)
            report.losses.append(loss)
        return report

    # -- online serving ------------------------------------------------
    def serve(
        self,
        *,
        num_requests: int = 256,
        qps: float = 1000.0,
        seeds_per_request: int = 1,
        slo_s: float = 0.05,
        zipf_alpha: float = 0.0,
        cache_rows: int = 0,
        seed: int = 0,
        execute: bool = True,
        update_frac: float = 0.0,
        compact_every: Optional[int] = None,
        new_vertex_prob: float = 0.0,
    ):
        """Serve a synthetic online workload against this configuration.

        Generates an open-loop Poisson request stream (Zipf-skewed
        seed popularity under ``zipf_alpha``, all randomness seeded by
        ``seed``), compiles the forward plan through the shared
        :class:`PlanCache`, and runs it through an
        :class:`~repro.serve.server.InferenceServer` on the configured
        GPU (or :meth:`cluster` pool) — micro-batched by the default
        :class:`~repro.serve.batcher.BatchPolicy`, feature-cached with
        ``cache_rows`` LRU rows, placed earliest-deadline-first, each
        batch's field at the model's depth.  Bursty arrivals, other batch
        policies and FIFO placement are
        :class:`~repro.serve.server.InferenceServer`'s, driven directly.

        ``update_frac > 0`` makes the run *dynamic*: the stream comes
        from :func:`repro.dyn.mixed_workload` (each event is a write
        with that probability — half of them edge insertions, the rest
        feature puts; ``new_vertex_prob`` lets edge batches bring new
        vertices), and the server answers each
        batch against the graph/feature snapshot current at its
        dispatch time, compacting the delta overlay every
        ``compact_every`` applied deltas.

        Returns the :class:`~repro.serve.metrics.ServeReport` —
        p50/p95/p99 latency, throughput, SLO violations, cache hit
        rate, per-GPU utilization, plus (on dynamic runs) version,
        staleness, invalidation and mutation-IO accounting.  Requires a
        dataset with a concrete graph (serving answers real seed
        vertices).
        """
        # Local: keeps the base import cheap.
        from repro.serve import InferenceServer, poisson_workload

        if not 0.0 <= update_frac < 1.0:
            raise ValueError("update_frac must lie in [0, 1)")
        # Refused before the stream is built; the server checks again.
        if compact_every is not None:
            whole_count(compact_every, "compact_every")
        ds = self.resolve_dataset()
        if ds is None or not ds.has_concrete_graph:
            raise ValueError(
                "serving needs a dataset with a concrete graph; "
                "stats-only workloads cannot answer seed requests"
            )
        graph = ds.graph()
        in_dim = self._in_dim(ds)
        features = self._features(ds, seed)
        compiled = self.compile(training=False)
        tenant = self._config.labels()["model"]
        cluster = self.resolve_cluster()
        # Built before the stream: the server refuses bad settings.
        server = InferenceServer(
            graph,
            features,
            {tenant: compiled},
            gpu=cluster if cluster is not None else self.resolve_gpu(),
            cache_rows=cache_rows,
            execute=execute,
        )
        stream = dict(
            qps=qps,
            num_vertices=graph.num_vertices,
            seeds_per_request=seeds_per_request,
            slo_s=slo_s,
            tenant=tenant,
            zipf_alpha=zipf_alpha,
            rng=np.random.default_rng(seed),
        )
        updates = None
        if update_frac > 0.0:
            from repro.dyn import mixed_workload  # local: keeps import cheap

            workload, updates = mixed_workload(
                num_requests,
                feature_dim=in_dim,
                update_frac=update_frac,
                new_vertex_prob=new_vertex_prob,
                **stream,
            )
        else:
            workload = poisson_workload(num_requests, **stream)
        return server.serve(workload, updates=updates, compact_every=compact_every)


def session(*, cache: Optional[PlanCache] = None) -> Session:
    """Start a fluent configuration: ``repro.session().model("gat")…``."""
    return Session(cache=cache)


# ======================================================================
# Sweeps
# ======================================================================
@dataclass
class SweepRow:
    """One (model, dataset, strategy, gpu[, gpu count]) sweep point.

    Multi-GPU rows carry the interconnect traffic and the time share
    spent communicating; single-GPU rows leave them at zero.
    """

    model: str
    dataset: str
    strategy: str
    gpu: str
    flops: float
    io_bytes: int
    peak_memory_bytes: int
    stash_bytes: int
    launches: int
    latency_s: float
    fits_device: bool
    num_gpus: int = 1
    comm_bytes: int = 0
    comm_fraction: float = 0.0
    #: Sampled mini-batch rows: seed batch size (None = full-graph) and
    #: the epoch's feature-gather traffic; io/peak columns then report
    #: epoch totals / per-batch maxima.
    batch_size: Optional[int] = None
    gather_bytes: int = 0
    #: Feature-storage precision of the row's plans (``run_sweep(
    #: precision=[...])``).  It changes the analytic columns: IO, peak
    #: memory, stash, and gather bytes all shrink with the storage
    #: dtype.
    precision: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_report(cls, report: ExperimentReport) -> "SweepRow":
        """An offline row: whatever ``report`` was priced on.

        Full-graph rows show the step's ledger peak; mini-batch rows
        epoch totals with the per-batch peak; cluster rows cluster totals with the per-GPU
        peak and the byte-based traffic share (monotone in the GPU
        count; the time split depends on imbalance floors too).
        """
        priced, multi, mc = report.priced, report.multi, report.minibatch
        return cls(
            model=report.model,
            dataset=report.dataset,
            strategy=report.strategy,
            gpu=report.gpu,
            precision=report.precision,
            flops=priced.flops,
            io_bytes=priced.io_bytes,
            peak_memory_bytes=priced.peak_memory_bytes,
            stash_bytes=priced.stash_bytes,
            launches=priced.launches,
            latency_s=report.latency_s,
            fits_device=report.fits_device,
            num_gpus=report.num_gpus,
            comm_bytes=multi.comm_bytes if multi is not None else 0,
            comm_fraction=multi.comm_fraction if multi is not None else 0.0,
            batch_size=report.batch_size,
            gather_bytes=mc.gather_bytes if mc is not None else 0,
        )


#: :meth:`SweepReport.table` columns: (header, the row attribute whose
#: axis must be swept for the column to show — ``None`` = always —
#: and the cell formatter).
_TABLE_COLUMNS = (
    ("model", None, lambda r: r.model),
    ("dataset", None, lambda r: r.dataset),
    ("strategy", None, lambda r: r.strategy),
    ("gpu", None, lambda r: r.gpu),
    ("batch", "batch_size",
     lambda r: "full" if r.batch_size is None else str(r.batch_size)),
    ("prec", "precision", lambda r: r.precision or "-"),
    ("GFLOPs", None, lambda r: f"{r.flops / 1e9:.2f}"),
    ("IO MiB", None, lambda r: f"{r.io_bytes / 2**20:.1f}"),
    ("mem MiB", None, lambda r: f"{r.peak_memory_bytes / 2**20:.1f}"),
    ("fits", None, lambda r: "yes" if r.fits_device else "OOM"),
    ("ms/step", None, lambda r: f"{r.latency_s * 1e3:.2f}"),
)


@dataclass
class SweepReport:
    """Tabular result of :func:`run_sweep` plus plan-cache accounting."""

    rows: List[SweepRow]
    cache_hits: int
    cache_misses: int
    feature_dim: Optional[int] = None

    def by(self, **match) -> List[SweepRow]:
        return [
            r
            for r in self.rows
            if all(getattr(r, k) == v for k, v in match.items())
        ]

    def table(self) -> str:
        from repro.bench.report import format_table  # lazy: avoids cycle

        shown = [
            (header, cell)
            for header, axis, cell in _TABLE_COLUMNS
            if axis is None
            or any(getattr(r, axis) is not None for r in self.rows)
        ]
        return format_table(
            [header for header, _ in shown],
            [[cell(r) for _, cell in shown] for r in self.rows],
            title=(
                f"sweep ({len(self.rows)} rows; plan cache "
                f"{self.cache_misses} compiles, {self.cache_hits} hits)"
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "feature_dim": self.feature_dim,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "rows": [r.to_dict() for r in self.rows],
        }

    def save_json(self, name: str, results_dir: Optional[str] = None) -> str:
        """Persist under ``benchmarks/results/<name>.json`` (or a dir)."""
        from repro.bench.report import RESULTS_DIR  # lazy: avoids cycle

        directory = results_dir or RESULTS_DIR
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def run_sweep(
    models: Sequence[Union[str, GNNModel]],
    datasets: Sequence[Union[str, Dataset]],
    strategies: Sequence[Union[str, ExecutionStrategy]] = ("ours",),
    gpus: Sequence[Union[str, GPUSpec]] = ("RTX3090",),
    *,
    num_gpus: Union[int, Sequence[int]] = (1,),
    batch_size: Union[None, int, Sequence[Optional[int]]] = None,
    precision: Union[None, str, Sequence[Optional[str]]] = None,
    feature_dim: Optional[int] = None,
    training: bool = True,
    cache: Optional[PlanCache] = None,
    save_as: Optional[str] = None,
    results_dir: Optional[str] = None,
) -> SweepReport:
    """Sweep over the cross product of the axes.

    Each point of the product is one :class:`RunConfig`, priced by the
    same :meth:`Session._price` as :meth:`Session.report` into one
    :class:`SweepRow`.  The axes map onto its fields:

    - ``models``, ``datasets``, ``strategies`` and ``precision`` (a
      policy name or a sequence mixing them with ``None``) choose the
      compiled plan;
    - ``gpus`` × ``num_gpus`` choose the device: a ``num_gpus`` entry
      is a whole number ≥ 1, and one > 1 builds a ``<gpu>xN`` cluster
      on the default link.  A registered cluster
      name (or a ``Cluster``) is already a cluster: it is refused
      beside a ``num_gpus`` entry > 1;
    - ``batch_size`` (a whole number ≥ 1 or a sequence mixing them
      with ``None``, full-graph) is the ``minibatch`` axis, at the
      model's depth and sampler seed 0 — single-GPU only;
    - ``feature_dim`` is one width for every registry model.

    Rows price what :meth:`Session.report` prices: full-graph steps
    with the ledger peak, epoch totals with the per-batch peak, cluster
    totals with the halo traffic.  The plan never depends on the
    device, the batching or the topology, so each (model, strategy,
    precision) is one
    plan-cache lookup, and datasets sharing feature/class widths share
    its compilation.  Training sweeps skip inference-only strategies
    (e.g. ``huang-like``); ``training=False`` compares forward passes.
    Serving is not a sweep axis: a serving curve is a loop over
    :meth:`Session.serve`, whose report holds more than a row can.
    """
    cache = cache if cache is not None else PlanCache()
    hits0, misses0 = cache.hits, cache.misses
    if feature_dim is not None:
        feature_dim = whole_count(feature_dim, "feature_dim")
    batches, precisions, num_gpus = map(_axis, (batch_size, precision, num_gpus))
    num_gpus = tuple(whole_count(n, "num_gpus") for n in num_gpus)
    batches = tuple(b if b is None else whole_count(b, "batch_size") for b in batches)
    sampled = any(b is not None for b in batches)
    if sampled and any(n > 1 for n in num_gpus):
        raise ValueError(
            "mini-batch sweeps are single-GPU: batch_size cannot be "
            "combined with num_gpus > 1"
        )
    if any(n > 1 for n in num_gpus):
        for g in gpus:
            if isinstance(GPUS.resolve(g), Cluster):
                raise ValueError(
                    f"gpus entry {getattr(g, 'name', g)!r} is already a "
                    "cluster: it cannot be combined with num_gpus > 1"
                )
    axes = (models, datasets, strategies, precisions, gpus, num_gpus, batches)
    # One session per dataset: its memo keeps the dataset's partition
    # per part count, so each is made once per sweep, not once per
    # model.  The per-plan compile (one plan-cache lookup however many
    # devices price it) is hoisted by position in the flat product.
    sessions = [Session(cache=cache) for _ in datasets]
    per_plan = math.prod(len(axis) for axis in axes[4:])
    per_workload = per_plan * math.prod(len(axis) for axis in axes[2:4])
    rows: List[SweepRow] = []
    for i, (m, d, strat, prec, g, n, bs) in enumerate(
        itertools.product(*axes)
    ):
        s = sessions[i // per_workload % len(datasets)]
        s._config = RunConfig(
            model=m, dataset=d, strategy=strat,
            precision=prec, feature_dim=feature_dim,
            gpu=g if n <= 1 else make_cluster(g, n),
            minibatch=None if bs is None else (bs, 0),
        )
        if i % per_plan == 0:
            compiled = (
                s.compile(training=training)
                if s.resolve_strategy().supports_training or not training
                else None
            )
        if compiled is not None:
            rows.append(SweepRow.from_report(s._price(compiled)))
    sweep = SweepReport(
        rows=rows,
        cache_hits=cache.hits - hits0,
        cache_misses=cache.misses - misses0,
        feature_dim=feature_dim,
    )
    if save_as:
        sweep.save_json(save_as, results_dir)
    return sweep


def _axis(value) -> tuple:
    """The options one sweep axis takes: a string or any non-iterable
    (``None``, a Python or NumPy scalar) is one option.  Each option's
    check makes it a Python value (``whole_count`` an int,
    ``canonical_precision`` a policy name), so a row stays
    JSON-serialisable."""
    if isinstance(value, str) or not np.iterable(value):
        return (value,)
    return tuple(value)
