"""Strategy configuration and the model → plan compile path.

``compile_training`` is the library's main entry point: it takes a
model (naive IR) and a strategy, and drives the strategy's pass
pipeline (:mod:`repro.opt.pipeline`) — §4 rewrites, backward derivation
(Appendix B), the §6 stash-vs-recompute decision, and §5 kernel
partitioning of both passes — returning an object that can produce
exact counters on any :class:`~repro.graph.stats.GraphStats`, modelled
latency on any :class:`~repro.gpu.spec.GPUSpec`, and concrete NumPy
execution on any :class:`~repro.graph.csr.Graph`.

An :class:`ExecutionStrategy` is *data*: it selects and parameterizes
passes.  The default pass order is
``reorganize → cse → autodiff → recompute → fusion``; a strategy's
``pass_names`` field substitutes any ordering of registered passes
(built-in or user-defined via ``@register_pass``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.exec.analytic import (
    analyze_minibatch,
    analyze_plan,
    analyze_plan_multi,
    analyze_training,
    analyze_training_multi,
)
from repro.exec.memory import StepMemoryPlan, plan_memory
from repro.exec.plan import ExecPlan
from repro.exec.profiler import (
    Counters,
    MiniBatchCounters,
    MultiGPUCounters,
    PhaseCounters,
)
from repro.exec.rings import training_rings
from repro.graph.stats import GraphStats
from repro.gpu.cost_model import CostModel
from repro.gpu.spec import GPUSpec
from repro.ir.autodiff import TrainingGraph, grad_seed_name
from repro.ir.module import Module
from repro.opt.pipeline import PassContext, PassRecord, ReorganizePass, build_pipeline
from repro.opt.recompute import RecomputeDecision
from repro.opt.stages import StageMemo
from repro.models.base import GNNModel

__all__ = [
    "ExecutionStrategy",
    "CompiledForward",
    "CompiledTraining",
    "compile_forward",
    "compile_training",
]

_REORG_SCOPES = ("none", "library", "full")
_STASH_SCOPES = ("needed", "all_boundary")


@dataclass(frozen=True)
class ExecutionStrategy:
    """One system's position on the three optimization axes.

    Every field shapes the compiled plan.  How a cluster run splits the
    graph does not, so it is not here: it is
    ``Session.cluster(partitioner=)``'s.

    Attributes
    ----------
    reorg_scope:
        ``"full"`` — apply §4 wherever legal; ``"library"`` — only for
        models whose framework module library ships a hand-reorganized
        implementation (``model.dgl_library_reorganized``); ``"none"``.
    fusion_mode / prefer_mapping:
        §5 partitioning scope and mapping preference.
    recompute_policy:
        §6 policy (``recompute`` / ``boundary`` / ``stash_all``).
    stash_scope:
        ``"needed"`` — persist only what backward requires;
        ``"all_boundary"`` — persist every forward kernel output (the
        save-everything behaviour of eager frameworks).
    supports_training:
        Forward-only systems (Huang et al.) cannot train — §8.1.
    pass_names:
        Optional explicit pass pipeline, as names resolved through the
        :data:`repro.registry.PASSES` registry.  ``None`` selects the
        default order; training-only passes are skipped automatically
        when compiling for inference.
    precision:
        Feature-storage precision (see :mod:`repro.ir.precision`):
        ``"fp32"`` (the oracle), ``"fp16"``/``"bf16"`` half-width
        feature storage, or ``"int8"`` per-row quantized gathers with
        fp32 accumulation.  Applied to the naive module before any
        pass runs, so specs, ledgers, slabs, and cache rows all carry
        the shrunk byte counts.
    """

    name: str
    reorg_scope: str = "full"
    fusion_mode: str = "unified"
    prefer_mapping: str = "vertex"
    recompute_policy: str = "recompute"
    stash_scope: str = "needed"
    supports_training: bool = True
    #: Fusion mode used to probe kernel boundaries for the "boundary"
    #: recompute policy.  Defaults to ``fusion_mode``.  The
    #: fusion-without-recomputation ablation sets this to ``"macro"``:
    #: its forward fuses fully (§5) but its backward may only regenerate
    #: what framework-builtin kernels regenerate, stashing the rest.
    recompute_boundary_mode: Optional[str] = None
    pass_names: Optional[Tuple[str, ...]] = None
    precision: str = "fp32"

    def __post_init__(self) -> None:
        from repro.opt.fusion import FUSION_MODES

        if self.precision != "fp32":
            from repro.ir.precision import canonical_precision

            object.__setattr__(
                self, "precision", canonical_precision(self.precision)
            )
        if self.reorg_scope not in _REORG_SCOPES:
            raise ValueError(f"reorg_scope must be in {_REORG_SCOPES}")
        if self.stash_scope not in _STASH_SCOPES:
            raise ValueError(f"stash_scope must be in {_STASH_SCOPES}")
        if self.fusion_mode not in FUSION_MODES:
            raise ValueError(f"fusion_mode must be in {FUSION_MODES}")
        if self.prefer_mapping not in ("vertex", "edge"):
            raise ValueError("prefer_mapping must be 'vertex' or 'edge'")
        if self.recompute_policy not in ("recompute", "boundary", "stash_all"):
            raise ValueError(
                "recompute_policy must be 'recompute', 'boundary', or 'stash_all'"
            )
        if self.pass_names is not None:
            # Keep the dataclass hashable when callers pass a list.
            object.__setattr__(self, "pass_names", tuple(self.pass_names))

    # ------------------------------------------------------------------
    def prepare_forward(self, model: GNNModel) -> Module:
        """Apply the strategy's graph-level rewrites to a model."""
        ctx = _context(model, self, training=False, stages=None)
        ReorganizePass().run(ctx)
        return ctx.forward


# ======================================================================
@dataclass
class _Compiled:
    """What a compiled pair knows whichever phases it has.

    The pinned set, the phase list, the per-phase arena recipe and the
    step counters are stated here once; :class:`CompiledForward` and
    :class:`CompiledTraining` only say which plans they hold and which
    analytic walker prices them.
    """

    model: GNNModel
    strategy: ExecutionStrategy
    forward: Module

    @property
    def pinned(self) -> List[str]:
        """Values the caller owns — model inputs and parameters: never
        freed by the ledger, never given an arena slab."""
        return list(self.forward.inputs) + list(self.forward.params)

    def phases(self) -> List[Tuple[str, ExecPlan]]:
        """``(phase name, plan)`` in execution order."""
        raise NotImplementedError

    def counters(self, stats: GraphStats) -> Counters:
        """Step counters on ``stats``."""
        raise NotImplementedError

    def memory_plan(self, stats: GraphStats) -> StepMemoryPlan:
        """Arena plans of every phase on ``stats``, inputs and
        parameters pinned (:func:`repro.exec.memory.plan_memory`)."""
        return StepMemoryPlan(
            *(
                plan_memory(plan, stats, pinned=self.pinned)
                for _, plan in self.phases()
            )
        )

    def latency_seconds(self, stats: GraphStats, gpu: GPUSpec) -> float:
        return CostModel(gpu).latency_seconds(self.counters(stats), stats)


@dataclass
class CompiledForward(_Compiled):
    """An inference-ready plan with counter/latency evaluation."""

    plan: ExecPlan
    pass_records: List[PassRecord] = field(default_factory=list)

    def phases(self) -> List[Tuple[str, ExecPlan]]:
        return [("forward", self.plan)]

    def counters(self, stats: GraphStats) -> Counters:
        phase = analyze_plan(self.plan, stats, pinned=self.pinned)
        return Counters(forward=phase, backward=None, stash_bytes=0)

    def multi_counters(self, pstats) -> MultiGPUCounters:
        """Per-GPU counters + halo traffic on a partitioned workload."""
        return analyze_plan_multi(self.plan, pstats, pinned=self.pinned)

    def minibatch_counters(
        self, batches, *, num_vertices: int
    ) -> MiniBatchCounters:
        """Per-batch inference counters on sampled receptive fields."""
        return analyze_minibatch(
            self.plan, None, batches,
            num_vertices=num_vertices, pinned=self.pinned,
        )


@dataclass
class CompiledTraining(_Compiled):
    """A training-step plan pair with counter/latency evaluation."""

    training_graph: TrainingGraph
    decision: RecomputeDecision
    stash: List[str]
    fwd_plan: ExecPlan
    bwd_plan: ExecPlan
    pass_records: List[PassRecord] = field(default_factory=list)
    _rings: Optional[Tuple[Dict[str, int], Dict[str, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def phases(self) -> List[Tuple[str, ExecPlan]]:
        return [("forward", self.fwd_plan), ("backward", self.bwd_plan)]

    def rings(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """The forward and backward ring maps of a step whose loss reads
        only the seeds' rows (:func:`~repro.exec.rings.training_rings`,
        what ``Trainer.train_step(distance=)`` runs on).  Computed once
        and shared, like :meth:`ExecPlan.rings`: read-only."""
        if self._rings is None:
            self._rings = training_rings(
                self.fwd_plan.module, self.bwd_plan.module,
                self.fwd_plan.keep, self.seed_names(),
            )
        return self._rings

    def counters(self, stats: GraphStats) -> Counters:
        return analyze_training(
            self.fwd_plan, self.bwd_plan, stats,
            stash=self.stash, pinned=self.pinned,
        )

    def multi_counters(self, pstats) -> MultiGPUCounters:
        """Per-GPU training-step counters + halo/all-reduce traffic."""
        return analyze_training_multi(
            self.fwd_plan, self.bwd_plan, pstats,
            stash=self.stash, pinned=self.pinned,
        )

    def minibatch_counters(
        self, batches, *, num_vertices: int
    ) -> MiniBatchCounters:
        """Per-batch epoch counters on sampled receptive fields.

        ``batches`` yields ``(num_seeds, field_stats)`` pairs (see
        :func:`repro.exec.analytic.analyze_minibatch`); each batch is
        charged its kernel counters plus the feature-gather IO of its
        field.
        """
        return analyze_minibatch(
            self.fwd_plan, self.bwd_plan, batches,
            num_vertices=num_vertices, stash=self.stash, pinned=self.pinned,
        )

    @property
    def param_grads(self) -> Dict[str, str]:
        return self.training_graph.param_grads

    def seed_names(self) -> List[str]:
        return [grad_seed_name(o) for o in self.training_graph.seeded_outputs()]


# ======================================================================
def _context(
    model: GNNModel,
    strategy: ExecutionStrategy,
    *,
    training: bool,
    stages: Optional[StageMemo],
) -> PassContext:
    """A pipeline context that starts from the model's naive module
    under the strategy's precision."""
    stages = StageMemo() if stages is None else stages
    return PassContext(
        strategy=strategy,
        model=model,
        training=training,
        state={"forward": stages.naive(model, strategy.precision)},
        stages=stages,
    )


def compile_forward(
    model: GNNModel,
    strategy: ExecutionStrategy,
    *,
    stages: Optional[StageMemo] = None,
) -> CompiledForward:
    """Inference compilation: rewrites + kernel partitioning.

    ``stages`` is the memo of ``model``'s pure stages that other
    compiles share (:class:`~repro.session.PlanCache` keeps one per
    model); a fresh one when ``None``.  The result is the same either
    way.
    """
    ctx = _context(model, strategy, training=False, stages=stages)
    build_pipeline(strategy, training=False).run(ctx)
    return CompiledForward(
        model=model,
        strategy=strategy,
        forward=ctx.require("forward"),
        plan=ctx.require("fwd_plan"),
        pass_records=ctx.records,
    )


def compile_training(
    model: GNNModel,
    strategy: ExecutionStrategy,
    *,
    stages: Optional[StageMemo] = None,
) -> CompiledTraining:
    """Training compilation: the full §4 + Appendix B + §6 + §5 stack.

    ``stages`` as in :func:`compile_forward`.
    """
    if not strategy.supports_training:
        raise ValueError(
            f"strategy {strategy.name!r} is inference-only "
            "(forward fusion without the intermediate data for backward)"
        )
    ctx = _context(model, strategy, training=True, stages=stages)
    build_pipeline(strategy, training=True).run(ctx)
    return CompiledTraining(
        model=model,
        strategy=strategy,
        forward=ctx.require("forward"),
        training_graph=ctx.require("training_graph"),
        decision=ctx.require("decision"),
        stash=ctx.require("stash"),
        fwd_plan=ctx.require("fwd_plan"),
        bwd_plan=ctx.require("bwd_plan"),
        pass_records=ctx.records,
    )
