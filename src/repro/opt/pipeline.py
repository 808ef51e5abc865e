"""Composable pass pipeline: the compile path as first-class passes.

The paper's point is that reorganization (§4), unified fusion (§5) and
recomputation (§6) are *coordinated but separable* stages over one IR.
This module makes that literal: each stage is a :class:`Pass` object,
an :class:`ExecutionStrategy <repro.frameworks.strategy.ExecutionStrategy>`
is pure data that selects and parameterizes passes, and a
:class:`PassManager` runs the sequence while recording per-pass IR
deltas and wall-clock timings.

The default sequences are::

    training:  reorganize -> cse -> autodiff -> recompute -> fusion
    forward:   reorganize -> cse -> fusion

A strategy may override the order via its ``pass_names`` field; the
names are resolved through the :data:`repro.registry.PASSES` registry,
so user-defined passes registered with ``@register_pass`` compose with
the built-ins without editing library source (see
``examples/custom_strategy.py``).

Passes communicate through :attr:`PassContext.state`, a dict whose
conventional keys are:

==================  ==================================================
key                 value
==================  ==================================================
``forward``         the (possibly rewritten) forward :class:`Module`
``reorganized``     whether §4 rewrote anything (reorganize sets it)
``needs_cse``       set by custom rewrites to request a CSE sweep
``training_graph``  :class:`TrainingGraph` (autodiff output)
``decision``        :class:`RecomputeDecision` (§6 output)
``stash``           forward values persisted for backward
``fwd_plan``        forward :class:`ExecPlan` (§5 output)
``bwd_plan``        backward :class:`ExecPlan` (training only)
==================  ==================================================
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.exec.plan import plan_module
from repro.ir.transform import common_subexpression_eliminate
from repro.opt.recompute import plan_recompute
from repro.opt.stages import StageMemo
from repro.registry import PASSES, register_pass

__all__ = [
    "Pass",
    "PassContext",
    "PassRecord",
    "PassManager",
    "build_pipeline",
    "DEFAULT_TRAINING_PASSES",
    "DEFAULT_FORWARD_PASSES",
    "ReorganizePass",
    "CSEPass",
    "AutodiffPass",
    "RecomputePlanPass",
    "FusionPass",
]

DEFAULT_TRAINING_PASSES = ("reorganize", "cse", "autodiff", "recompute", "fusion")
DEFAULT_FORWARD_PASSES = ("reorganize", "cse", "fusion")


@dataclass
class PassRecord:
    """What one pass did: timing plus IR size before/after."""

    name: str
    seconds: float
    nodes_before: int
    nodes_after: int
    summary: str = ""

    @property
    def changed_ir(self) -> bool:
        return self.nodes_after != self.nodes_before

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        delta = f"{self.nodes_before} -> {self.nodes_after} nodes"
        extra = f"  ({self.summary})" if self.summary else ""
        return f"{self.name:12s} {self.seconds * 1e3:8.2f} ms  {delta}{extra}"


@dataclass
class PassContext:
    """Mutable compilation state threaded through a pipeline run.

    ``stages`` runs the pure stages (reorganize, autodiff, partitioning)
    once per input object; a plan cache passes the memo its other
    compiles of the same model share.
    """

    strategy: Any
    model: Any = None
    training: bool = True
    state: Dict[str, Any] = field(default_factory=dict)
    records: List[PassRecord] = field(default_factory=list)
    stages: StageMemo = field(default_factory=StageMemo)

    @property
    def forward(self):
        return self.state["forward"]

    def require(self, key: str) -> Any:
        """Fetch a state key, with a pipeline-aware error when absent."""
        if key not in self.state:
            ran = [r.name for r in self.records]
            raise KeyError(
                f"pipeline state has no {key!r}; passes run so far: {ran} "
                "(a custom pipeline must produce it before this point)"
            )
        return self.state[key]


class Pass(abc.ABC):
    """One compilation stage.  Subclass, set ``name``, implement ``run``.

    ``training_only`` passes are skipped automatically when the pipeline
    compiles for inference, so one ``pass_names`` ordering serves both
    :func:`compile_training` and :func:`compile_forward`.
    """

    name: str = "pass"
    training_only: bool = False

    @abc.abstractmethod
    def run(self, ctx: PassContext) -> None:
        """Advance ``ctx.state``; may rewrite IR or attach plans."""

    def summary(self, ctx: PassContext) -> str:
        """One-line description of what happened (for PassRecord)."""
        return ""


def _ir_node_count(ctx: PassContext) -> int:
    """Total IR size currently held by the context (fwd + bwd)."""
    total = 0
    forward = ctx.state.get("forward")
    if forward is not None:
        total += len(forward.nodes)
    decision = ctx.state.get("decision")
    if decision is not None:
        total += len(decision.combined_backward.nodes)
    elif ctx.state.get("training_graph") is not None:
        total += len(ctx.state["training_graph"].backward.nodes)
    return total


class PassManager:
    """Runs a pass sequence, recording per-pass deltas and timings."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes: List[Pass] = list(passes)

    def run(self, ctx: PassContext) -> PassContext:
        for p in self.passes:
            if p.training_only and not ctx.training:
                continue
            before = _ir_node_count(ctx)
            t0 = time.perf_counter()
            p.run(ctx)
            elapsed = time.perf_counter() - t0
            ctx.records.append(
                PassRecord(
                    name=p.name,
                    seconds=elapsed,
                    nodes_before=before,
                    nodes_after=_ir_node_count(ctx),
                    summary=p.summary(ctx),
                )
            )
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PassManager({[p.name for p in self.passes]})"


def build_pipeline(strategy: Any, *, training: bool = True) -> PassManager:
    """Instantiate the pass sequence a strategy selects.

    Uses the strategy's ``pass_names`` when set, else the defaults.
    Each name resolves through :data:`repro.registry.PASSES` to a Pass
    subclass instantiated with no arguments; every built-in pass reads
    its parameters from ``ctx.strategy``.
    """
    names = getattr(strategy, "pass_names", None) or (
        DEFAULT_TRAINING_PASSES if training else DEFAULT_FORWARD_PASSES
    )
    passes = []
    for entry in names:
        if isinstance(entry, Pass):
            passes.append(entry)
            continue
        obj = PASSES.get(entry) if isinstance(entry, str) else entry
        passes.append(obj() if isinstance(obj, type) or callable(obj) else obj)
    return PassManager(passes)


# ======================================================================
# Built-in passes
# ======================================================================
@register_pass("reorganize")
class ReorganizePass(Pass):
    """§4 propagation postponement, gated by the strategy's scope."""

    name = "reorganize"

    def run(self, ctx: PassContext) -> None:
        scope = ctx.strategy.reorg_scope
        module = ctx.require("forward")
        applies = scope == "full" or (
            scope == "library"
            and ctx.model is not None
            and ctx.model.dgl_library_reorganized
        )
        if applies:
            rewritten = ctx.stages.reorganize(module)
            # The rewrite returns the input object untouched when no
            # pair matched; only an actual rewrite has been CSE'd.
            ctx.state["reorganized"] = rewritten is not module
            ctx.state["forward"] = rewritten
        else:
            ctx.state["reorganized"] = False

    def summary(self, ctx: PassContext) -> str:
        return "rewrote" if ctx.state.get("reorganized") else "no-op"


@register_pass("cse")
class CSEPass(Pass):
    """Fold structurally identical nodes (one projection per vertex).

    :func:`~repro.opt.reorganize.reorganize` already folds CSE into its
    rewrite fixpoint, so in the default pipeline this pass only fires
    when a custom pass has flagged ``needs_cse``.
    """

    name = "cse"

    def run(self, ctx: PassContext) -> None:
        if ctx.state.get("needs_cse"):
            ctx.state["forward"] = common_subexpression_eliminate(
                ctx.require("forward")
            )
            ctx.state["needs_cse"] = False
            ctx.state["_cse_ran"] = True

    def summary(self, ctx: PassContext) -> str:
        return "swept" if ctx.state.pop("_cse_ran", False) else "no-op"


@register_pass("autodiff")
class AutodiffPass(Pass):
    """Appendix B: derive the backward module in the same operator IR."""

    name = "autodiff"
    training_only = True

    def run(self, ctx: PassContext) -> None:
        ctx.state["training_graph"] = ctx.stages.differentiate(
            ctx.require("forward")
        )

    def summary(self, ctx: PassContext) -> str:
        tg = ctx.state["training_graph"]
        return f"{len(tg.saved_values)} saved values"


@register_pass("recompute")
class RecomputePlanPass(Pass):
    """§6 stash-vs-recompute decision plus the final stash set."""

    name = "recompute"
    training_only = True

    def run(self, ctx: PassContext) -> None:
        strategy = ctx.strategy
        forward = ctx.require("forward")
        tg = ctx.require("training_graph")
        boundary = _boundary_values(
            forward,
            strategy,
            mode=strategy.recompute_boundary_mode or strategy.fusion_mode,
            stages=ctx.stages,
        )
        decision = plan_recompute(
            tg, policy=strategy.recompute_policy, boundary_values=boundary
        )

        # The stash is, definitionally, every forward-produced value the
        # (recompute-spliced) backward module consumes — regardless of
        # which policy decided it.  The save-everything scope
        # additionally keeps every forward kernel output alive.
        produced = {o for node in forward.nodes for o in node.outputs}
        stash = [n for n in decision.combined_backward.inputs if n in produced]
        if strategy.stash_scope == "all_boundary":
            stash = _dedup(list(boundary) + stash)
        ctx.state["decision"] = decision
        ctx.state["stash"] = stash

    def summary(self, ctx: PassContext) -> str:
        d = ctx.state["decision"]
        return f"{len(ctx.state['stash'])} stashed, {len(d.recomputed)} recomputed"


@register_pass("fusion")
class FusionPass(Pass):
    """§5 unified-thread-mapping kernel partitioning (both passes)."""

    name = "fusion"

    def run(self, ctx: PassContext) -> None:
        strategy = ctx.strategy
        mode, mapping = strategy.fusion_mode, strategy.prefer_mapping
        keep = ctx.require("stash") if ctx.training else ()
        ctx.state["fwd_plan"] = plan_module(
            ctx.require("forward"), mode=mode, prefer_mapping=mapping,
            keep=keep, stages=ctx.stages,
        )
        if ctx.training:
            ctx.state["bwd_plan"] = plan_module(
                ctx.require("decision").combined_backward,
                mode=mode,
                prefer_mapping=mapping,
                keep=(),
                stages=ctx.stages,
            )

    def summary(self, ctx: PassContext) -> str:
        fwd = len(ctx.state["fwd_plan"].kernels)
        if "bwd_plan" in ctx.state:
            return f"{fwd} fwd + {len(ctx.state['bwd_plan'].kernels)} bwd kernels"
        return f"{fwd} kernels"


# ----------------------------------------------------------------------
def _boundary_values(
    forward, strategy, *, mode: str, stages: Optional[StageMemo] = None
) -> List[str]:
    """Forward values written to DRAM under the strategy's own fusion."""
    probe = plan_module(
        forward, mode=mode, prefer_mapping=strategy.prefer_mapping, keep=(),
        stages=stages,
    )
    writes: List[str] = []
    for i in range(len(probe.kernels)):
        writes.extend(probe.kernel_io(i).writes)
    return _dedup(writes)


def _dedup(names: Sequence[str]) -> List[str]:
    return list(dict.fromkeys(names))
