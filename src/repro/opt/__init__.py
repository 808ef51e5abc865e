"""The paper's three optimization passes plus pipeline assembly.

- :mod:`~repro.opt.reorganize` — §4 propagation-postponed operator
  reorganization (compute redundancy elimination),
- :mod:`~repro.opt.fusion` — §5 unified-thread-mapping kernel
  partitioning (IO elimination),
- :mod:`~repro.opt.recompute` — §6 intermediate-data recomputation
  (training-memory elimination),
- :mod:`~repro.opt.autotune` — per-kernel thread-mapping selection by
  the cost model (§5's "based on performance profiling"),
- :mod:`~repro.opt.stages` — the pure stages (naive module, reorganize,
  autodiff, partitioning) run once per input object; a plan cache
  shares one memo across the strategies compiled for a model,
- :mod:`~repro.opt.pipeline` — the passes above lifted into composable
  :class:`~repro.opt.pipeline.Pass` objects run by a
  :class:`~repro.opt.pipeline.PassManager` (per-pass IR deltas and
  timings; custom passes/orderings via ``@register_pass``).
"""

from repro.opt.reorganize import reorganize
from repro.opt.fusion import partition_kernels
from repro.opt.stages import StageMemo
from repro.opt.recompute import plan_recompute, RecomputeDecision
from repro.opt.autotune import autotune_plan
from repro.opt.pipeline import (
    Pass,
    PassContext,
    PassManager,
    PassRecord,
    build_pipeline,
)

__all__ = [
    "reorganize",
    "partition_kernels",
    "StageMemo",
    "plan_recompute",
    "RecomputeDecision",
    "autotune_plan",
    "Pass",
    "PassContext",
    "PassManager",
    "PassRecord",
    "build_pipeline",
]
