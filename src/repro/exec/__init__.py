"""Concrete execution substrate: kernels, plans, interpreter, accounting.

This subpackage turns IR modules into numbers, two ways:

- **Concrete** — :class:`~repro.exec.engine.Engine` interprets an
  execution plan with vectorised NumPy kernels
  (:mod:`~repro.exec.kernels`), producing bit-for-bit identical results
  regardless of which optimizations were applied (fusion and
  recomputation never change values; a fused kernel runs as one
  cache-blocked walk, so it changes wall-clock and resident bytes).
  This is the correctness oracle and the wall-clock benchmark target.
- **Analytic** — :mod:`~repro.exec.analytic` prices the same plan without
  touching arrays: its exact FLOP / DRAM-byte / peak-memory formulas,
  lowered once into integer affine forms in (V, E)
  (:mod:`~repro.exec.cost_form`), are evaluated on a
  :class:`~repro.graph.stats.GraphStats`.  This is how experiments run
  at full published scale (115M-edge Reddit).

Shared between the two is the plan structure
(:mod:`~repro.exec.plan`): kernels (fused node groups), stash policy,
and recompute programs, as produced by :mod:`repro.opt`.
"""

from repro.exec.plan import ExecPlan, Kernel, plan_module
from repro.exec.engine import Engine
from repro.exec.measure import MeasuredRun, kernel_class, measure_plan
from repro.exec.memory import MemoryLedger, MemoryPlan, StepMemoryPlan, plan_memory
from repro.exec.multi import MultiEngine
from repro.exec.profiler import Counters, MultiGPUCounters
from repro.exec.analytic import (
    analyze_plan,
    analyze_plan_multi,
    analyze_training,
    analyze_training_multi,
)

__all__ = [
    "ExecPlan",
    "Kernel",
    "plan_module",
    "Engine",
    "MultiEngine",
    "MeasuredRun",
    "kernel_class",
    "measure_plan",
    "MemoryPlan",
    "StepMemoryPlan",
    "MemoryLedger",
    "plan_memory",
    "Counters",
    "MultiGPUCounters",
    "analyze_plan",
    "analyze_training",
    "analyze_plan_multi",
    "analyze_training_multi",
]
