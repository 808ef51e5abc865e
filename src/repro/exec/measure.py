"""Measured execution: wall-clock per-kernel timing vs the analytic model.

The analytic cost model (:mod:`repro.gpu.cost_model`) predicts kernel
latency from exact FLOP/byte counters on a :class:`GPUSpec`.  This
module closes the loop on the host actually running the NumPy
substrate: it executes a compiled plan through an
:class:`~repro.exec.engine.Engine` with per-kernel ``perf_counter``
instrumentation (warmup pass + median of ``repeats``), then lines each
kernel's measured seconds up against its analytic prediction.

The absolute numbers are not comparable — the analytic model prices a
GPU, the measurement prices this host's NumPy — but the *per-class
ratio* is the point: it is a calibration table showing how far each
kernel class (gather / scatter / apply / param-grad / dense) sits from
the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.exec.analytic import vertex_data_inputs
from repro.exec.engine import Engine
from repro.exec.plan import ExecPlan, Kernel
from repro.gpu.cost_model import CostModel
from repro.gpu.spec import GPUSpec, V100
from repro.graph.csr import Graph
from repro.ir.ops import OpKind

__all__ = [
    "kernel_class",
    "KernelTiming",
    "MeasuredRun",
    "measure_plan",
    "calibration_rows",
]

#: Stable row order for per-class aggregation tables.
KERNEL_CLASSES = ("gather", "scatter", "apply", "param_grad", "dense")


def kernel_class(kernel: Kernel) -> str:
    """Classify a kernel by its dominant operator for calibration.

    Reduction kernels dominate their fused neighbours, so any GATHER
    (or, failing that, SCATTER / PARAM_GRAD) node claims the kernel;
    dense-mapped library kernels come next; everything else is an
    element-wise apply.
    """
    kinds = {node.kind for node in kernel.nodes}
    if OpKind.GATHER in kinds:
        return "gather"
    if OpKind.SCATTER in kinds:
        return "scatter"
    if OpKind.PARAM_GRAD in kinds:
        return "param_grad"
    if kernel.mapping == "dense":
        return "dense"
    return "apply"


@dataclass(frozen=True)
class KernelTiming:
    """One kernel's measured wall-clock against its analytic price."""

    index: int
    label: str
    kernel_class: str
    mapping: str
    measured_s: float
    analytic_s: float

    @property
    def ratio(self) -> float:
        """measured / analytic (inf when the model prices it at zero)."""
        if self.analytic_s <= 0.0:
            return float("inf")
        return self.measured_s / self.analytic_s


@dataclass
class MeasuredRun:
    """Per-kernel timings of one plan execution.

    ``dtype`` records the plan's declared feature-storage dtype (the
    vertex data inputs' :attr:`TensorSpec.dtype`) so calibration tables
    distinguish runs that execute the same kernels at different
    storage precisions.
    """

    gpu: str
    repeats: int
    dtype: str = "float32"
    timings: List[KernelTiming] = field(default_factory=list)

    @property
    def total_measured_s(self) -> float:
        return sum(t.measured_s for t in self.timings)

    @property
    def total_analytic_s(self) -> float:
        return sum(t.analytic_s for t in self.timings)

    def class_seconds(self) -> Dict[str, float]:
        """Measured seconds summed per kernel class (stable order)."""
        out: Dict[str, float] = {}
        for cls in KERNEL_CLASSES:
            secs = [t.measured_s for t in self.timings if t.kernel_class == cls]
            if secs:
                out[cls] = sum(secs)
        return out

    def class_analytic_seconds(self) -> Dict[str, float]:
        """Analytic seconds summed per kernel class (stable order)."""
        out: Dict[str, float] = {}
        for cls in KERNEL_CLASSES:
            secs = [t.analytic_s for t in self.timings if t.kernel_class == cls]
            if secs:
                out[cls] = sum(secs)
        return out


def measure_plan(
    graph: Graph,
    plan: ExecPlan,
    arrays: Mapping[str, np.ndarray],
    *,
    precision: str = "float32",
    warmup: int = 1,
    repeats: int = 5,
    gpu: Optional[GPUSpec] = None,
) -> MeasuredRun:
    """Execute ``plan`` with per-kernel timing; median over ``repeats``.

    A ``warmup`` pass (allocator touch) runs untimed
    first; each timed repeat then records every kernel's node-loop
    wall-clock through :attr:`Engine.kernel_timings`, and the per-kernel
    median across repeats is paired with the analytic prediction from
    the kernel's record (:meth:`ExecPlan.cost_forms
    <repro.exec.plan.ExecPlan.cost_forms>`) priced on ``gpu`` (default
    V100).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    gpu = gpu if gpu is not None else V100
    engine = Engine(graph, precision=precision)
    env = engine.bind(plan.module, arrays)

    for _ in range(max(0, warmup)):
        engine.run_plan(plan, env)

    per_kernel: Dict[int, List[float]] = {}
    for _ in range(repeats):
        engine.kernel_timings = []
        engine.run_plan(plan, env)
        for index, seconds in engine.kernel_timings:
            per_kernel.setdefault(index, []).append(seconds)
    engine.kernel_timings = None

    stats = graph.stats()
    model = CostModel(gpu)
    feat_dtypes = sorted(
        {plan.module.specs[n].dtype for n in vertex_data_inputs(plan.module)}
    )
    run = MeasuredRun(
        gpu=gpu.name,
        repeats=repeats,
        dtype="/".join(feat_dtypes) if feat_dtypes else "float32",
    )
    records = plan.cost_forms().evaluate([stats])[0].records
    for index, (kernel, record) in enumerate(zip(plan.kernels, records)):
        samples = per_kernel.get(index)
        if not samples:  # pragma: no cover - every kernel index is timed
            continue
        run.timings.append(
            KernelTiming(
                index=index,
                label=kernel.label,
                kernel_class=kernel_class(kernel),
                mapping=kernel.mapping,
                measured_s=float(np.median(samples)),
                analytic_s=model.kernel_seconds(record, stats),
            )
        )
    return run


def calibration_rows(run: MeasuredRun) -> List[Dict[str, object]]:
    """Per-class rows of ``run``, in :data:`KERNEL_CLASSES` order.

    Each row holds the feature-storage dtype, the kernel class, its
    kernel count, measured and analytic seconds, and their ratio
    (``inf`` when the model prices the class at zero).
    """
    analytic = run.class_analytic_seconds()
    return [
        {
            "dtype": run.dtype,
            "kernel_class": cls,
            "kernels": sum(1 for t in run.timings if t.kernel_class == cls),
            "measured_s": secs,
            "analytic_s": analytic[cls],
            "ratio": secs / analytic[cls] if analytic[cls] > 0.0 else float("inf"),
        }
        for cls, secs in run.class_seconds().items()
    ]
