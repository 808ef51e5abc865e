"""Measured execution: per-kernel timing, classification, calibration.

The measurement layer never influences results — it only reads the
engine's ``kernel_timings`` hook — so these tests pin the structural
contracts: every kernel is classified and timed, medians come from the
requested repeat count, analytic pairing uses the same records as the
cost model, and the calibration table has one row per kernel class
with a finite ratio.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import Engine
from repro.exec.measure import (
    KERNEL_CLASSES,
    KernelTiming,
    MeasuredRun,
    calibration_rows,
    kernel_class,
    measure_plan,
)
from repro.frameworks import compile_forward, compile_training, get_strategy
from repro.graph import chung_lu
from repro.models import GAT

IN_DIM = 6


@pytest.fixture(scope="module")
def workload():
    graph = chung_lu(50, 250, seed=3)
    model = GAT(IN_DIM, (8,), heads=1)
    compiled = compile_forward(model, get_strategy("dgl-like"))
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(graph.num_vertices, IN_DIM)).astype(np.float32)
    arrays = dict(model.make_inputs(graph, feats))
    arrays.update(model.init_params(0))
    return graph, compiled, arrays


class TestKernelClass:
    def test_training_plan_covers_all_classes(self):
        model = GAT(IN_DIM, (8,), heads=1)
        compiled = compile_training(model, get_strategy("dgl-like"))
        classes = {
            kernel_class(k)
            for plan in (compiled.fwd_plan, compiled.bwd_plan)
            for k in plan.kernels
        }
        assert classes == set(KERNEL_CLASSES)

    def test_gather_dominates(self, workload):
        # Any kernel containing a GATHER node classifies as gather no
        # matter what apply nodes are fused around it.
        _, compiled, _ = workload
        from repro.ir.ops import OpKind

        for kernel in compiled.plan.kernels:
            kinds = {n.kind for n in kernel.nodes}
            if OpKind.GATHER in kinds:
                assert kernel_class(kernel) == "gather"


class TestEngineTimingHook:
    def test_disabled_by_default(self, workload):
        graph, compiled, arrays = workload
        engine = Engine(graph, precision="float32")
        assert engine.kernel_timings is None
        engine.run_plan(compiled.plan, engine.bind(compiled.forward, arrays))
        assert engine.kernel_timings is None

    def test_records_every_kernel(self, workload):
        graph, compiled, arrays = workload
        engine = Engine(graph, precision="float32")
        engine.kernel_timings = []
        engine.run_plan(compiled.plan, engine.bind(compiled.forward, arrays))
        indices = [i for i, _ in engine.kernel_timings]
        assert indices == list(range(len(compiled.plan.kernels)))
        assert all(t >= 0.0 for _, t in engine.kernel_timings)


class TestMeasurePlan:
    def test_structure(self, workload):
        graph, compiled, arrays = workload
        run = measure_plan(
            graph, compiled.plan, arrays, repeats=3, warmup=1
        )
        assert run.gpu == "V100"
        assert run.repeats == 3
        assert run.dtype == "float32"
        assert [t.index for t in run.timings] == list(
            range(len(compiled.plan.kernels))
        )
        for t in run.timings:
            assert t.kernel_class in KERNEL_CLASSES
            assert t.measured_s >= 0.0
            # View-only ("none"-mapped) kernels are priced at zero by
            # the analytic model; everything real costs something.
            assert t.analytic_s >= 0.0
            if t.mapping != "none":
                assert t.analytic_s > 0.0
        assert run.total_measured_s == pytest.approx(
            sum(t.measured_s for t in run.timings)
        )
        assert set(run.class_seconds()) == set(run.class_analytic_seconds())

    def test_results_unchanged_by_measurement(self, workload):
        graph, compiled, arrays = workload
        engine = Engine(graph, precision="float32")
        env = engine.bind(compiled.forward, arrays)
        plain = engine.run_plan(compiled.plan, env)
        engine.kernel_timings = []
        timed = engine.run_plan(compiled.plan, env)
        for name in plain:
            np.testing.assert_array_equal(plain[name], timed[name])

    def test_rejects_zero_repeats(self, workload):
        graph, compiled, arrays = workload
        with pytest.raises(ValueError, match="repeats"):
            measure_plan(graph, compiled.plan, arrays, repeats=0)


class TestCalibrationRows:
    def test_row_shape_and_ratio(self):
        run = MeasuredRun(gpu="V100", repeats=1)
        run.timings.append(
            KernelTiming(
                index=0, label="k0", kernel_class="gather",
                mapping="vertex", measured_s=2.0, analytic_s=0.5,
            )
        )
        run.timings.append(
            KernelTiming(
                index=1, label="k1", kernel_class="apply",
                mapping="vertex", measured_s=1.0, analytic_s=0.0,
            )
        )
        rows = calibration_rows(run)
        assert [(r["dtype"], r["kernel_class"], r["kernels"]) for r in rows] == [
            ("float32", "gather", 1),
            ("float32", "apply", 1),
        ]
        assert rows[0]["ratio"] == 4.0
        assert rows[1]["ratio"] == float("inf")
        assert KernelTiming(
            index=1, label="k1", kernel_class="apply",
            mapping="vertex", measured_s=1.0, analytic_s=0.0,
        ).ratio == float("inf")
