"""Tests for ExecPlan: coverage, schedule validation, boundary IO,
aliasing, and liveness."""

import numpy as np
import pytest

import repro.models  # noqa: F401  (populates the model registry)
from repro.exec.plan import ExecPlan, Kernel, plan_module
from repro.frameworks import list_strategies
from repro.ir import Builder, Domain
from repro.ir.ops import OpKind
from repro.registry import MODELS

from tests.helpers import naive_kernel_io, zoo_plans


def chain_module():
    b = Builder("m")
    h = b.input("h", Domain.VERTEX, (4,))
    e = b.scatter("copy_u", u=h, name="e")
    x = b.apply("exp", e, name="x")
    v = b.gather("sum", x, name="v")
    b.output(v)
    return b.build()


class TestValidation:
    def test_coverage_enforced(self):
        m = chain_module()
        kernels = [Kernel(nodes=(m.nodes[0],), mapping="edge", label="only")]
        with pytest.raises(ValueError, match="every module node"):
            ExecPlan(module=m, kernels=kernels)

    def test_schedule_order_enforced(self):
        m = chain_module()
        kernels = [
            Kernel(nodes=(m.nodes[2],), mapping="vertex", label="v"),
            Kernel(nodes=(m.nodes[0],), mapping="edge", label="e"),
            Kernel(nodes=(m.nodes[1],), mapping="edge", label="x"),
        ]
        with pytest.raises(ValueError, match="before it is defined"):
            ExecPlan(module=m, kernels=kernels)


class TestBoundaryIO:
    def test_per_op_boundaries(self):
        m = chain_module()
        plan = plan_module(m, mode="per_op")
        io0 = plan.kernel_io(0)
        assert io0.reads == ("h",)
        assert io0.writes == ("e",)
        io2 = plan.kernel_io(2)
        assert io2.writes == ("v",)

    def test_fused_internal_values(self):
        m = chain_module()
        plan = plan_module(m, mode="unified")
        fused = plan.kernel_io(0)
        assert set(fused.internal) == {"e", "x"}
        assert fused.reads == ("h",)
        assert fused.writes == ("v",)

    def test_keep_forces_write_out(self):
        m = chain_module()
        plan = plan_module(m, mode="unified", keep=["x"])
        fused = plan.kernel_io(0)
        assert "x" in fused.writes
        assert "e" in fused.internal

    def test_view_alias_not_traffic(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        w = b.param("w", (4, 4))
        y = b.apply("linear", h, params=[w], name="y")
        v = b.view(y, (2, 2), name="vview")
        e = b.scatter("copy_u", u=v, name="e")
        b.output(b.gather("sum", e, name="out"))
        m = b.build()
        plan = plan_module(m, mode="per_op")
        assert plan.root_of("vview") == "y"
        # The scatter kernel reads through the alias: exactly one read.
        scatter_idx = next(
            i for i, k in enumerate(plan.kernels) if k.nodes[0].fn == "copy_u"
        )
        reads = plan.kernel_io(scatter_idx).reads
        assert len(reads) == 1
        assert plan.root_of(reads[0]) == "y"

    @pytest.mark.parametrize("precision", ("fp32", "bf16", "int8"))
    @pytest.mark.parametrize("strategy", list_strategies())
    @pytest.mark.parametrize("model", sorted(MODELS.names()))
    def test_indexed_io_equals_the_rescan(self, model, strategy, precision):
        # kernel_io reads one root -> reading-kernels index per plan;
        # the oracle rescans every other kernel for every kernel.
        _, plans = zoo_plans(model, strategy, precision)
        for plan in plans:
            for i in range(len(plan.kernels)):
                assert plan.kernel_io(i) == naive_kernel_io(plan, i), (
                    f"{plan.module.name} kernel {i} ({plan.kernels[i].label})"
                )

    def test_a_value_kept_through_an_alias_escapes(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        x = b.apply("relu", h, name="x")
        y = b.apply("exp", x, name="y")
        b.output(b.view(x, (2, 2), name="xv"))
        b.output(y)
        plan = plan_module(b.build(), mode="unified")
        # Only a view reads x outside its kernel, and views move no
        # data: x escapes because its alias is a module output.
        assert [k.label for k in plan.kernels][1:] == ["view:view"]
        assert plan.kernel_io(0).writes == ("x", "y")
        assert plan.kernel_io(0) == naive_kernel_io(plan, 0)


class TestLiveness:
    def test_inputs_have_negative_def(self):
        m = chain_module()
        plan = plan_module(m, mode="per_op")
        lives = plan.liveness()
        assert lives["h"][0] == -1

    def test_intermediate_dies_at_last_use(self):
        m = chain_module()
        plan = plan_module(m, mode="per_op")
        lives = plan.liveness()
        assert lives["e"] == (0, 1)
        assert lives["x"] == (1, 2)

    def test_outputs_survive_plan(self):
        m = chain_module()
        plan = plan_module(m, mode="per_op")
        lives = plan.liveness()
        assert lives["v"][1] == len(plan.kernels)

    def test_keep_survives_plan(self):
        m = chain_module()
        plan = plan_module(m, mode="per_op", keep=["e"])
        lives = plan.liveness()
        assert lives["e"][1] == len(plan.kernels)


class TestProducerIndex:
    def test_producer_kernel(self):
        m = chain_module()
        plan = plan_module(m, mode="per_op")
        assert plan.producer_kernel("e") == 0
        assert plan.producer_kernel("h") is None
