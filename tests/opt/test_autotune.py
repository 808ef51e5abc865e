"""Tests for per-kernel mapping autotuning."""

import numpy as np
import pytest

import repro.models  # noqa: F401  (populates the model registry)
from repro.exec import Engine, analyze_plan, plan_module
from repro.exec.plan import ExecPlan
from repro.frameworks import compile_training, get_strategy
from repro.gpu import RTX3090, CostModel
from repro.graph import GraphStats, chung_lu
from repro.ir import Builder, Domain
from repro.opt.autotune import _with_mapping, autotune_plan, mapping_choices
from repro.registry import MODELS

from tests.helpers import kernel_record


def aggregate_module(f=16):
    """GCN-style aggregate: scatter + mul + gather (no ReduceScatter)."""
    b = Builder("agg")
    h = b.input("h", Domain.VERTEX, (f,))
    wgt = b.input("wgt", Domain.EDGE, ())
    msg = b.scatter("copy_u", u=h)
    wmsg = b.apply("mul", msg, wgt)
    b.output(b.gather("sum", wmsg))
    return b.build()


def softmax_module():
    b = Builder("sm")
    h = b.input("h", Domain.VERTEX, ())
    e = b.scatter("u_add_v", u=h, v=h)
    b.output(b.gather("sum", b.edge_softmax(e)))
    return b.build()


def skewed_stats(V=20_000, mean=50, max_deg=8_000, seed=0):
    return GraphStats.from_degree_model(
        V, mean, alpha=1.5, max_degree=max_deg, seed=seed
    )


class TestMappingChoices:
    def test_reduce_scatter_pinned_to_vertex(self):
        plan = plan_module(softmax_module(), mode="unified")
        fused = next(k for k in plan.kernels if k.reduce_scatter)
        assert mapping_choices(fused) == ("vertex",)

    def test_free_kernel_offers_both(self):
        plan = plan_module(aggregate_module(), mode="unified")
        fused = next(k for k in plan.kernels if len(k) > 1)
        assert set(mapping_choices(fused)) == {"vertex", "edge"}

    def test_dense_kernel_fixed(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        w = b.param("w", (4, 4))
        b.output(b.apply("linear", h, params=[w]))
        plan = plan_module(b.build(), mode="unified")
        assert mapping_choices(plan.kernels[0]) == ("dense",)


class TestAutotune:
    def test_picks_edge_on_skewed(self):
        plan = plan_module(aggregate_module(), mode="unified")
        tuned = autotune_plan(plan, skewed_stats(), CostModel(RTX3090))
        fused = next(k for k in tuned.kernels if len(k) > 1)
        assert fused.mapping == "edge"
        assert fused.atomic

    def test_picks_vertex_on_regular(self):
        plan = plan_module(aggregate_module(), mode="unified")
        regular = GraphStats.regular(20_000, 50)
        tuned = autotune_plan(plan, regular, CostModel(RTX3090))
        fused = next(k for k in tuned.kernels if len(k) > 1)
        assert fused.mapping == "vertex"
        assert not fused.atomic

    @pytest.mark.parametrize("make_stats", [
        lambda: skewed_stats(),
        lambda: GraphStats.regular(20_000, 50),
    ], ids=["skewed", "regular"])
    def test_never_worse_than_fixed_choices(self, make_stats):
        stats = make_stats()
        cm = CostModel(RTX3090)
        module = aggregate_module()

        def total(plan):
            return sum(
                cm.kernel_seconds(kernel_record(plan, i, stats), stats)
                for i in range(len(plan.kernels))
            )

        vertex = plan_module(module, mode="unified", prefer_mapping="vertex")
        edge = plan_module(module, mode="unified", prefer_mapping="edge")
        tuned = autotune_plan(vertex, stats, cm)
        assert total(tuned) <= total(vertex) + 1e-12
        assert total(tuned) <= total(edge) + 1e-12

    def test_tuned_plan_executes_identically(self, rng):
        graph = chung_lu(80, 500, seed=2)
        module = aggregate_module(f=8)
        plan = plan_module(module, mode="unified")
        tuned = autotune_plan(plan, graph.stats(), CostModel(RTX3090))
        engine = Engine(graph, precision="float64")
        arrays = {
            "h": rng.normal(size=(80, 8)),
            "wgt": rng.normal(size=(500,)),
        }
        a = engine.run_plan(plan, engine.bind(module, arrays))
        b = engine.run_plan(tuned, engine.bind(module, arrays))
        out = module.outputs[0]
        assert np.allclose(a[out], b[out])

    @pytest.mark.parametrize("model", ["gat", "gcn", "monet"])
    def test_candidates_priced_as_whole_plans(self, model):
        # Each candidate record is the plan's own with work / rows /
        # atomic replaced; the oracle rebuilds the plan with the kernel
        # remapped and walks that kernel's record from scratch.
        compiled = compile_training(MODELS.get(model)(8, 3), get_strategy("ours"))
        cm = CostModel(RTX3090)
        for stats in (skewed_stats(), GraphStats.regular(2_000, 5)):
            for plan in (compiled.fwd_plan, compiled.bwd_plan):
                tuned = autotune_plan(plan, stats, cm)
                for i, kernel in enumerate(plan.kernels):
                    seconds = {
                        m: cm.kernel_seconds(kernel_record(ExecPlan(
                            plan.module,
                            [_with_mapping(k, m) if j == i else k
                             for j, k in enumerate(plan.kernels)],
                            plan.keep,
                        ), i, stats), stats)
                        for m in mapping_choices(kernel)
                    }
                    assert seconds[tuned.kernels[i].mapping] == min(seconds.values())

    def test_original_plan_untouched(self):
        plan = plan_module(aggregate_module(), mode="unified")
        mappings_before = [k.mapping for k in plan.kernels]
        autotune_plan(plan, skewed_stats(), CostModel(RTX3090))
        assert [k.mapping for k in plan.kernels] == mappings_before
