"""Tests for the composable pass pipeline (repro.opt.pipeline)."""

import pytest

from repro.frameworks import compile_forward, compile_training, get_strategy
from repro.frameworks.strategy import ExecutionStrategy
from repro.models import GAT, EdgeConv
from repro.opt.pipeline import (
    DEFAULT_FORWARD_PASSES,
    DEFAULT_TRAINING_PASSES,
    CSEPass,
    Pass,
    PassContext,
    PassManager,
    build_pipeline,
)
from repro.registry import PASSES, register_pass


class TestPassRecords:
    def test_training_pipeline_records_every_pass(self):
        compiled = compile_training(GAT(8, (8, 4), heads=2), get_strategy("ours"))
        names = [r.name for r in compiled.pass_records]
        assert names == list(DEFAULT_TRAINING_PASSES)
        for record in compiled.pass_records:
            assert record.seconds >= 0
            assert record.nodes_after > 0

    def test_forward_pipeline_skips_training_passes(self):
        compiled = compile_forward(GAT(8, (8, 4), heads=2), get_strategy("ours"))
        names = [r.name for r in compiled.pass_records]
        assert names == list(DEFAULT_FORWARD_PASSES)
        assert "autodiff" not in names and "recompute" not in names

    def test_reorganize_delta_visible(self):
        # EdgeConv's per-edge Θ is the paper's flagship rewrite: the
        # reorganize record must show the IR changing.
        compiled = compile_training(EdgeConv(3, (8, 4)), get_strategy("ours"))
        reorg = compiled.pass_records[0]
        assert reorg.name == "reorganize"
        assert "rewrote" in reorg.summary

    def test_noreorg_strategy_records_noop(self):
        compiled = compile_training(
            EdgeConv(3, (8, 4)), get_strategy("ours-noreorg")
        )
        reorg = compiled.pass_records[0]
        assert not reorg.changed_ir
        assert "no-op" in reorg.summary


class TestCustomPipelines:
    def test_pass_names_order_is_honoured(self):
        strat = ExecutionStrategy(
            name="tmp-ordered",
            pass_names=["reorganize", "cse", "autodiff", "recompute", "fusion"],
        )
        # Lists are coerced to tuples so the dataclass stays hashable.
        assert strat.pass_names == (
            "reorganize", "cse", "autodiff", "recompute", "fusion",
        )
        compiled = compile_training(GAT(8, (8, 4), heads=2), strat)
        assert [r.name for r in compiled.pass_records] == list(strat.pass_names)

    def test_unknown_pass_name_errors(self):
        strat = ExecutionStrategy(name="tmp-bad", pass_names=("reorganise",))
        with pytest.raises(KeyError, match="unknown pass"):
            compile_training(GAT(8, (8, 4), heads=2), strat)

    def test_incomplete_pipeline_reports_missing_state(self):
        strat = ExecutionStrategy(name="tmp-short", pass_names=("reorganize",))
        with pytest.raises(KeyError, match="pipeline state has no"):
            compile_training(GAT(8, (8, 4), heads=2), strat)

    def test_custom_pass_composes_and_equivalence_holds(self):
        @register_pass("count-nodes")
        class CountNodesPass(Pass):
            name = "count-nodes"

            def run(self, ctx):
                ctx.state["node_count"] = len(ctx.require("forward").nodes)

            def summary(self, ctx):
                return f"{ctx.state['node_count']} nodes"

        try:
            strat = ExecutionStrategy(
                name="tmp-custom",
                pass_names=(
                    "reorganize", "cse", "count-nodes",
                    "autodiff", "recompute", "fusion",
                ),
            )
            model = GAT(8, (8, 4), heads=2)
            compiled = compile_training(model, strat)
            record = compiled.pass_records[2]
            assert record.name == "count-nodes"
            assert "nodes" in record.summary
            # The audit pass must not perturb the compile result.
            baseline = compile_training(model, get_strategy("ours"))
            from repro.graph import chung_lu

            stats = chung_lu(40, 200, seed=5).stats()
            assert compiled.counters(stats).flops == baseline.counters(stats).flops
        finally:
            PASSES.remove("count-nodes")


class TestCSEPass:
    def test_default_is_noop_without_request(self):
        # dgl-like EdgeConv never reorganizes, so the naive module must
        # survive the cse stage untouched (baseline fidelity).
        model = EdgeConv(3, (8, 4))
        compiled = compile_training(model, get_strategy("dgl-like"))
        cse = compiled.pass_records[1]
        assert cse.name == "cse"
        assert not cse.changed_ir

    def test_forced_cse_sweeps(self):
        model = EdgeConv(3, (8, 4))
        naive = model.build_module()
        ctx = PassContext(
            strategy=get_strategy("ours-noreorg"),
            model=model,
            training=False,
            state={"forward": naive, "needs_cse": True},
        )
        PassManager([CSEPass()]).run(ctx)
        # EdgeConv's u_sub_v feeds both operands from `h`; CSE folds the
        # duplicate copy-scatter.
        assert len(ctx.state["forward"].nodes) <= len(naive.nodes)

    def test_needs_cse_flag_triggers_sweep(self):
        model = EdgeConv(3, (8, 4))
        ctx = PassContext(
            strategy=get_strategy("ours-noreorg"),
            model=model,
            training=False,
            state={"forward": model.build_module(), "needs_cse": True},
        )
        PassManager([CSEPass()]).run(ctx)
        assert ctx.state["needs_cse"] is False
        assert "swept" in ctx.records[0].summary


class TestBuildPipeline:
    def test_default_training_pipeline(self):
        pm = build_pipeline(get_strategy("ours"), training=True)
        assert [p.name for p in pm.passes] == list(DEFAULT_TRAINING_PASSES)

    def test_accepts_pass_instances(self):
        strat = ExecutionStrategy(name="tmp-inst")
        pm = build_pipeline(strat, training=False)
        assert all(isinstance(p, Pass) for p in pm.passes)
