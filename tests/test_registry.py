"""Tests for the unified registry subsystem (repro.registry)."""

import pytest

from repro.frameworks import get_strategy, list_strategies
from repro.frameworks.strategy import ExecutionStrategy
from repro.gpu.spec import GPUSpec, get_gpu, list_gpus
from repro.graph.datasets import get_dataset
from repro.models import GCN
from repro import registry as reg
from repro.registry import (
    DATASETS,
    GPUS,
    MODELS,
    PASSES,
    STRATEGIES,
    Registry,
    register_dataset,
    register_gpu,
    register_model,
    register_pass,
    register_strategy,
)


class TestGenericRegistry:
    def test_add_get_roundtrip(self):
        r = Registry("thing")
        r.add("a", 1)
        assert r.get("a") == 1
        assert r["a"] == 1
        assert "a" in r and "b" not in r
        assert len(r) == 1

    def test_duplicate_rejected(self):
        r = Registry("thing")
        r.add("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            r.add("a", 2)
        # Original untouched.
        assert r.get("a") == 1

    def test_replace_allows_override(self):
        r = Registry("thing")
        r.add("a", 1)
        r.add("a", 2, replace=True)
        assert r.get("a") == 2

    def test_unknown_name_message(self):
        r = Registry("widget")
        r.add("reorganize", 1)
        with pytest.raises(KeyError) as ei:
            r.get("reorganise")
        msg = str(ei.value)
        assert "unknown widget 'reorganise'" in msg
        assert "did you mean 'reorganize'?" in msg
        assert "available" in msg

    def test_unknown_name_without_suggestion(self):
        r = Registry("widget")
        r.add("alpha", 1)
        with pytest.raises(KeyError) as ei:
            r.get("zzzzzz")
        assert "did you mean" not in str(ei.value)

    def test_bad_key_type(self):
        r = Registry("thing")
        with pytest.raises(TypeError):
            r.add("", 1)
        with pytest.raises(TypeError):
            r.add(None, 1)

    def test_get_with_default(self):
        r = Registry("thing")
        r.add("a", 1)
        assert r.get("missing", None) is None
        assert r.get("missing", 42) == 42
        assert r.get("a", 42) == 1

    def test_mapping_protocol(self):
        r = Registry("thing")
        r.add("b", 2)
        r.add("a", 1)
        assert list(r) == ["a", "b"]
        assert r.names() == ["a", "b"]
        assert r.keys() == ["a", "b"]
        assert r.values() == [1, 2]
        assert r.items() == [("a", 1), ("b", 2)]

    def test_decorator_uses_name_attribute(self):
        r = Registry("thing")

        @r.register()
        class Something:
            name = "the-name"

        assert r.get("the-name") is Something


class TestBuiltinPopulation:
    def test_models_populated(self):
        for name in ("gat", "gcn", "sage", "gin", "monet", "edgeconv",
                     "dotgat", "rgcn"):
            assert name in MODELS

    def test_strategies_populated(self):
        for name in ("dgl-like", "fusegnn-like", "huang-like", "ours"):
            assert name in STRATEGIES

    def test_passes_populated(self):
        for name in ("reorganize", "cse", "autodiff", "recompute", "fusion"):
            assert name in PASSES

    def test_gpus_and_datasets_populated(self):
        assert "RTX3090" in GPUS and "A100" in GPUS
        assert "cora" in DATASETS and "reddit-full" in DATASETS


class TestDidYouMean:
    def test_strategy_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'ours'"):
            get_strategy("ourz")

    def test_model_suggestion(self):
        with pytest.raises(KeyError, match="unknown model"):
            MODELS.get("gatt2")

    def test_dataset_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'cora'"):
            get_dataset("coro")

    def test_gpu_suggestion(self):
        with pytest.raises(KeyError, match="unknown GPU"):
            get_gpu("RTX3080")


class TestDecoratorRoundTrips:
    def test_register_model(self):
        @register_model("tiny-gcn-test")
        def factory(f, c):
            return GCN(f, (8, c))

        try:
            model = MODELS.get("tiny-gcn-test")(4, 3)
            assert model.hidden_dims[-1] == 3
        finally:
            MODELS.remove("tiny-gcn-test")

    def test_register_strategy_instance(self):
        strat = register_strategy(
            ExecutionStrategy(name="test-instance-strat", fusion_mode="macro")
        )
        try:
            assert get_strategy("test-instance-strat") is strat
            assert "test-instance-strat" in list_strategies()
        finally:
            STRATEGIES.remove("test-instance-strat")

    def test_register_strategy_factory_decorator(self):
        @register_strategy
        def _build():
            return ExecutionStrategy(name="test-factory-strat")

        try:
            assert get_strategy("test-factory-strat").name == "test-factory-strat"
        finally:
            STRATEGIES.remove("test-factory-strat")

    def test_register_strategy_duplicate_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_strategy(ExecutionStrategy(name="ours"))

    def test_register_gpu(self):
        spec = register_gpu(GPUSpec(
            name="TEST-GPU", num_sms=10, peak_fp32_tflops=1.0,
            mem_bandwidth_gbps=100.0, dram_gb=4.0,
        ))
        try:
            assert get_gpu("TEST-GPU") is spec
            assert "TEST-GPU" in list_gpus()
        finally:
            GPUS.remove("TEST-GPU")

    def test_register_dataset(self):
        from repro.graph.datasets import Dataset
        from repro.graph.generators import chung_lu

        @register_dataset("test-tiny-ds")
        def build():
            g = chung_lu(30, 120, seed=1)
            return Dataset(
                name="test-tiny-ds", feature_dim=8, num_classes=3,
                stats=g.stats(), _graph=g,
            )

        try:
            ds = get_dataset("test-tiny-ds", fresh=True)
            assert ds.stats.num_vertices == 30
        finally:
            DATASETS.remove("test-tiny-ds")

    def test_register_pass(self):
        from repro.opt.pipeline import Pass

        @register_pass("test-noop-pass")
        class NoopPass(Pass):
            name = "test-noop-pass"

            def run(self, ctx):
                pass

        try:
            assert PASSES.get("test-noop-pass") is NoopPass
        finally:
            PASSES.remove("test-noop-pass")


class TestBackCompatShims:
    def test_get_strategy_reads_the_registry(self):
        assert get_strategy("ours") is STRATEGIES.get("ours")

    def test_get_gpu_shim(self):
        assert get_gpu("RTX3090").name == "RTX3090"
        assert list_gpus() == GPUS.names()

    def test_get_dataset_shim_caches(self):
        assert get_dataset("cora") is get_dataset("cora")
