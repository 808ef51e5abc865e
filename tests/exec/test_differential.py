"""Differential tests: every strategy computes the same values, and the
analytic counters agree with real array shapes.

The contract (README "differential-testing contract"): optimizations
are *accounting* transforms.  Reorganization, fusion, recomputation,
stash policy, and partitioning change where bytes live and flow — never
what is computed.  So:

1. for every registered model and every pair of training strategies,
   Engine outputs and parameter gradients must be equal (up to float
   associativity of reordered sums),
2. for every compiled plan, the analytic per-kernel byte counters must
   equal byte counts re-derived from the shapes of the arrays a real
   Engine run touches.

A fast subset runs in tier-1; the full model × strategy cross product
is marked ``slow`` and runs in CI's dedicated job.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import Engine
from repro.frameworks import (
    compile_forward,
    compile_training,
    get_strategy,
    list_strategies,
)
from repro.graph import Graph, chung_lu
from repro.registry import MODELS

from tests.helpers import (
    assert_counters_match_shapes,
    assert_values_close,
    training_values,
)

IN_DIM, NUM_CLASSES = 6, 4


def _training_strategies():
    return [
        name for name in list_strategies()
        if get_strategy(name).supports_training
    ]


@pytest.fixture(scope="module")
def diff_graph() -> Graph:
    """Heavy-tailed random graph with parallel edges."""
    return chung_lu(40, 200, seed=5)


@pytest.fixture(scope="module")
def tricky_graph() -> Graph:
    """Self-loops, an isolated vertex, and a parallel edge."""
    src = np.array([0, 0, 1, 2, 2, 0, 4])
    dst = np.array([1, 2, 2, 0, 2, 1, 4])
    return Graph(src, dst, 6)


def _inputs(graph: Graph, model, seed: int = 0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(graph.num_vertices, IN_DIM))
    return feats, model.init_params(seed)


def _run(model_name: str, graph: Graph, strategy_name: str):
    model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
    feats, params = _inputs(graph, model)
    compiled = compile_training(model, get_strategy(strategy_name))
    engine = Engine(graph, precision="float64")
    outs, grads = training_values(engine, compiled, feats, params)
    return {**outs, **{f"grad:{k}": v for k, v in grads.items()}}


class TestStrategiesAgree:
    """Engine results are invariant under the strategy axis."""

    @pytest.mark.parametrize("model_name", ["gat", "gcn"])
    def test_fast_subset(self, diff_graph, model_name):
        reference = _run(model_name, diff_graph, "dgl-like")
        for strategy in ("ours", "ours-nofusion"):
            got = _run(model_name, diff_graph, strategy)
            assert_values_close(
                got, reference, context=f"{model_name}/{strategy}"
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_full_cross_product(self, diff_graph, model_name):
        strategies = _training_strategies()
        reference = _run(model_name, diff_graph, strategies[0])
        for strategy in strategies[1:]:
            got = _run(model_name, diff_graph, strategy)
            assert_values_close(
                got, reference, context=f"{model_name}/{strategy}"
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_degenerate_graph_cross_product(self, tricky_graph, model_name):
        strategies = _training_strategies()
        reference = _run(model_name, tricky_graph, strategies[0])
        for strategy in strategies[1:]:
            got = _run(model_name, tricky_graph, strategy)
            assert_values_close(
                got, reference, context=f"{model_name}/{strategy}"
            )

    def test_forward_only_strategy_matches(self, diff_graph):
        """huang-like (inference-only) forward equals the trained stack's."""
        model = MODELS.get("gat")(IN_DIM, NUM_CLASSES)
        feats, params = _inputs(diff_graph, model)
        arrays = model.make_inputs(diff_graph, feats)
        arrays.update(params)
        results = {}
        for strategy in ("huang-like", "ours", "dgl-like"):
            compiled = compile_forward(model, get_strategy(strategy))
            engine = Engine(diff_graph, precision="float64")
            env = engine.bind(compiled.forward, arrays)
            out = engine.run_plan(compiled.plan, env)
            results[strategy] = {
                name: out[name] for name in compiled.forward.outputs
            }
        assert_values_close(
            results["huang-like"], results["ours"], context="huang/ours"
        )
        assert_values_close(
            results["dgl-like"], results["ours"], context="dgl/ours"
        )


class TestCountersMatchShapes:
    """analyze_plan byte counters == bytes derived from real arrays."""

    @pytest.mark.parametrize("model_name", ["gat", "gcn"])
    @pytest.mark.parametrize("strategy", ["ours", "dgl-like"])
    def test_fast_subset(self, diff_graph, model_name, strategy):
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        feats, params = _inputs(diff_graph, model)
        compiled = compile_training(model, get_strategy(strategy))
        assert_counters_match_shapes(compiled, diff_graph, feats, params)

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_every_model_every_strategy(self, diff_graph, model_name):
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        feats, params = _inputs(diff_graph, model)
        for strategy in _training_strategies():
            compiled = compile_training(model, get_strategy(strategy))
            assert_counters_match_shapes(compiled, diff_graph, feats, params)

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_degenerate_graphs(self, model_name):
        zero_edge = Graph(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5
        )
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        feats, params = _inputs(zero_edge, model)
        compiled = compile_training(model, get_strategy("ours"))
        assert_counters_match_shapes(compiled, zero_edge, feats, params)
