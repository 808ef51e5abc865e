"""Overlapped MultiEngine execution vs the serial oracle.

The differential contract of the async runtime: running a plan's
hazard waves through the thread-pool executor (``overlap="threads"``)
is **bit-identical** to the serial plan-order walk — outputs, parameter
gradients, exchange records, and measured memory peaks all match
exactly, because the wave decomposition only reorders kernels
``may_overlap`` certifies as independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import MultiEngine
from repro.frameworks import compile_training, get_strategy, list_strategies
from repro.graph import chung_lu
from repro.registry import MODELS

from tests.helpers import training_values

IN_DIM, NUM_CLASSES = 6, 4


@pytest.fixture(scope="module")
def graph():
    return chung_lu(50, 250, seed=3)


def _run(graph, model_name, strategy_name, overlap, num_parts=4):
    model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(graph.num_vertices, IN_DIM))
    params = model.init_params(0)
    compiled = compile_training(model, get_strategy(strategy_name))
    multi = MultiEngine(graph, num_parts, precision="float64", overlap=overlap)
    outs, grads = training_values(multi, compiled, feats, params)
    return multi, outs, grads


def _assert_bit_identical(graph, model_name, strategy_name, num_parts=4):
    serial, outs0, grads0 = _run(
        graph, model_name, strategy_name, None, num_parts
    )
    multi, outs, grads = _run(
        graph, model_name, strategy_name, "threads", num_parts
    )
    ctx = f"{model_name}/{strategy_name}"
    for name in outs0:
        assert np.array_equal(outs0[name], outs[name]), f"{ctx}:{name}"
    for name in grads0:
        assert np.array_equal(grads0[name], grads[name]), f"{ctx}:{name}"
    # The concrete exchange log reconciles record for record.
    assert multi.exchanges == serial.exchanges, ctx
    assert multi.comm_bytes == serial.comm_bytes, ctx
    assert multi.overlap_waves is not None


class TestOverlapDifferential:
    @pytest.mark.parametrize("model_name", ["gat", "gcn", "rgcn"])
    def test_core_models_bit_identical(self, graph, model_name):
        _assert_bit_identical(graph, model_name, "ours")

    def test_single_partition(self, graph):
        _assert_bit_identical(graph, "gcn", "ours", num_parts=1)

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_full_zoo_bit_identical(self, graph, model_name):
        for strategy in list_strategies():
            if not get_strategy(strategy).supports_training:
                continue
            _assert_bit_identical(graph, model_name, strategy, num_parts=3)

    def test_waves_cover_plan(self, graph):
        multi, _, _ = _run(graph, "gat", "ours", "threads")
        waves = multi.overlap_waves
        assert waves is not None
        kernels = sorted(k for wave in waves for k in wave)
        assert kernels == list(range(kernels[-1] + 1))

    @pytest.mark.parametrize("mode", ["fibers", "events"])
    def test_unknown_mode_rejected(self, graph, mode):
        with pytest.raises(ValueError, match="overlap"):
            MultiEngine(graph, 2, overlap=mode)
