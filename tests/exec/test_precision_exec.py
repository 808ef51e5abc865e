"""Differential tests for mixed-precision execution.

README differential contract, item 1b: a precision policy is a
*storage* transform — it changes how features live in memory, never
what graph the model computes.  So against the fp32 oracle:

* ``fp32``  — bit-identical (``apply_precision`` is the identity),
* ``fp16``/``bf16`` — outputs within ``1e-2`` relative error,
* ``int8`` — outputs within ``1e-1`` relative error.

A fast subset runs in tier-1; the full model zoo is ``slow``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.exec import Engine, MultiEngine, plan_memory
from repro.frameworks import compile_forward, compile_training, get_strategy
from repro.graph import chung_lu
from repro.ir.precision import PRECISIONS, precision_error_bound
from repro.registry import MODELS

from tests.helpers import assert_values_close, training_values

IN_DIM, NUM_CLASSES = 6, 4
FAST_MODELS = ("gat", "gcn")
NON_ORACLE = tuple(p for p in PRECISIONS if p != "fp32")


@pytest.fixture(scope="module")
def graph():
    return chung_lu(40, 200, seed=5)


def _forward_outputs(model, graph, precision, *, strategy="ours", seed=0):
    """Forward outputs under ``precision`` storage, float32 compute."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(graph.num_vertices, IN_DIM)).astype(np.float32)
    arrays = dict(model.make_inputs(graph, feats))
    arrays.update(model.init_params(seed))
    strat = replace(get_strategy(strategy), precision=precision)
    compiled = compile_forward(model, strat)
    engine = Engine(graph, precision="float32")
    env = engine.bind(compiled.forward, arrays)
    out = engine.run_plan(compiled.plan, env, unwrap=True)
    return {k: np.asarray(out[k]) for k in compiled.forward.outputs}


def _assert_within(got, oracle, bound, context):
    assert set(got) == set(oracle)
    for name, ref in oracle.items():
        denom = max(float(np.abs(ref).max()), 1e-12)
        rel = float(np.abs(got[name] - ref).max()) / denom
        assert rel <= bound, (
            f"{context}: output {name!r} drifted {rel:.2e} > {bound:g}"
        )


class TestForwardDifferential:
    @pytest.mark.parametrize("model_name", FAST_MODELS)
    def test_fp32_is_bit_identical(self, graph, model_name):
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        oracle = _forward_outputs(model, graph, "fp32")
        again = _forward_outputs(model, graph, "float32")
        for name, ref in oracle.items():
            np.testing.assert_array_equal(again[name], ref)

    @pytest.mark.parametrize("precision", NON_ORACLE)
    @pytest.mark.parametrize("model_name", FAST_MODELS)
    def test_fast_subset_within_bounds(self, graph, model_name, precision):
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        oracle = _forward_outputs(model, graph, "fp32")
        got = _forward_outputs(model, graph, precision)
        _assert_within(
            got, oracle, precision_error_bound(precision),
            f"{model_name}@{precision}",
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_full_zoo_within_bounds(self, graph, model_name):
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        oracle = _forward_outputs(model, graph, "fp32")
        for precision in NON_ORACLE:
            got = _forward_outputs(model, graph, precision)
            _assert_within(
                got, oracle, precision_error_bound(precision),
                f"{model_name}@{precision}",
            )


class TestTrainingDifferential:
    @pytest.mark.parametrize("precision", ["fp16", "bf16"])
    def test_grads_within_bound(self, graph, precision):
        model = MODELS.get("gcn")(IN_DIM, NUM_CLASSES)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(graph.num_vertices, IN_DIM)).astype(
            np.float32
        )
        params = model.init_params(0)

        def _run(prec):
            strat = replace(get_strategy("ours"), precision=prec)
            compiled = compile_training(model, strat)
            engine = Engine(graph, precision="float32")
            return training_values(engine, compiled, feats, params)

        outs32, grads32 = _run("fp32")
        outs, grads = _run(precision)
        bound = precision_error_bound(precision)
        _assert_within(outs, outs32, bound, f"train-out@{precision}")
        # Gradients accumulate one more reduction layer; give them an
        # extra factor over the forward bound.
        _assert_within(grads, grads32, 10 * bound, f"train-grad@{precision}")


class TestArenaInteraction:
    def _compiled_and_arrays(self, graph, precision):
        model = MODELS.get("gcn")(IN_DIM, NUM_CLASSES)
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(graph.num_vertices, IN_DIM)).astype(
            np.float32
        )
        arrays = dict(model.make_inputs(graph, feats))
        arrays.update(model.init_params(2))
        strat = replace(get_strategy("ours"), precision=precision)
        return compile_forward(model, strat), arrays

    def test_fp16_arena_backed_matches_plain(self, graph):
        compiled, arrays = self._compiled_and_arrays(graph, "fp16")
        stats = graph.stats()
        pinned = list(compiled.forward.inputs) + list(compiled.forward.params)
        mp = plan_memory(compiled.plan, stats, pinned=pinned)

        def _run(engine):
            env = engine.bind(compiled.forward, arrays)
            out = engine.run_plan(compiled.plan, env, unwrap=True)
            return {k: np.asarray(out[k]) for k in compiled.forward.outputs}

        plain = _run(Engine(graph, precision="float32"))
        arena = _run(Engine(graph, precision="float32", memory_plan=mp))
        assert_values_close(arena, plain, context="fp16 arena")

    @pytest.mark.parametrize("precision", ["bf16", "int8"])
    def test_logical_dtypes_refuse_the_arena(self, graph, precision):
        # bfloat16/qint8 are *simulated* in float32 arrays, which do not
        # fit slabs sized at honest storage bytes — the engine must say
        # so instead of silently overrunning.
        compiled, arrays = self._compiled_and_arrays(graph, precision)
        stats = graph.stats()
        pinned = list(compiled.forward.inputs) + list(compiled.forward.params)
        mp = plan_memory(compiled.plan, stats, pinned=pinned)
        engine = Engine(graph, precision="float32", memory_plan=mp)
        env = engine.bind(compiled.forward, arrays)
        with pytest.raises(ValueError, match="logical"):
            engine.run_plan(compiled.plan, env)


class TestMultiEnginePrecision:
    @pytest.mark.parametrize("precision", ["fp16", "bf16"])
    def test_partitioned_matches_single(self, graph, precision):
        model = MODELS.get("gcn")(IN_DIM, NUM_CLASSES)
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(graph.num_vertices, IN_DIM)).astype(
            np.float32
        )
        params = model.init_params(3)
        strat = replace(get_strategy("ours"), precision=precision)
        compiled = compile_training(model, strat)

        single = Engine(graph, precision="float32", free_dead_values=False)
        outs1, grads1 = training_values(single, compiled, feats, params)

        multi = MultiEngine(graph, 3, precision="float32")
        outs2, grads2 = training_values(multi, compiled, feats, params)

        # Halo rows and gradients round to storage at different
        # boundaries than single-engine execution, so the two agree at
        # quantisation scale, not bit-for-bit.
        bound = precision_error_bound(precision)
        _assert_within(outs2, outs1, bound, f"multi-out@{precision}")
        _assert_within(grads2, grads1, 10 * bound, f"multi-grad@{precision}")
        assert multi.comm_bytes > 0
