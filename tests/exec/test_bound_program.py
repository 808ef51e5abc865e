"""The bound program held to the reference interpreter, bit for bit.

``Engine.run_plan`` lowers a plan, once per run configuration, into a
straight line of bound steps — resolved kernels, operand slots, ring
recipes, precomputed frees — and runs that.
:func:`tests.helpers.reference_run` is the plain interpreter it
replaced: every node on a name-keyed dict through the public kernel
dispatch, on whole arrays or on its ring's block.  Each case runs both
on the same inputs and compares the outputs and keep set
(:func:`tests.helpers.assert_same_values`: by bytes, README clause
1d's weighted chains aside) and ``measured_peak_bytes``, over the core
models and strategies and hypothesis-drawn graphs and fields:

- ``whole``: a whole-field training step;
- ``serving``: a forward on a sampled field's rings (the plan's own map);
- ``training``: a step on the training maps, at a random non-decreasing
  ``distance``, so gradients are read past their rings;
- ``walk``: ``BLOCK_BYTES = 1``, so every blocked kernel walks;
- ``bf16``: bf16 storage, rounded at every node boundary;
- ``finite``: ``check_finite`` switched on after construction.

A partitioned run is not bit-identical to the single-graph one (row-
sharded products), so ``multi`` holds a 4-part ``MultiEngine`` to one
whose shards take no chains (:func:`tests.helpers.per_node_multi_engine`):
values, the ordered exchange log and per-part peaks.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.exec import Engine, MultiEngine, blocks  # noqa: E402
from repro.frameworks import compile_training, get_strategy  # noqa: E402
from repro.graph import chung_lu  # noqa: E402
from repro.ir.autodiff import grad_seed_name  # noqa: E402
from repro.ir.module import GRAPH_CONSTANTS  # noqa: E402
from repro.registry import MODELS  # noqa: E402
from repro.serve import receptive_field  # noqa: E402
from tests.helpers import (  # noqa: E402
    assert_same_values, backward_arrays, per_node_multi_engine, reference_run,
    training_phases,
)

CORE = ("gat", "gcn", "sage", "monet")
STRATEGIES = ("dgl-like", "ours", "ours-stash")
CASES = ("whole", "serving", "training", "walk", "bf16", "finite", "multi")
IN_DIM, NUM_CLASSES = 6, 3


@functools.lru_cache(maxsize=None)
def _compiled(model: str, strategy: str, precision: str):
    return compile_training(
        MODELS.get(model)(IN_DIM, NUM_CLASSES),
        replace(get_strategy(strategy), precision=precision),
    )


def _check(engine, plan, env, ctx, **ring):
    """One run of ``plan`` through both interpreters; the engine's result."""
    got = engine.run_plan(plan, env, unwrap=False, **ring)
    want = reference_run(engine, plan, env, **ring)
    assert_same_values(got, want.results, plan, ctx)
    assert engine.measured_peak_bytes == want.peak, ctx
    return got


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model", CORE)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_bound_program_is_the_reference(model, strategy, case, data):
    compiled = _compiled(model, strategy, "bf16" if case == "bf16" else "fp32")
    num_vertices = data.draw(st.integers(6, 48), label="V")
    graph = chung_lu(
        num_vertices, data.draw(st.integers(num_vertices, 5 * num_vertices), label="E"),
        seed=data.draw(st.integers(0, 2**16), label="graph seed"),
    ).add_self_loops()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    ctx = f"{model}/{strategy}/{case}"
    if case == "serving":
        seeds = rng.choice(num_vertices, size=min(3, num_vertices), replace=False)
        field = receptive_field(
            graph, np.sort(seeds), data.draw(st.integers(1, 3), label="hops")
        )
        graph = field.subgraph
    features = rng.normal(size=(graph.num_vertices, IN_DIM))
    params = compiled.model.init_params(0)
    if case == "multi":
        runs = []
        for multi in (
            MultiEngine(graph, 4, precision="float32"),
            per_node_multi_engine(graph, 4, precision="float32"),
        ):
            phases = []
            for values in training_phases(multi, compiled, features, params):
                phases.append((values, list(multi.exchanges), multi.measured_peak_bytes_per_gpu))
            runs.append(phases)
        for (got, got_log, got_peaks), (want, want_log, want_peaks) in zip(*runs):
            assert_same_values(got, want, compiled.fwd_plan, ctx)
            assert got_log == want_log and got_peaks == want_peaks, ctx
        return

    engine = Engine(graph, precision="float32")
    if case == "finite":
        engine.check_finite = True
    arrays = compiled.model.make_inputs(graph, features)
    arrays.update(params)
    env = engine.bind(compiled.forward, arrays)
    saved = blocks.BLOCK_BYTES
    blocks.BLOCK_BYTES = 1 if case == "walk" else saved
    try:
        if case == "serving":
            _check(engine, compiled.fwd_plan, env, ctx, distance=field.distance)
            return
        if case != "training":
            fwd = _check(engine, compiled.fwd_plan, env, ctx)
            benv = engine.bind(
                compiled.bwd_plan.module, backward_arrays(compiled, arrays, fwd)
            )
            _check(engine, compiled.bwd_plan, benv, ctx)
            return
        # A training step on the seeds' rings, at any non-decreasing
        # distance: the seeds are the distance-0 rows.
        distance = np.sort(
            data.draw(
                st.lists(st.integers(0, 3), min_size=graph.num_vertices,
                         max_size=graph.num_vertices),
                label="distance",
            )
        )
        fwd_rings, bwd_rings = compiled.rings()
        fwd = _check(engine, compiled.fwd_plan, env, ctx, distance=distance, rings=fwd_rings)
        seeds = int(np.searchsorted(distance, 0, side="right"))
        output = compiled.forward.outputs[0]
        benv = {}
        for name in list(compiled.bwd_plan.module.inputs) + list(compiled.bwd_plan.module.params):
            if name == grad_seed_name(output):
                benv[name] = rng.normal(size=(seeds,) + fwd[output].shape[1:]).astype(np.float32)
            elif name in GRAPH_CONSTANTS:
                benv[name] = engine.graph_constant(name)
            else:
                benv[name] = fwd[name] if name in fwd else env[name]
        _check(engine, compiled.bwd_plan, benv, ctx, distance=distance, rings=bwd_rings)
    finally:
        blocks.BLOCK_BYTES = saved



class TestLowering:
    """Programs are lowered once per (plan, settings, ring map) and
    cached with the plan, so the fresh engine each sampled batch builds
    lowers nothing; a setting changed between runs gets a program of its
    own."""

    @staticmethod
    def _count_lowerings(monkeypatch):
        lowered = []
        lower = Engine._lower

        def spy(self, plan, *args):
            lowered.append(plan)
            return lower(self, plan, *args)

        monkeypatch.setattr(Engine, "_lower", spy)
        return lowered

    def test_an_epoch_lowers_one_program_per_plan(self, monkeypatch):
        from repro.train import Adam, MiniBatchTrainer

        compiled = compile_training(MODELS.get("sage")(IN_DIM, NUM_CLASSES), get_strategy("ours"))
        graph = chung_lu(300, 1200, seed=2).add_self_loops()
        rng = np.random.default_rng(0)
        features = rng.normal(size=(graph.num_vertices, IN_DIM))
        labels = rng.integers(0, NUM_CLASSES, graph.num_vertices)
        lowered = self._count_lowerings(monkeypatch)
        trainer = MiniBatchTrainer(compiled, graph, batch_size=32, precision="float32")
        for _ in range(2):
            epoch = trainer.train_epoch(features, labels, Adam(lr=0.01))
            assert len(epoch.records) == 10
        assert [id(plan) for plan in lowered] == [
            id(compiled.fwd_plan), id(compiled.bwd_plan)
        ]

    def test_a_changed_setting_gets_a_fresh_program(self, monkeypatch):
        # A fresh compile: its plans hold no program yet.
        compiled = compile_training(MODELS.get("gat")(IN_DIM, NUM_CLASSES), get_strategy("ours"))
        graph = chung_lu(60, 600, seed=3)
        engine = Engine(graph, precision="float32")
        arrays = compiled.model.make_inputs(graph, np.ones((60, IN_DIM)))
        arrays.update(compiled.model.init_params(0))
        arrays["h"] = arrays["h"].copy()
        arrays["h"][7] = np.inf
        env = engine.bind(compiled.forward, arrays)
        plan = compiled.fwd_plan
        walked = []
        walk = Engine._walk
        monkeypatch.setattr(
            Engine, "_walk", lambda self, run, bound: walked.append(bound) or walk(self, run, bound)
        )
        lowered = self._count_lowerings(monkeypatch)
        block_bytes = blocks.BLOCK_BYTES

        with np.errstate(all="ignore"):
            engine.run_plan(plan, env)
            engine.check_finite = True
            with pytest.raises(FloatingPointError):
                engine.run_plan(plan, env)
            engine.check_finite = False
            engine.run_plan(plan, env)
            assert walked == []
            monkeypatch.setattr(blocks, "BLOCK_BYTES", 128)
            engine.run_plan(plan, env)
            assert walked, "a 128-byte block walks"
            monkeypatch.setattr(blocks, "BLOCK_BYTES", block_bytes)
            del walked[:]
            engine.run_plan(plan, env)
        assert walked == []
        assert len(lowered) == 3  # default, check_finite, 128-byte blocks
