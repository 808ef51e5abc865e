"""Differential suite: measured live bytes vs the analytic ledger.

The contract (same shape as the PR-3 feature-gather reconciliation):
at the accounting precision (float32), the engine's measured live-byte
high-watermark equals ``analyze_plan``'s ledger peak **byte for byte**,
for every model and fusion/recompute strategy, on both phases, with and
without an arena memory plan — and executing through the arena (slab
reuse included) reproduces the fresh-storage run bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.models  # noqa: F401  (populates the model registry)
from repro.exec import Engine, MultiEngine, plan_memory
from repro.exec.analytic import analyze_plan
from repro.exec.memory import StepMemoryPlan, ledger_walk
from repro.graph.generators import erdos_renyi
from repro.frameworks import compile_training, get_strategy
from repro.ir.module import GRAPH_CONSTANTS
from repro.registry import MODELS
from tests.helpers import ring_root_sizes

GRAPH = erdos_renyi(150, 1200, seed=11)
STATS = GRAPH.stats()

#: The §5/§6 axes the ledger depends on: fusion scope × recompute
#: policy (the inference-only strategy has no backward to reconcile).
STRATEGIES = ("ours", "ours-stash", "ours-nofusion", "dgl-like")


def _bwd_env(compiled, engine, env, fwd):
    module = compiled.bwd_plan.module
    out: dict = {}
    for name in list(module.inputs) + list(module.params):
        if name.startswith("grad__"):
            out[name] = np.ones_like(np.asarray(fwd[name[len("grad__"):]]))
        elif name in GRAPH_CONSTANTS:
            out[name] = engine.graph_constant(name)
        elif name in fwd:
            out[name] = fwd[name]
        else:
            out[name] = env[name]
    return out


def _reconcile(name, strategy):
    compiled = compile_training(
        MODELS.get(name)(8, 3), get_strategy(strategy)
    )
    pinned = list(compiled.forward.inputs) + list(compiled.forward.params)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(GRAPH.num_vertices, 8)).astype(np.float32)
    arrays = compiled.model.make_inputs(GRAPH, feats)
    arrays.update(compiled.model.init_params(0))

    mp_f = plan_memory(compiled.fwd_plan, STATS, pinned=pinned)
    mp_b = plan_memory(compiled.bwd_plan, STATS, pinned=pinned)

    plain = Engine(GRAPH, precision="float32")
    arena = Engine(
        GRAPH, precision="float32",
        memory_plan=StepMemoryPlan(forward=mp_f, backward=mp_b),
    )

    env_p = plain.bind(compiled.forward, arrays)
    fwd_p = plain.run_plan(compiled.fwd_plan, env_p, unwrap=False)
    assert plain.measured_peak_bytes == analyze_plan(
        compiled.fwd_plan, STATS
    ).peak_memory_bytes, f"{name}/{strategy}: unpinned fwd watermark"

    env_a = arena.bind(compiled.forward, arrays)
    fwd_a = arena.run_plan(compiled.fwd_plan, env_a, unwrap=False)
    want_f = analyze_plan(compiled.fwd_plan, STATS, pinned=pinned)
    assert arena.measured_peak_bytes == want_f.peak_memory_bytes, (
        f"{name}/{strategy}: pinned fwd watermark"
    )
    assert want_f.peak_memory_bytes == mp_f.ledger_peak_bytes
    for key in fwd_p:
        assert np.array_equal(
            np.asarray(fwd_a[key]), np.asarray(fwd_p[key])
        ), f"{name}/{strategy}: arena fwd diverges on {key}"

    bwd_p = plain.run_plan(
        compiled.bwd_plan, _bwd_env(compiled, plain, env_p, fwd_p)
    )
    assert plain.measured_peak_bytes == analyze_plan(
        compiled.bwd_plan, STATS
    ).peak_memory_bytes, f"{name}/{strategy}: unpinned bwd watermark"

    bwd_a = arena.run_plan(
        compiled.bwd_plan, _bwd_env(compiled, arena, env_a, fwd_a)
    )
    want_b = analyze_plan(compiled.bwd_plan, STATS, pinned=pinned)
    assert arena.measured_peak_bytes == want_b.peak_memory_bytes, (
        f"{name}/{strategy}: pinned bwd watermark"
    )
    for key in bwd_p:
        assert np.array_equal(
            np.asarray(bwd_a[key]), np.asarray(bwd_p[key])
        ), f"{name}/{strategy}: arena bwd diverges on {key}"

    # The arena is the deliverable footprint: never above fresh storage,
    # bounded below by the unpinned share of the ledger peak.
    for mp, want in ((mp_f, want_f), (mp_b, want_b)):
        assert mp.arena_bytes <= mp.naive_bytes
        assert mp.arena_bytes >= mp.live_peak_bytes


class TestMeasuredLedgerFast:
    """Tier-1 subset: two models, the two headline strategies."""

    @pytest.mark.parametrize("name", ("gat", "sage"))
    @pytest.mark.parametrize("strategy", ("ours", "dgl-like"))
    def test_watermark_reconciles(self, name, strategy):
        _reconcile(name, strategy)


@pytest.mark.slow
class TestMeasuredLedgerExhaustive:
    """Full cross-product: every model × fusion/recompute strategy."""

    @pytest.mark.parametrize("name", sorted(MODELS.names()))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_watermark_reconciles(self, name, strategy):
        _reconcile(name, strategy)


class TestArenaResultStability:
    def test_returned_outputs_survive_a_second_run(self):
        # Results leave the arena: a later run reusing the slabs must
        # never mutate arrays a caller still holds.
        compiled = compile_training(MODELS.get("gcn")(8, 3), get_strategy("ours"))
        pinned = list(compiled.forward.inputs) + list(compiled.forward.params)
        mp = plan_memory(compiled.fwd_plan, STATS, pinned=pinned)
        engine = Engine(GRAPH, precision="float32", memory_plan=mp)
        rng = np.random.default_rng(0)

        def run(seed):
            feats = rng.normal(size=(GRAPH.num_vertices, 8)).astype(np.float32)
            arrays = compiled.model.make_inputs(GRAPH, feats)
            arrays.update(compiled.model.init_params(seed))
            env = engine.bind(compiled.forward, arrays)
            return engine.run_plan(compiled.fwd_plan, env, unwrap=False)

        first = run(0)
        snapshot = {k: np.array(v) for k, v in first.items()}
        run(1)
        for name, snap in snapshot.items():
            assert np.array_equal(np.asarray(first[name]), snap), (
                f"second arena run mutated previously returned {name!r}"
            )


class TestMultiEngineWatermarks:
    def test_per_part_watermark_bounded_by_analytic_ledger(self):
        from repro.graph.partition import (
            PartitionStats,
            partition_graph,
        )

        compiled = compile_training(MODELS.get("gcn")(8, 3), get_strategy("ours"))
        gp = partition_graph(GRAPH, 3, method="hash", seed=0)
        pstats = PartitionStats.from_partition(gp)
        engine = MultiEngine(GRAPH, gp, precision="float32")
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(GRAPH.num_vertices, 8)).astype(np.float32)
        arrays = compiled.model.make_inputs(GRAPH, feats)
        arrays.update(compiled.model.init_params(0))
        env = engine.bind(compiled.forward, arrays)
        engine.run_plan(compiled.fwd_plan, env, unwrap=False)
        assert len(engine.measured_peak_bytes_per_gpu) == 3
        for p, measured in enumerate(engine.measured_peak_bytes_per_gpu):
            # The analytic per-part walk covers owned + ghost rows; the
            # engine's shards hold owned rows only, so the measured
            # watermark is a positive lower bound.
            want = analyze_plan(compiled.fwd_plan, pstats.parts[p])
            assert 0 < measured <= want.peak_memory_bytes


class TestMiniBatchTrainerMemoryPlans:
    def test_per_field_watermark_reconciles(self):
        from repro.graph.sampling import plan_minibatches
        from repro.train import Adam, MiniBatchTrainer

        compiled = compile_training(MODELS.get("sage")(8, 3), get_strategy("ours"))
        pinned = list(compiled.forward.inputs) + list(compiled.forward.params)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(GRAPH.num_vertices, 8))
        labels = rng.integers(0, 3, size=GRAPH.num_vertices)
        trainer = MiniBatchTrainer(
            compiled, GRAPH, batch_size=40, precision="float32",
            memory_plan=True,
        )
        epoch = trainer.train_epoch(feats, labels, Adam(lr=0.01))
        # The analytic twin draws the identical schedule from the seed.
        schedule = list(
            plan_minibatches(GRAPH, 40, trainer.hops, rng=np.random.default_rng(0))
        )
        assert epoch.num_batches == len(schedule)
        phases = list(zip((compiled.fwd_plan, compiled.bwd_plan), compiled.rings()))
        for record, mb in zip(epoch.records, schedule):
            # Each step runs on rings: the ledger walk over the roots at
            # the sizes the rings hold them.
            assert mb.distance[-1] > 0
            want = max(
                ledger_walk(
                    plan, ring_root_sizes(plan, depth, mb.subgraph, mb.distance),
                    pinned=pinned,
                ).peak_bytes
                for plan, depth in phases
            )
            assert record.peak_bytes == want
        assert epoch.peak_bytes == max(r.peak_bytes for r in epoch.records)

    def test_seeds_covering_watermark_is_the_field_ledger(self):
        from repro.train import Adam, MiniBatchTrainer

        compiled = compile_training(MODELS.get("sage")(8, 3), get_strategy("ours"))
        pinned = list(compiled.forward.inputs) + list(compiled.forward.params)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(GRAPH.num_vertices, 8))
        labels = rng.integers(0, 3, size=GRAPH.num_vertices)
        trainer = MiniBatchTrainer(
            compiled, GRAPH, batch_size=GRAPH.num_vertices, precision="float32",
            memory_plan=True,
        )
        (record,) = trainer.train_epoch(feats, labels, Adam(lr=0.01)).records
        want = max(
            analyze_plan(plan, STATS, pinned=pinned).peak_memory_bytes
            for plan in (compiled.fwd_plan, compiled.bwd_plan)
        )
        assert record.peak_bytes == want

    def test_memory_plan_requires_accounting_precision(self):
        from repro.train import MiniBatchTrainer, Trainer

        compiled = compile_training(MODELS.get("sage")(8, 3), get_strategy("ours"))
        with pytest.raises(ValueError, match="float32"):
            MiniBatchTrainer(
                compiled, GRAPH, batch_size=40, memory_plan=True
            )
        # Trainer fails at construction too, not mid-step in the arena.
        mp = plan_memory(compiled.fwd_plan, STATS)
        with pytest.raises(ValueError, match="float32"):
            Trainer(compiled, GRAPH, memory_plans=mp)
        # And so does a bare Engine: one guard, applied where the arena
        # plan is handed over, not at the first slab that overflows.
        with pytest.raises(ValueError, match="float32"):
            Engine(GRAPH, precision="float64", memory_plan=mp)

    def test_memory_plan_refuses_logical_dtypes_at_construction(self):
        from repro.train import MiniBatchTrainer

        strategy = replace(get_strategy("ours"), precision="bf16")
        compiled = compile_training(MODELS.get("sage")(8, 3), strategy)
        # Engines are built per batch: refused here, not at the first one.
        with pytest.raises(ValueError, match="logical dtypes"):
            MiniBatchTrainer(
                compiled, GRAPH, batch_size=40, precision="float32",
                memory_plan=True,
            )

    def test_arena_epoch_matches_plain_epoch_bit_for_bit(self):
        from repro.train import Adam, MiniBatchTrainer

        compiled = compile_training(MODELS.get("sage")(8, 3), get_strategy("ours"))
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(GRAPH.num_vertices, 8))
        labels = rng.integers(0, 3, size=GRAPH.num_vertices)
        plain = MiniBatchTrainer(
            compiled, GRAPH, batch_size=40, precision="float32"
        )
        arena = MiniBatchTrainer(
            compiled, GRAPH, batch_size=40, precision="float32",
            memory_plan=True,
        )
        ep_p = plain.train_epoch(feats, labels, Adam(lr=0.01))
        ep_a = arena.train_epoch(feats, labels, Adam(lr=0.01))
        assert ep_p.loss == ep_a.loss
        assert ep_p.accuracy == ep_a.accuracy
        for p_name in plain.params:
            assert np.array_equal(plain.params[p_name], arena.params[p_name])
