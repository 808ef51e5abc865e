"""Differential suite: measured live bytes vs the analytic ledger.

The contract (same shape as the PR-3 feature-gather reconciliation):
at the accounting precision (float32), the engine's measured live-byte
high-watermark equals ``analyze_plan``'s ledger peak **byte for byte**,
for every model and fusion/recompute strategy, on both phases, with and
without an arena memory plan — and executing through the arena (slab
reuse included) reproduces the fresh-storage run bit for bit.
"""

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


class TestMiniBatchTrainerWatermarks:
    """A sampled step runs on fresh storage, so its measured watermark
    is the unpinned ledger walk — on a ring step, over the roots at the
    sizes its rings hold them."""

    @staticmethod
    def _epoch(batch_size):
        from repro.train import Adam, MiniBatchTrainer

        compiled = compile_training(MODELS.get("sage")(8, 3), get_strategy("ours"))
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(GRAPH.num_vertices, 8))
        labels = rng.integers(0, 3, size=GRAPH.num_vertices)
        trainer = MiniBatchTrainer(
            compiled, GRAPH, batch_size=batch_size, precision="float32"
        )
        return compiled, trainer, trainer.train_epoch(feats, labels, Adam(lr=0.01))

    def test_per_field_watermark_reconciles(self):
        from repro.graph.sampling import plan_minibatches

        compiled, trainer, epoch = self._epoch(40)
        # The analytic twin draws the identical schedule from the seed.
        schedule = list(
            plan_minibatches(GRAPH, 40, trainer.hops, rng=np.random.default_rng(0))
        )
        assert epoch.num_batches == len(schedule)
        phases = list(zip((compiled.fwd_plan, compiled.bwd_plan), compiled.rings()))
        for record, mb in zip(epoch.records, schedule):
            assert mb.distance[-1] > 0
            want = max(
                ledger_walk(
                    plan, ring_root_sizes(plan, depth, mb.subgraph, mb.distance),
                    pinned=(),
                ).peak_bytes
                for plan, depth in phases
            )
            assert record.peak_bytes == want
        assert epoch.peak_bytes == max(r.peak_bytes for r in epoch.records)

    @pytest.mark.parametrize("offset", ["-depth", -1, 1])
    def test_ring_steps_off_depth_reconcile(self, offset):
        # Fields shallower or deeper than the model, stepped through
        # Trainer.train_step(distance=) as MiniBatchTrainer steps its own.
        from repro.exec.rings import receptive_hops
        from repro.graph.sampling import plan_minibatches
        from repro.train import Adam, Trainer

        compiled = compile_training(MODELS.get("sage")(8, 3), get_strategy("ours"))
        depth = receptive_hops(compiled.forward)
        hops = 0 if offset == "-depth" else depth + offset
        # Sparse enough that a field reaches its last hop before the
        # whole graph.
        graph = erdos_renyi(600, 1200, seed=3)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(graph.num_vertices, 8))
        labels = rng.integers(0, 3, size=graph.num_vertices)
        phases = list(zip((compiled.fwd_plan, compiled.bwd_plan), compiled.rings()))
        params, optimizer = compiled.model.init_params(0), Adam(lr=0.01)
        schedule = list(
            plan_minibatches(graph, 40, hops, rng=np.random.default_rng(0))
        )
        assert all(mb.distance[-1] == hops for mb in schedule)
        for mb in schedule:
            trainer = Trainer(compiled, mb.subgraph, params=params, precision="float32")
            trainer.train_step(
                feats[mb.vertices], labels[mb.vertices], optimizer,
                distance=mb.distance,
            )
            params = trainer.params
            assert trainer.last_peak_bytes == max(
                ledger_walk(
                    plan, ring_root_sizes(plan, rings, mb.subgraph, mb.distance),
                    pinned=(),
                ).peak_bytes
                for plan, rings in phases
            )

    def test_seeds_covering_watermark_is_the_field_ledger(self):
        compiled, _, epoch = self._epoch(GRAPH.num_vertices)
        (record,) = epoch.records
        want = max(
            analyze_plan(plan, STATS).peak_memory_bytes
            for plan in (compiled.fwd_plan, compiled.bwd_plan)
        )
        assert record.peak_bytes == want

    def test_arena_plans_require_accounting_precision(self):
        # One guard, applied where the arena plan is handed over, not
        # at the first slab that overflows.
        compiled = compile_training(MODELS.get("sage")(8, 3), get_strategy("ours"))
        mp = plan_memory(compiled.fwd_plan, STATS)
        with pytest.raises(ValueError, match="float32"):
            Engine(GRAPH, precision="float64", memory_plan=mp)
