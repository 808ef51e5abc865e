"""MultiEngine vs Engine: partitioned execution must not change values.

The core acceptance contract of the multi-GPU subsystem: running the
same plan per-partition with explicit halo exchange agrees with
single-graph execution — graph operators bit for bit (identical
per-segment reduction order under destination edge ownership),
row-sharded dense ops and the cross-part gradient all-reduce up to
float tolerance, and everything bit for bit at P=1.
The concrete halo bytes the MultiEngine moves must also reconcile
exactly with the analytic exchange schedule.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.halo import check_comm_records
from repro.exec import Engine, MultiEngine, blocks
from repro.exec.analytic import plan_comm_records
from repro.exec.multi import ExchangeRecord
from repro.frameworks import compile_training, get_strategy, list_strategies
from repro.graph import Graph, chung_lu
from repro.graph.partition import PartitionStats, partition_graph
from repro.registry import MODELS

from tests.helpers import (
    assert_same_values, assert_values_close, per_node_multi_engine, training_phases,
    training_values,
)

IN_DIM, NUM_CLASSES = 6, 4


@pytest.fixture(scope="module")
def graph() -> Graph:
    return chung_lu(50, 250, seed=3)


def _compare(model_name, strategy_name, graph, num_parts, method, seed=0):
    model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(graph.num_vertices, IN_DIM))
    params = model.init_params(seed)
    compiled = compile_training(model, get_strategy(strategy_name))

    single = Engine(graph, precision="float64", free_dead_values=False)
    outs1, grads1 = training_values(single, compiled, feats, params)

    multi = MultiEngine(
        graph, partition_graph(graph, num_parts, method=method), precision="float64"
    )
    outs2, grads2 = training_values(multi, compiled, feats, params)

    ctx = f"{model_name}/{strategy_name}/{method}x{num_parts}"
    assert_values_close(outs2, outs1, context=ctx)
    assert_values_close(grads2, grads1, rtol=1e-8, atol=1e-10, context=ctx)

    # The accounting precision: row-sharded dense ops (BLAS) are not
    # bit-reproducible across row counts, so float32 agrees to the
    # tolerance the perf harness checks, not bit for bit.
    outs32, grads32 = training_values(Engine(graph), compiled, feats, params)
    outs, grads = training_values(
        MultiEngine(graph, multi.partition), compiled, feats, params
    )
    _assert_max_rel(outs, outs32, 1e-6, ctx + "/float32")
    _assert_max_rel(grads, grads32, 1e-4, ctx + "/float32")
    return multi


def _assert_max_rel(got, want, rtol, context):
    """Largest error relative to the largest entry, as ``perf/`` checks."""
    assert set(got) == set(want), context
    for name in want:
        scale = float(np.abs(want[name]).max(initial=0.0)) + 1e-12
        worst = float(np.abs(got[name] - want[name]).max(initial=0.0)) / scale
        assert worst <= rtol, f"{context}:{name}: max rel err {worst:.3e}"


class TestMultiEngineDifferential:
    @pytest.mark.parametrize("num_parts", [1, 2, 4])
    @pytest.mark.parametrize("method", ["hash", "range", "greedy"])
    def test_gat_all_partitioners(self, graph, num_parts, method):
        multi = _compare("gat", "ours", graph, num_parts, method)
        if num_parts > 1:
            assert multi.comm_bytes > 0
        else:
            assert multi.comm_bytes == 0

    @pytest.mark.parametrize("model_name", ["gcn", "monet", "edgeconv"])
    def test_more_models_fast(self, graph, model_name):
        _compare(model_name, "ours", graph, 3, "hash")

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_every_model_every_strategy(self, graph, model_name):
        for strategy in list_strategies():
            if not get_strategy(strategy).supports_training:
                continue
            _compare(model_name, strategy, graph, 3, "hash")

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_degenerate_graphs(self, model_name):
        cases = [
            Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5),
            Graph(np.arange(4), np.arange(4), 4),          # all self-loops
            Graph(np.array([0, 0]), np.array([1, 1]), 6),  # isolated + parallel
        ]
        for g in cases:
            # More parts than vertices exercises empty partitions.
            _compare(model_name, "ours", g, 7, "range")

    @pytest.mark.parametrize("model_name", ["gcn", "gat"])
    def test_empty_parts(self, model_name):
        """More parts than vertices: an empty part's shard steps its
        chains on zero rows over the one-vertex placeholder graph."""
        edgeless = Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5)
        multi = _compare(model_name, "ours", edgeless, 7, "range")
        assert 0 in [part.num_owned for part in multi.partition.parts]

    def test_max_gather_argmax_roundtrip(self, graph):
        """GraphSAGE's max aggregator: argmax ids survive the global ↔
        local translation and route gradients to the same edges."""
        _compare("sage", "ours", graph, 4, "hash")


class TestSinglePartIdentity:
    """P=1 has no halo, no cross-part sum and one shard the size of the
    graph: everything ``MultiEngine`` returns and measures must equal
    ``Engine``'s exactly — the identity that pins the shared step.

    ``MultiEngine`` drives the per-node step while ``Engine.run_plan``
    walks fused kernels block by block, so with ``BLOCK_BYTES`` shrunk
    until this graph splits into many blocks the same identity is a
    block-vs-node differential."""

    @pytest.fixture(params=[None, 128], ids=["one-block", "many-blocks"])
    def block_bytes(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(blocks, "BLOCK_BYTES", request.param)

    @pytest.mark.parametrize(
        "strategy_name", ["dgl-like", "fusegnn-like", "ours", "ours-stash"]
    )
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_bit_identical_to_engine(
        self, graph, block_bytes, model_name, strategy_name
    ):
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        feats = np.random.default_rng(0).normal(size=(graph.num_vertices, IN_DIM))
        params = model.init_params(0)
        compiled = compile_training(model, get_strategy(strategy_name))
        single = Engine(graph, precision="float32")
        multi = MultiEngine(graph, 1, precision="float32")
        phases = zip(
            training_phases(single, compiled, feats, params),
            training_phases(multi, compiled, feats, params),
        )
        for phase, (want, got) in zip(("forward", "backward"), phases):
            ctx = f"{model_name}/{strategy_name}/{phase}"
            assert set(got) == set(want), ctx
            for name in want:
                assert np.array_equal(got[name], want[name]), f"{ctx}:{name}"
            assert multi.measured_peak_bytes_per_gpu == [
                single.measured_peak_bytes
            ], ctx
            assert multi.exchanges == [], ctx


class TestChainsVsPerNode:
    """Shards take in-edge aggregation chains and dot steps over their
    halo.  A ``MultiEngine`` whose shards run every node is the oracle:
    values, the ordered exchange log and the measured per-part peaks are
    all equal — a chain changes neither what is computed nor what
    crosses the interconnect, nor when."""

    @staticmethod
    def _check(graph, model_name, strategy, num_parts, overlap, precision="float32"):
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        compiled = compile_training(model, get_strategy(strategy))
        feats = np.random.default_rng(0).normal(size=(graph.num_vertices, IN_DIM))
        kwargs = dict(overlap=overlap, precision=precision)
        engine = MultiEngine(graph, num_parts, **kwargs)
        oracle = per_node_multi_engine(graph, engine.partition, **kwargs)
        phases = zip(
            ("forward", "backward"),
            (compiled.fwd_plan, compiled.bwd_plan),
            training_phases(engine, compiled, feats, model.init_params(0)),
            training_phases(oracle, compiled, feats, model.init_params(0)),
        )
        for phase, plan, got, want in phases:
            ctx = f"{model_name}/{strategy}/P{num_parts}/{overlap}/{precision}/{phase}"
            assert_same_values(got, want, plan, ctx)
            assert engine.exchanges == oracle.exchanges, ctx
            assert (
                engine.measured_peak_bytes_per_gpu == oracle.measured_peak_bytes_per_gpu
            ), ctx

    @pytest.mark.parametrize("overlap", [None, "threads"])
    @pytest.mark.parametrize("num_parts", [1, 3, 4])
    @pytest.mark.parametrize("model_name", ["gat", "monet", "dotgat", "gcn"])
    def test_ours(self, products, graph, model_name, num_parts, overlap):
        self._check(graph, model_name, "ours", num_parts, overlap)
        assert products  # the shards took chains; the oracle's took none

    @pytest.mark.slow
    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_every_model_every_strategy(self, graph, model_name, precision):
        for strategy in list_strategies():
            if not get_strategy(strategy).supports_training:
                continue
            for num_parts in (1, 3, 4):
                for overlap in (None, "threads"):
                    self._check(graph, model_name, strategy, num_parts, overlap, precision)


class TestCommReconciliation:
    @pytest.mark.parametrize("model_name", ["gat", "gcn", "monet", "dotgat"])
    def test_engine_bytes_match_analytic_schedule(self, graph, model_name):
        """Both phases: per-GPU totals and each exchange's kind and
        per-GPU bytes match ``plan_comm_records``, and the log is the
        per-node oracle's, record for record and in order."""
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        compiled = compile_training(model, get_strategy("ours"))
        gp = partition_graph(graph, 3, method="hash")
        pstats = PartitionStats.from_partition(gp)
        engine = MultiEngine(graph, gp, precision="float32")
        oracle = per_node_multi_engine(graph, gp, precision="float32")
        feats = np.random.default_rng(0).normal(size=(graph.num_vertices, IN_DIM))
        phases = zip(
            (compiled.fwd_plan, compiled.bwd_plan),
            training_phases(engine, compiled, feats, model.init_params(0)),
            training_phases(oracle, compiled, feats, model.init_params(0)),
        )
        for plan, _, _ in phases:
            want = plan_comm_records(plan, pstats)
            assert engine.comm_bytes_per_gpu() == [sum(r.bytes for r in recs) for recs in want]
            # Event by event: kind and bytes on every GPU.
            events = sorted(
                (records[0].kind, tuple(r.bytes for r in records)) for records in zip(*want)
            )
            assert sorted((r.kind, r.bytes_per_gpu) for r in engine.exchanges) == events
            assert [(r.label, r.kind, r.bytes_per_gpu) for r in engine.exchanges] == [
                (r.label, r.kind, r.bytes_per_gpu) for r in oracle.exchanges
            ]

    def test_no_exchanges_recorded_single_part(self, graph):
        model = MODELS.get("gat")(IN_DIM, NUM_CLASSES)
        compiled = compile_training(model, get_strategy("ours"))
        engine = MultiEngine(graph, 1, precision="float32")
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(graph.num_vertices, IN_DIM))
        arrays = model.make_inputs(graph, feats)
        arrays.update(model.init_params(0))
        env = engine.bind(compiled.forward, arrays)
        engine.run_plan(compiled.fwd_plan, env)
        assert engine.exchanges == []


class TestExchangeLogIsTheSchedule:
    """The concrete exchange log is ``plan_comm_records``: the same
    records in the same order, each with its kind, root and per-GPU
    bytes — whether the shards take chains or run every node (narrow
    storage, ``check_finite``), serial or threaded — and the halo
    checker finds nothing to report on that schedule."""

    STRATEGIES = ("dgl-like", "fusegnn-like", "ours", "ours-stash")

    @staticmethod
    def _check(graph, model_name, strategy, num_parts, overlap, precision, finite):
        model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
        compiled = compile_training(
            model, replace(get_strategy(strategy), precision=precision)
        )
        engine = MultiEngine(graph, num_parts, overlap=overlap)
        for shard in engine._shards:
            shard.check_finite = finite
        pstats = PartitionStats.from_partition(engine.partition)
        feats = np.random.default_rng(0).normal(size=(graph.num_vertices, IN_DIM))
        phases = zip(
            (compiled.fwd_plan, compiled.bwd_plan),
            training_phases(engine, compiled, feats, model.init_params(0)),
        )
        for plan, _ in phases:
            ctx = f"{model_name}/{strategy}/P{num_parts}/{overlap}/{precision}/{finite}"
            schedule = plan_comm_records(plan, pstats)
            assert check_comm_records(plan, pstats, schedule) == [], ctx
            assert [(r.label, r.kind, r.bytes_per_gpu) for r in engine.exchanges] == [
                (recs[0].label.rsplit(":", 1)[1], recs[0].kind, tuple(r.bytes for r in recs))
                for recs in zip(*schedule)
            ], ctx

    @pytest.mark.parametrize("finite", [False, True])
    @pytest.mark.parametrize("precision", ["fp32", "bf16"])
    @pytest.mark.parametrize("model_name", ["gat", "gcn", "sage", "monet"])
    def test_ours(self, graph, model_name, precision, finite):
        self._check(graph, model_name, "ours", 3, None, precision, finite)

    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_zoo(self, graph, model_name):
        for strategy in self.STRATEGIES:
            for num_parts in (1, 3, 4):
                for overlap in (None, "threads"):
                    for precision in ("fp32", "bf16"):
                        for finite in (False, True):
                            self._check(
                                graph, model_name, strategy, num_parts, overlap,
                                precision, finite,
                            )


class TestMultiEngineAPI:
    def test_rejects_foreign_partition(self, graph):
        other = chung_lu(50, 250, seed=4)
        gp = partition_graph(other, 2)
        with pytest.raises(ValueError):
            MultiEngine(graph, gp)

    def test_missing_input_raises(self, graph):
        model = MODELS.get("gat")(IN_DIM, NUM_CLASSES)
        compiled = compile_training(model, get_strategy("ours"))
        engine = MultiEngine(graph, 2)
        with pytest.raises(KeyError):
            engine.bind(compiled.forward, {})

    def test_result_order_matches_engine(self, graph):
        """Outputs first, then the stash in module definition order —
        the same order ``Engine`` returns, whatever ``PYTHONHASHSEED``."""
        model = MODELS.get("gat")(IN_DIM, NUM_CLASSES)
        feats = np.random.default_rng(0).normal(size=(graph.num_vertices, IN_DIM))
        compiled = compile_training(model, get_strategy("ours"))
        phases = zip(
            training_phases(Engine(graph), compiled, feats, model.init_params(0)),
            training_phases(MultiEngine(graph, 3), compiled, feats, model.init_params(0)),
            (compiled.fwd_plan, compiled.bwd_plan),
        )
        assert len(compiled.fwd_plan.keep) > 2  # an order worth pinning
        for want, got, plan in phases:
            module = plan.module
            defined = list(module.inputs) + list(module.params)
            defined += [o for node in module.nodes for o in node.outputs]
            outputs = list(module.outputs)
            stash = [n for n in defined if n in plan.keep and n not in outputs]
            assert list(want) == outputs + stash
            assert list(got) == list(want)

    def test_exchange_record_totals(self):
        rec = ExchangeRecord("x", "halo_in", (3, 4, 5))
        assert rec.total_bytes == 12
