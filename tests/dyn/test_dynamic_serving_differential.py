"""Dynamic serving differential contract.

The acceptance contract of the dynamic-graph subsystem: serving on a
mutated :class:`DynamicGraph` at version ``v`` is **bit-identical** to
rebuilding the graph and features from scratch at ``v`` and running a
direct Engine on each batch's receptive field — across the model zoo,
after any number of delta batches, with and without intervening
compactions.  Alongside: exact mutation-IO ledgers and the
hit + miss + invalidated gather reconciliation.
"""

import numpy as np
import pytest

from repro.exec.engine import Engine
from repro.frameworks import compile_forward, get_strategy
from repro.graph import get_dataset
from repro.dyn import mixed_workload
from repro.registry import MODELS
from repro.serve import InferenceServer, receptive_field
from tests.helpers import (
    ReferenceFeatureCache,
    cache_state,
    rebuild_at,
    recording_cache,
    replay_cache_calls,
)

CORE_MODELS = ("gat", "gcn", "sage", "gin")
EXTRA_MODELS = tuple(sorted(set(MODELS.names()) - set(CORE_MODELS)))

IN_DIM = 16


@pytest.fixture(scope="module")
def cora():
    ds = get_dataset("cora")
    graph = ds.graph()
    features = ds.features(dim=IN_DIM, seed=0)
    return ds, graph, features


def make_server(graph, features, name, num_classes, **kwargs):
    compiled = compile_forward(
        MODELS.get(name)(IN_DIM, num_classes), get_strategy("ours")
    )
    kwargs.setdefault("gpu", "RTX3090")
    return InferenceServer(graph, features, {name: compiled}, **kwargs)


def dynamic_workload(graph, tenant, n=24, *, seed=0, update_frac=0.35):
    return mixed_workload(
        n,
        qps=4000.0,
        num_vertices=graph.num_vertices,
        feature_dim=IN_DIM,
        update_frac=update_frac,
        seeds_per_request=2,
        slo_s=0.05,
        tenant=tenant,
        zipf_alpha=0.8,
        edge_frac=0.5,
        new_vertex_prob=0.5,
        seed=seed,
    )


def assert_bit_identical_to_rebuild(server, report, graph, features, updates, tenant, seeds_by_id):
    runtime = server.tenants[tenant]
    assert report.batches, "no batches served"
    for trace in report.batches:
        ref_graph, ref_feats = rebuild_at(
            graph, features, updates, trace.dispatch_s
        )
        seeds = np.unique(
            np.concatenate([seeds_by_id[rid] for rid in trace.request_ids])
        )
        mb = receptive_field(ref_graph, seeds, runtime.hops)
        engine = Engine(mb.subgraph, precision="float32")
        arrays = runtime.compiled.model.make_inputs(
            mb.subgraph, ref_feats[mb.vertices]
        )
        arrays.update(runtime.params)
        env = engine.bind(runtime.compiled.forward, arrays)
        direct = engine.run_plan(runtime.compiled.plan, env, unwrap=True)
        logits = direct[runtime.output_name]
        for rid in trace.request_ids:
            rows = np.searchsorted(mb.vertices[: mb.num_seeds], seeds_by_id[rid])
            assert np.array_equal(report.outputs[rid], logits[rows]), (
                f"request {rid}: served outputs differ from from-scratch "
                f"rebuild at t={trace.dispatch_s}"
            )


def _run_dynamic_differential(name, cora, *, compact_every, **server_kwargs):
    ds, graph, features = cora
    server = make_server(graph, features, name, ds.num_classes, **server_kwargs)
    reqs, updates = dynamic_workload(graph, name)
    report = server.serve(reqs, updates=updates, compact_every=compact_every)
    assert len(report.outputs) == len(reqs)
    seeds_by_id = {r.request_id: r.seeds for r in reqs}
    assert_bit_identical_to_rebuild(
        server, report, graph, features, updates, name, seeds_by_id
    )
    return report, updates


class TestDifferentialAgainstRebuild:
    @pytest.mark.parametrize("name", CORE_MODELS)
    @pytest.mark.parametrize("compact_every", [None, 2])
    def test_bit_identical(self, name, compact_every, cora):
        report, updates = _run_dynamic_differential(
            name, cora, compact_every=compact_every
        )
        deltas = [u for u in updates if u.delta is not None]
        assert report.graph_version == len(deltas)
        if compact_every is not None and deltas:
            assert report.compactions == len(deltas) // compact_every
        else:
            assert report.compactions == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("name", EXTRA_MODELS)
    @pytest.mark.parametrize("compact_every", [None, 2])
    def test_bit_identical_full_zoo(self, name, compact_every, cora):
        _run_dynamic_differential(name, cora, compact_every=compact_every)

    def test_compaction_is_invisible_to_answers(self, cora):
        lazy, _ = _run_dynamic_differential("gcn", cora, compact_every=None)
        eager, _ = _run_dynamic_differential("gcn", cora, compact_every=1)
        for rid in lazy.outputs:
            assert np.array_equal(lazy.outputs[rid], eager.outputs[rid])
        assert np.array_equal(lazy.latencies_s, eager.latencies_s)
        assert eager.compact_bytes > lazy.compact_bytes == 0

    def test_cached_run_identical_to_uncached(self, cora):
        # The invalidating cache is an accounting transform only.
        plain, _ = _run_dynamic_differential("sage", cora, compact_every=3)
        cached, _ = _run_dynamic_differential(
            "sage", cora, compact_every=3, cache_rows=2048
        )
        for rid in plain.outputs:
            assert np.array_equal(plain.outputs[rid], cached.outputs[rid])


class TestDynamicAccounting:
    def test_ledgers_are_exact(self, cora):
        ds, graph, features = cora
        server = make_server(
            graph, features, "gat", ds.num_classes, cache_rows=2048
        )
        reqs, updates = dynamic_workload(graph, "gat", 32)
        report = server.serve(reqs, updates=updates, compact_every=2)
        assert report.delta_apply_bytes == 16 * sum(
            u.num_edges for u in updates
        )
        assert report.feature_put_bytes == sum(
            u.feature_rows.nbytes
            + (u.new_vertex_rows.nbytes if u.new_vertex_rows is not None else 0)
            for u in updates
        )
        assert report.mutation_io_bytes == (
            report.delta_apply_bytes
            + report.compact_bytes
            + report.feature_put_bytes
        )
        assert report.num_updates == len(updates)

    def test_gather_reconciles_with_invalidation(self, cora):
        ds, graph, features = cora
        server = make_server(
            graph, features, "gat", ds.num_classes, cache_rows=2048
        )
        reqs, updates = dynamic_workload(graph, "gat", 48, update_frac=0.4)
        report = server.serve(reqs, updates=updates)
        row_bytes = server.tenants["gat"].row_bytes
        for trace in report.batches:
            assert (
                trace.hit_bytes + trace.miss_bytes + trace.invalidated_bytes
                == trace.cost.field * row_bytes
            )
            assert trace.cost.gather_bytes == (
                trace.miss_bytes + trace.invalidated_bytes
            )
        assert (
            report.gather_hit_bytes
            + report.gather_miss_bytes
            + report.gather_invalidated_bytes
            == report.uncached_gather_bytes
        )
        assert report.gather_invalidated_bytes > 0

    def test_staleness_and_versions_recorded(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gcn", ds.num_classes)
        reqs, updates = dynamic_workload(graph, "gcn", 24)
        report = server.serve(reqs, updates=updates)
        assert report.mean_staleness_s > 0
        for outcome in report.outcomes:
            assert outcome.snapshot_s is not None
            assert outcome.staleness_s >= 0
        versions = [
            (t.graph_version, t.feature_version) for t in report.batches
        ]
        assert versions == sorted(versions)  # snapshots only move forward
        assert versions[-1][0] > 0 and versions[-1][1] > 0

    def test_server_state_never_mutated(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gcn", ds.num_classes)
        src0, dst0 = graph.src.copy(), graph.dst.copy()
        feat0 = features.copy()
        reqs, updates = dynamic_workload(graph, "gcn", 16)
        server.serve(reqs, updates=updates, compact_every=1)
        np.testing.assert_array_equal(graph.src, src0)
        np.testing.assert_array_equal(graph.dst, dst0)
        np.testing.assert_array_equal(features, feat0)
        # A second identical run reproduces the identical report.
        a = server.serve(reqs, updates=updates, compact_every=1)
        b = server.serve(reqs, updates=updates, compact_every=1)
        assert np.array_equal(a.latencies_s, b.latencies_s)
        for rid in a.outputs:
            assert np.array_equal(a.outputs[rid], b.outputs[rid])

    def test_static_run_reports_no_dynamic_state(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gcn", ds.num_classes)
        reqs, _ = dynamic_workload(graph, "gcn", 8, update_frac=0.0)
        report = server.serve(reqs)
        assert report.num_updates == 0 and report.mutation_io_bytes == 0
        assert report.mean_staleness_s == 0.0
        assert all(o.snapshot_s is None for o in report.outcomes)

    def test_cache_counters_equal_reference_replay(self, cora, monkeypatch):
        # At 64 rows evictions, bypasses and invalidations interleave;
        # the server's cache must count exactly what the row-by-row
        # oracle counts on the same stream, batch by batch.
        calls = []
        monkeypatch.setattr(
            "repro.serve.server.FeatureCache", recording_cache(calls)
        )
        ds, graph, features = cora
        server = make_server(graph, features, "gat", ds.num_classes, cache_rows=64)
        reqs, updates = dynamic_workload(graph, "gat", 48, update_frac=0.3)
        report = server.serve(reqs, updates=updates, compact_every=2)
        assert_bit_identical_to_rebuild(
            server, report, graph, features, updates, "gat",
            {r.request_id: r.seeds for r in reqs},
        )
        ref = ReferenceFeatureCache(64)
        splits = [
            result
            for call, result in zip(calls, replay_cache_calls(calls, ref))
            if call[0] == "gather"
        ]
        assert [
            (s.hit_bytes, s.miss_bytes, s.invalidated_bytes) for s in splits
        ] == [
            (t.hit_bytes, t.miss_bytes, t.invalidated_bytes)
            for t in report.batches
        ]
        assert cache_state(server.cache) == cache_state(ref)
        assert ref.evictions and ref.invalidations and ref.invalidated
        assert ref.pinned_bypasses

    def test_update_validation(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gcn", ds.num_classes)
        reqs, updates = dynamic_workload(graph, "gcn", 8)
        with pytest.raises(ValueError, match="compact_every"):
            server.serve(reqs, updates=updates, compact_every=0)
        dup = list(updates) + [updates[0]]
        with pytest.raises(ValueError, match="update_id"):
            server.serve(reqs, updates=dup)
