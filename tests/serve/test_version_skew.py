"""Version-skew contract: batches see their *dispatch-time* snapshot.

A request enqueued before an update but scheduled onto a GPU after it
must still be answered against the graph/feature state current when its
batch was dispatched — queueing for a GPU never advances the snapshot.
Because the micro-batcher is open-loop (dispatch times are a function
of arrivals only), the snapshot each batch observes — and therefore
every delivered output — is independent of the scheduler policy.
"""

import numpy as np
import pytest

from repro.dyn import mixed_workload
from repro.exec.engine import Engine
from repro.frameworks import compile_forward, get_strategy
from repro.graph import get_dataset
from repro.registry import MODELS
from repro.serve import InferenceServer, receptive_field

IN_DIM = 16


@pytest.fixture(scope="module")
def cora():
    ds = get_dataset("cora")
    graph = ds.graph()
    features = ds.features(dim=IN_DIM, seed=0)
    return ds, graph, features


def make_server(graph, features, num_classes, **kwargs):
    compiled = compile_forward(
        MODELS.get("gcn")(IN_DIM, num_classes), get_strategy("ours")
    )
    kwargs.setdefault("gpu", "RTX3090")
    return InferenceServer(graph, features, {"gcn": compiled}, **kwargs)


def overload_workload(graph, n=48, *, seed=0):
    """High offered load on one GPU: batches genuinely queue, so
    updates land between dispatch and start."""
    return mixed_workload(
        n,
        qps=200000.0,
        num_vertices=graph.num_vertices,
        feature_dim=IN_DIM,
        update_frac=0.4,
        seeds_per_request=2,
        slo_s=0.01,
        tenant="gcn",
        zipf_alpha=0.8,
        edge_frac=0.5,
        new_vertex_prob=0.5,
        seed=seed,
    )


class TestDispatchTimeSnapshot:
    def test_update_between_dispatch_and_start_is_invisible(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, ds.num_classes)
        reqs, updates = overload_workload(graph)
        report = server.serve(reqs, updates=updates)
        # The scenario must actually occur: some batch queues across at
        # least one update arrival.
        skewed = [
            t
            for t in report.batches
            if any(t.dispatch_s < u.arrival_s <= t.start_s for u in updates)
        ]
        assert skewed, "overload run produced no dispatch/start skew"
        for trace in skewed:
            # The recorded versions count exactly the updates that had
            # arrived by dispatch — none of the in-queue ones.
            applied = [u for u in updates if u.arrival_s <= trace.dispatch_s]
            assert trace.graph_version == sum(
                1 for u in applied if u.delta is not None
            )
            assert trace.feature_version == sum(
                (1 if u.num_feature_rows else 0)
                + (1 if u.num_new_vertices else 0)
                for u in applied
            )

    def test_outputs_match_dispatch_time_rebuild(self, cora):
        # For a skewed batch, served rows equal a direct engine run on
        # the state at dispatch — not the (different) state at start.
        ds, graph, features = cora
        server = make_server(graph, features, ds.num_classes)
        reqs, updates = overload_workload(graph)
        report = server.serve(reqs, updates=updates)
        seeds_by_id = {r.request_id: r.seeds for r in reqs}
        runtime = server.tenants["gcn"]

        def state_at(horizon_s):
            feats = np.asarray(features, dtype=np.float64).copy()
            src, dst, grown = [], [], 0
            for u in updates:
                if u.arrival_s > horizon_s:
                    break
                if u.num_feature_rows:
                    feats[u.feature_vertices] = u.feature_rows
                if u.delta is not None:
                    src.append(u.delta.src)
                    dst.append(u.delta.dst)
                    grown += u.delta.num_new_vertices
                    if u.new_vertex_rows is not None:
                        feats = np.concatenate([feats, u.new_vertex_rows])
            empty = np.array([], dtype=np.int64)
            g = graph.with_edges(
                np.concatenate(src) if src else empty,
                np.concatenate(dst) if dst else empty,
                num_new_vertices=grown,
            )
            return g, feats

        def direct_rows(horizon_s, seeds, rid):
            g, feats = state_at(horizon_s)
            mb = receptive_field(g, seeds, runtime.hops)
            engine = Engine(mb.subgraph, precision="float32")
            arrays = runtime.compiled.model.make_inputs(
                mb.subgraph, feats[mb.vertices]
            )
            arrays.update(runtime.params)
            env = engine.bind(runtime.compiled.forward, arrays)
            out = engine.run_plan(runtime.compiled.plan, env, unwrap=True)
            rows = np.searchsorted(mb.vertices[: mb.num_seeds], seeds_by_id[rid])
            return out[runtime.output_name][rows]

        checked = 0
        for trace in report.batches:
            between = [
                u for u in updates if trace.dispatch_s < u.arrival_s <= trace.start_s
            ]
            if not between:
                continue
            seeds = np.unique(
                np.concatenate([seeds_by_id[r] for r in trace.request_ids])
            )
            for rid in trace.request_ids:
                served = report.outputs[rid]
                assert np.array_equal(
                    served, direct_rows(trace.dispatch_s, seeds, rid)
                ), "batch must observe its dispatch-time snapshot"
                start_rows = direct_rows(trace.start_s, seeds, rid)
                if not np.array_equal(start_rows, served):
                    checked += 1
        assert checked > 0, (
            "no skewed batch had an update that actually changed its "
            "answer — the test lost its discriminating power"
        )

    def test_report_identical_across_scheduler_policies(self, cora):
        # Dispatch = f(arrivals only), so snapshots — and outputs — are
        # policy-independent even though placement/latency may differ.
        ds, graph, features = cora
        reqs, updates = overload_workload(graph)
        reports = {}
        from repro.gpu import make_cluster

        for policy in ("edf", "fifo"):
            server = make_server(
                graph, features, ds.num_classes,
                gpu=make_cluster("RTX3090", 2), scheduler_policy=policy,
            )
            reports[policy] = server.serve(reqs, updates=updates)
        edf, fifo = reports["edf"], reports["fifo"]
        assert [t.dispatch_s for t in edf.batches] == [
            t.dispatch_s for t in fifo.batches
        ]
        assert [
            (t.graph_version, t.feature_version) for t in edf.batches
        ] == [(t.graph_version, t.feature_version) for t in fifo.batches]
        for rid in edf.outputs:
            assert np.array_equal(edf.outputs[rid], fifo.outputs[rid])
        assert edf.graph_version == fifo.graph_version
        assert edf.delta_apply_bytes == fifo.delta_apply_bytes

    def test_same_seed_reproduces_identical_dynamic_report(self, cora):
        ds, graph, features = cora
        runs = []
        for _ in range(2):
            server = make_server(
                graph, features, ds.num_classes, cache_rows=1024
            )
            reqs, updates = overload_workload(graph, seed=7)
            runs.append(server.serve(reqs, updates=updates, compact_every=3))
        a, b = runs
        assert np.array_equal(a.latencies_s, b.latencies_s)
        assert a.mean_staleness_s == b.mean_staleness_s
        assert a.mutation_io_bytes == b.mutation_io_bytes
        assert a.gather_invalidated_bytes == b.gather_invalidated_bytes
        for rid in a.outputs:
            assert np.array_equal(a.outputs[rid], b.outputs[rid])

    def test_fixed_update_stream_replays_against_any_trace(self, cora):
        # The update half of a mixed stream composes with an
        # independently generated read trace on the same clock.
        from repro.serve import poisson_workload

        ds, graph, features = cora
        server = make_server(graph, features, ds.num_classes)
        reqs = poisson_workload(
            24,
            qps=4000.0,
            num_vertices=graph.num_vertices,
            seeds_per_request=2,
            slo_s=0.05,
            tenant="gcn",
            zipf_alpha=0.8,
            seed=1,
        )
        _, updates = mixed_workload(
            8,
            qps=1500.0,
            num_vertices=graph.num_vertices,
            feature_dim=IN_DIM,
            update_frac=0.5,
            new_vertex_prob=0.5,
            seed=2,
        )
        assert updates
        report = server.serve(reqs, updates=updates)
        assert report.num_updates == len(updates)
        assert report.graph_version + report.num_feature_updates >= len(updates)
