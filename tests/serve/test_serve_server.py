"""InferenceServer contracts: bit-identical outputs, exact cache
accounting, deterministic reports, SLO/scheduling behaviour.

The acceptance contract of the serving subsystem:

- batch outputs are **bit-identical** to a direct Engine run on the
  same induced subgraph (differential over the model zoo),
- cache-enabled runs reconcile gather bytes exactly
  (``hit + miss == uncached``),
- a fixed-seed workload reproduces the identical report (p50/p95/p99
  and every delivered output).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.dyn import DynamicGraph, mixed_workload
from repro.exec.engine import Engine
from repro.exec.rings import receptive_hops
from repro.frameworks import compile_forward, get_strategy
from repro.graph import get_dataset
from repro.registry import MODELS
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    bursty_workload,
    poisson_workload,
    receptive_field,
)
from repro.serve.request import InferenceRequest
from tests.helpers import rebuild_at

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


def workload_for(graph, tenant, n=24, *, qps=4000.0, seed=0, slo_s=0.05):
    return poisson_workload(
        n,
        qps=qps,
        num_vertices=graph.num_vertices,
        seeds_per_request=2,
        slo_s=slo_s,
        tenant=tenant,
        zipf_alpha=0.8,
        seed=seed,
    )


def assert_outputs_match_direct_engine(server, report, graph, features, tenant):
    """Every request's delivered rows == a direct run on its batch field."""
    runtime = server.tenants[tenant]
    by_id = {}
    for trace in report.batches:
        by_id.update({rid: trace for rid in trace.request_ids})
    assert by_id, "no batches served"
    for trace in report.batches:
        seeds = np.unique(
            np.concatenate(
                [
                    server_request_seeds[rid]
                    for rid in trace.request_ids
                ]
            )
        )
        mb = receptive_field(graph, seeds, runtime.hops)
        engine = Engine(mb.subgraph, precision="float32")
        arrays = runtime.compiled.model.make_inputs(
            mb.subgraph, features[mb.vertices]
        )
        arrays.update(runtime.params)
        env = engine.bind(runtime.compiled.forward, arrays)
        direct = engine.run_plan(runtime.compiled.plan, env, unwrap=True)
        logits = direct[runtime.output_name]
        for rid in trace.request_ids:
            rows = np.searchsorted(mb.vertices[: mb.num_seeds], server_request_seeds[rid])
            assert np.array_equal(report.outputs[rid], logits[rows]), (
                f"request {rid}: served outputs differ from direct engine"
            )


server_request_seeds = {}


def _run_differential(name, cora, **server_kwargs):
    ds, graph, features = cora
    server = make_server(graph, features, name, ds.num_classes, **server_kwargs)
    reqs = workload_for(graph, name)
    server_request_seeds.clear()
    server_request_seeds.update({r.request_id: r.seeds for r in reqs})
    report = server.serve(reqs)
    assert len(report.outputs) == len(reqs)
    assert_outputs_match_direct_engine(server, report, graph, features, name)
    return report


class TestDifferentialAgainstEngine:
    @pytest.mark.parametrize("name", CORE_MODELS)
    def test_served_outputs_bit_identical(self, name, cora):
        _run_differential(name, cora)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", EXTRA_MODELS)
    def test_served_outputs_bit_identical_full_zoo(self, name, cora):
        _run_differential(name, cora)

    def test_bursty_stream_bit_identical(self, cora):
        # Bursty arrivals are served by a directly driven server: each
        # burst fills batches at once, stragglers wait out max_wait.
        ds, graph, features = cora
        server = make_server(graph, features, "gat", ds.num_classes)
        reqs = bursty_workload(
            32, qps=4000.0, num_vertices=graph.num_vertices, burst=8,
            seeds_per_request=2, tenant="gat", zipf_alpha=0.8, seed=0,
        )
        server_request_seeds.clear()
        server_request_seeds.update({r.request_id: r.seeds for r in reqs})
        report = server.serve(reqs)
        assert report.num_requests == 32 and len(report.outputs) == 32
        assert_outputs_match_direct_engine(server, report, graph, features, "gat")


def _serve_on_rings(cora, name, monkeypatch, *, strategy="ours",
                    dynamic=False, **server_kwargs):
    """Serve a small stream and hold every delivered row, by
    ``tobytes()``, to the whole-field run of a bare Engine on its
    batch's field — for a dynamic stream (with compactions) the field
    of the graph and features rebuilt from scratch at the batch's
    dispatch time.  Returns the hop distances each batch ran with."""
    ds, graph, features = cora
    compiled = compile_forward(
        MODELS.get(name)(IN_DIM, ds.num_classes), get_strategy(strategy)
    )
    server = InferenceServer(
        graph, features, {name: compiled}, gpu="RTX3090", **server_kwargs,
    )
    runtime = server.tenants[name]
    distances = []
    run_plan = Engine.run_plan

    def spy(engine, plan, env, **kwargs):
        distances.append(kwargs.get("distance"))
        return run_plan(engine, plan, env, **kwargs)

    monkeypatch.setattr(Engine, "run_plan", spy)
    if dynamic:
        requests, updates = mixed_workload(
            16, qps=4000.0, num_vertices=graph.num_vertices,
            feature_dim=IN_DIM, update_frac=0.35, seeds_per_request=2,
            tenant=name, zipf_alpha=0.8, edge_frac=0.5,
            new_vertex_prob=0.5, seed=1,
        )
        report = server.serve(requests, updates=updates, compact_every=2)
        assert report.compactions > 0
    else:
        requests, updates = workload_for(graph, name, n=16, seed=1), []
        report = server.serve(requests)
    monkeypatch.setattr(Engine, "run_plan", run_plan)
    assert len(distances) == len(report.batches)

    seeds_by_id = {r.request_id: r.seeds for r in requests}
    for trace in report.batches:
        ref_graph, ref_features = rebuild_at(graph, features, updates, trace.dispatch_s)
        seeds = np.unique(
            np.concatenate([seeds_by_id[rid] for rid in trace.request_ids])
        )
        mb = receptive_field(ref_graph, seeds, runtime.hops)
        engine = Engine(mb.subgraph, precision="float32")
        arrays = compiled.model.make_inputs(mb.subgraph, ref_features[mb.vertices])
        arrays.update(runtime.params)
        env = engine.bind(compiled.forward, arrays)
        logits = engine.run_plan(compiled.plan, env)[runtime.output_name]
        for rid in trace.request_ids:
            want = logits[np.searchsorted(mb.vertices[: mb.num_seeds], seeds_by_id[rid])]
            assert report.outputs[rid].tobytes() == want.tobytes(), (
                f"{name}/{strategy}: request {rid} "
                "differs from the whole-field run"
            )
    return runtime.hops, distances


class TestServedRings:
    """The server expands each batch to its plan's depth and runs each
    layer on its ring of the field (``Engine.run_plan(distance=)``, the
    batch's own hop distances — never a setting), and every delivered
    row equals the whole-field run: statically and on a dynamic stream
    with compactions.  gcn brings an
    edge-domain module input (``gcn_norm``), read at each ring's edge
    ids.
    """

    MODES = {
        "static": {},
        "dynamic": {"dynamic": True},
    }

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("name", ("gat", "sage", "gcn"))
    def test_delivered_rows_equal_whole_field_run(self, name, mode, cora, monkeypatch):
        ds = cora[0]
        depth = receptive_hops(
            compile_forward(MODELS.get(name)(IN_DIM, ds.num_classes),
                            get_strategy("ours")).forward
        )
        served, distances = _serve_on_rings(
            cora, name, monkeypatch, **self.MODES[mode]
        )
        assert served == depth
        assert all(d is not None and d.max() <= depth for d in distances)
        assert any(d.max() > 0 for d in distances)


class TestFieldsOffDepth:
    """A field shallower or deeper than the plan's depth — the seeds
    alone, one hop short, one past — still runs on its rings
    (``Engine.run_plan(distance=)``), and the seeds' rows equal the
    whole-field run's: fields of the static graph, and of a
    ``DynamicGraph`` with appended edges and vertices."""

    @pytest.mark.parametrize("dynamic", (False, True))
    @pytest.mark.parametrize("offset", ("-depth", -1, 1))
    @pytest.mark.parametrize("name", ("gat", "sage", "gcn"))
    def test_seed_rows_equal_whole_field_run(self, name, offset, dynamic, cora):
        ds, graph, features = cora
        compiled = compile_forward(
            MODELS.get(name)(IN_DIM, ds.num_classes), get_strategy("ours")
        )
        depth = receptive_hops(compiled.forward)
        hops = 0 if offset == "-depth" else depth + offset
        seeds = np.array([3, 50, 177, 1200])
        if dynamic:
            _, updates = mixed_workload(
                16, qps=4000.0, num_vertices=graph.num_vertices,
                feature_dim=IN_DIM, update_frac=0.5, seeds_per_request=2,
                tenant=name, edge_frac=0.5, new_vertex_prob=0.5, seed=1,
            )
            dyn = DynamicGraph(graph)
            for u in updates:
                if u.delta is not None:
                    dyn.apply(u.delta)
            assert dyn.num_vertices > graph.num_vertices
            _, features = rebuild_at(graph, features, updates, np.inf)
            mb = dyn.receptive_field(seeds, hops)
        else:
            mb = receptive_field(graph, seeds, hops)
        assert mb.distance[-1] == hops
        engine = Engine(mb.subgraph)
        arrays = compiled.model.make_inputs(mb.subgraph, features[mb.vertices])
        arrays.update(compiled.model.init_params(0))
        env = engine.bind(compiled.forward, arrays)
        whole = engine.run_plan(compiled.plan, env)
        rings = engine.run_plan(compiled.plan, env, distance=mb.distance)
        out, n0 = compiled.forward.outputs[0], mb.num_seeds
        assert rings[out][:n0].tobytes() == whole[out][:n0].tobytes()


class TestRingsAcrossTheZoo:
    """Every delivered row equals the whole-field run over the zoo ×
    strategies × static/dynamic."""

    @pytest.mark.slow
    @pytest.mark.parametrize("dynamic", (False, True))
    @pytest.mark.parametrize("strategy", ("dgl-like", "fusegnn-like", "ours", "ours-stash"))
    @pytest.mark.parametrize("name", MODELS.names())
    def test_delivered_rows(self, name, strategy, dynamic, cora, monkeypatch):
        _serve_on_rings(
            cora, name, monkeypatch, strategy=strategy, dynamic=dynamic,
        )


class TestCacheAccounting:
    def test_reconciles_exactly(self, cora):
        ds, graph, features = cora
        server = make_server(
            graph, features, "sage", ds.num_classes, cache_rows=1024
        )
        report = server.serve(workload_for(graph, "sage", 48))
        row_bytes = server.tenants["sage"].row_bytes
        assert row_bytes == IN_DIM * 4  # float32 accounting rows
        for trace in report.batches:
            assert (
                trace.hit_bytes + trace.miss_bytes
                == trace.cost.field * row_bytes
            )
            assert trace.cost.gather_bytes == trace.miss_bytes
        assert (
            report.gather_hit_bytes + report.gather_miss_bytes
            == report.uncached_gather_bytes
        )
        assert report.gather_hit_bytes > 0  # the Zipf stream repeats rows

    def test_uncached_run_pays_full_bill(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "sage", ds.num_classes)
        report = server.serve(workload_for(graph, "sage", 24))
        assert report.cache_hit_rate == 0.0
        assert report.gather_miss_bytes == report.uncached_gather_bytes

    def test_caching_never_slows_service(self, cora):
        ds, graph, features = cora
        reqs = workload_for(graph, "sage", 48)
        cold = make_server(graph, features, "sage", ds.num_classes)
        warm = make_server(
            graph, features, "sage", ds.num_classes, cache_rows=4096
        )
        cold_rep = cold.serve(reqs)
        warm_rep = warm.serve(reqs)
        for a, b in zip(cold_rep.batches, warm_rep.batches):
            assert b.service_s <= a.service_s + 1e-15


class TestDeterminism:
    def test_fixed_seed_reproduces_report(self, cora):
        ds, graph, features = cora
        reports = []
        for _ in range(2):
            server = make_server(
                graph, features, "gat", ds.num_classes, cache_rows=512
            )
            reports.append(server.serve(workload_for(graph, "gat", 32, seed=9)))
        a, b = reports
        assert a.p50_latency_s == b.p50_latency_s
        assert a.p95_latency_s == b.p95_latency_s
        assert a.p99_latency_s == b.p99_latency_s
        assert np.array_equal(a.latencies_s, b.latencies_s)
        assert [t.gpu for t in a.batches] == [t.gpu for t in b.batches]
        for rid in a.outputs:
            assert np.array_equal(a.outputs[rid], b.outputs[rid])

    def test_execute_false_keeps_metrics_identical(self, cora):
        ds, graph, features = cora
        reqs = workload_for(graph, "gat", 32, seed=3)
        with_exec = make_server(
            graph, features, "gat", ds.num_classes, cache_rows=512
        ).serve(reqs)
        without = make_server(
            graph, features, "gat", ds.num_classes, cache_rows=512,
            execute=False,
        ).serve(reqs)
        assert without.outputs == {}
        assert np.array_equal(with_exec.latencies_s, without.latencies_s)
        assert with_exec.gather_miss_bytes == without.gather_miss_bytes


class TestSLOAndScheduling:
    def test_impossible_slo_is_violated(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gat", ds.num_classes)
        reqs = workload_for(graph, "gat", 16, slo_s=1e-7)
        report = server.serve(reqs)
        assert report.slo_violations == 16
        assert report.slo_violation_rate == 1.0
        assert report.violations_by_tenant == {"gat": 16}

    def test_edf_rescues_tight_deadline(self, cora):
        # Two single-request "batches" queue behind a busy GPU; EDF
        # runs the tight-deadline latecomer first, FIFO does not.
        ds, graph, features = cora
        def run(policy):
            server = make_server(
                graph, features, "gat", ds.num_classes,
                batch_policy=BatchPolicy(max_batch=1, max_wait_s=0.0),
                scheduler_policy=policy,
            )
            reqs = [
                InferenceRequest(0, "gat", np.array([1]), 0.0, 10.0),
                InferenceRequest(1, "gat", np.array([2]), 1e-5, 10.0),
                InferenceRequest(2, "gat", np.array([3]), 2e-5, 1e-4),
            ]
            return server.serve(reqs)
        edf = run("edf")
        fifo = run("fifo")
        tight = lambda rep: next(
            o for o in rep.outcomes if o.request_id == 2
        )
        assert tight(edf).finish_s < tight(fifo).finish_s

    def test_cluster_pool_spreads_batches(self, cora):
        ds, graph, features = cora
        from repro.gpu.cluster import make_cluster

        server = make_server(
            graph, features, "gat", ds.num_classes,
            gpu=make_cluster("V100", 3),
        )
        report = server.serve(workload_for(graph, "gat", 48, qps=50000.0))
        assert report.num_gpus == 3
        assert len(report.gpu_busy_s) == 3
        assert len({t.gpu for t in report.batches}) > 1
        assert all(0 <= g < 3 for g in (t.gpu for t in report.batches))

    def test_counters_roll_up(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gat", ds.num_classes)
        report = server.serve(workload_for(graph, "gat", 24))
        counters = report.counters
        assert counters.num_batches == report.num_batches
        assert counters.flops > 0
        assert counters.io_bytes > counters.gather_bytes
        assert report.makespan_s > 0 and report.throughput_rps > 0
        util = report.gpu_utilization
        assert len(util) == 1 and 0 < util[0] <= 1.0


class TestConstantsResolvedOncePerPlan:
    def test_serve_builds_at_most_one_module_per_tenant(self, cora, monkeypatch):
        """Input names come from one `build_module` per model instance,
        not one per micro-batch; a second serve builds none."""
        ds, graph, features = cora
        plans = {
            name: compile_forward(
                MODELS.get(name)(IN_DIM, ds.num_classes), get_strategy("ours")
            )
            for name in ("gat", "gcn")
        }
        server = InferenceServer(
            graph, features, plans, gpu="RTX3090",
            batch_policy=BatchPolicy(max_batch=4),
        )
        reqs = workload_for(graph, "gat", 40) + [
            InferenceRequest(100 + r.request_id, "gcn", r.seeds, r.arrival_s, r.slo_s)
            for r in workload_for(graph, "gcn", 40, seed=1)
        ]
        builds = []
        for name, plan in plans.items():
            cls = type(plan.model)
            original = cls.build_module

            def counting(self, _original=original, _name=name):
                builds.append(_name)
                return _original(self)

            monkeypatch.setattr(cls, "build_module", counting)
        report = server.serve(reqs)
        per_tenant = {
            name: sum(t.tenant == name for t in report.batches) for name in plans
        }
        assert min(per_tenant.values()) >= 8
        assert len(report.outputs) == len(reqs)
        assert all(builds.count(name) <= 1 for name in plans)
        warm = len(builds)
        server.serve(reqs)
        assert len(builds) == warm


class TestValidation:
    def test_unknown_tenant(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gat", ds.num_classes)
        with pytest.raises(KeyError):
            server.serve(
                [InferenceRequest(0, "nope", np.array([1]), 0.0, 1.0)]
            )

    def test_duplicate_request_id(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gat", ds.num_classes)
        reqs = [
            InferenceRequest(7, "gat", np.array([1]), 0.0, 1.0),
            InferenceRequest(7, "gat", np.array([2]), 0.1, 1.0),
        ]
        with pytest.raises(ValueError):
            server.serve(reqs)

    def test_out_of_range_seeds(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gat", ds.num_classes)
        bad = [
            InferenceRequest(
                0, "gat", np.array([graph.num_vertices]), 0.0, 1.0
            )
        ]
        with pytest.raises(ValueError):
            server.serve(bad)

    def test_feature_row_mismatch(self, cora):
        ds, graph, features = cora
        with pytest.raises(ValueError):
            make_server(graph, features[:-1], "gat", ds.num_classes)

    def test_rejects_training_compilation(self, cora):
        ds, graph, features = cora
        from repro.frameworks import compile_training

        compiled = compile_training(
            MODELS.get("gat")(IN_DIM, ds.num_classes), get_strategy("ours")
        )
        with pytest.raises(TypeError):
            InferenceServer(graph, features, {"gat": compiled})

    @pytest.mark.parametrize("precision", ["bf16", "int8"])
    def test_logical_dtypes_serve_every_request(self, cora, precision):
        # A bf16 / int8 plan serves on fresh storage, each batch priced
        # on its field's ledger.
        ds, graph, features = cora
        strategy = replace(get_strategy("ours"), precision=precision)
        compiled = compile_forward(
            MODELS.get("gat")(IN_DIM, ds.num_classes), strategy
        )
        reqs = workload_for(graph, "default", 12)
        report = InferenceServer(graph, features, compiled).serve(reqs)
        assert len(report.outputs) == len(reqs)
        for trace in report.batches:
            ledger = compiled.counters(trace.cost.stats).peak_memory_bytes
            assert trace.cost.compute.peak_memory_bytes == ledger

    def test_negative_cache_rows_refused_at_construction(self, cora):
        ds, graph, features = cora
        with pytest.raises(ValueError, match="cache_rows"):
            make_server(graph, features, "gat", ds.num_classes, cache_rows=-1)

    def test_unknown_scheduler_policy_refused_at_construction(self, cora):
        ds, graph, features = cora
        with pytest.raises(ValueError, match="scheduler policy 'edff'"):
            make_server(
                graph, features, "gat", ds.num_classes, scheduler_policy="edff"
            )

    def test_empty_stream_produces_empty_report(self, cora):
        ds, graph, features = cora
        server = make_server(graph, features, "gat", ds.num_classes)
        report = server.serve([])
        assert report.num_requests == 0 and report.num_batches == 0
        assert report.p99_latency_s == 0.0
        assert report.throughput_rps == 0.0
        assert report.summary()  # renders without dividing by zero
