"""Session.serve / run_sweep(serve_qps=...) threading, plus the bounded
LRU PlanCache the serving path hammers."""

import json

import numpy as np
import pytest

import repro
from repro.graph.datasets import Dataset
from repro.registry import MODELS
from repro.session import PlanCache, Session, SweepRow, run_sweep
from tests.helpers import serve_report_digest


def serve_session(**kwargs):
    return (
        repro.session()
        .model("gat").dataset("cora").strategy("ours").gpu("RTX3090")
        .feature_dim(16)
        .serve(num_requests=32, qps=4000.0, seeds_per_request=2,
               zipf_alpha=0.8, seed=0, **kwargs)
    )


class TestSessionServe:
    def test_basic_report(self):
        rep = serve_session(cache_rows=512)
        assert rep.num_requests == 32
        assert len(rep.outputs) == 32
        assert 0 < rep.p50_latency_s <= rep.p99_latency_s
        assert rep.cache_hit_rate > 0
        assert rep.num_gpus == 1
        assert "served 32 requests" in rep.summary()

    def test_fixed_seed_reproduces_percentiles(self):
        a = serve_session()
        b = serve_session()
        assert a.p50_latency_s == b.p50_latency_s
        assert a.p95_latency_s == b.p95_latency_s
        assert a.p99_latency_s == b.p99_latency_s

    def test_compiles_through_the_plan_cache(self):
        cache = PlanCache()
        sess = (
            Session(cache=cache)
            .model("gat").dataset("cora").strategy("ours")
            .feature_dim(16)
        )
        sess.serve(num_requests=8, qps=1000.0, execute=False)
        assert cache.misses == 1 and cache.hits == 0
        sess.serve(num_requests=8, qps=1000.0, execute=False)
        assert cache.misses == 1 and cache.hits == 1

    def test_stats_only_dataset_refused(self):
        with pytest.raises(ValueError):
            (
                repro.session()
                .model("gat").dataset("reddit-full").strategy("ours")
                .serve(num_requests=4)
            )

    def test_cluster_pool(self):
        rep = (
            repro.session()
            .model("gat").dataset("cora").strategy("ours")
            .cluster("V100", 2).feature_dim(16)
            .serve(num_requests=32, qps=50000.0, execute=False)
        )
        assert rep.num_gpus == 2


class TestSessionDynamicServe:
    def test_dynamic_report_through_the_fluent_api(self):
        rep = serve_session(
            cache_rows=512, update_frac=0.3, compact_every=2
        )
        assert rep.num_requests == 32
        assert rep.num_updates > 0
        assert rep.graph_version > 0 or rep.feature_version > 0
        assert rep.mean_staleness_s > 0
        assert rep.mutation_io_bytes > 0
        assert "updates" in rep.summary() and "freshness" in rep.summary()

    def test_fixed_seed_reproduces_dynamic_run(self):
        a = serve_session(update_frac=0.3, compact_every=2)
        b = serve_session(update_frac=0.3, compact_every=2)
        assert np.array_equal(a.latencies_s, b.latencies_s)
        assert a.mutation_io_bytes == b.mutation_io_bytes
        for rid in a.outputs:
            assert np.array_equal(a.outputs[rid], b.outputs[rid])

    def test_update_frac_validation(self):
        with pytest.raises(ValueError, match="update_frac"):
            serve_session(update_frac=1.0)
        with pytest.raises(ValueError, match="compact_every"):
            serve_session(update_frac=0.3, compact_every=0)

    @pytest.mark.parametrize("update_frac", (0.0, 0.3))
    def test_negative_cache_fails_before_the_stream(self, monkeypatch, update_frac):
        # The capacity is refused when the server is built, before the
        # request stream is generated: no request, no field, no update.
        import repro.dyn
        import repro.serve

        def fail(*args, **kwargs):
            raise AssertionError("the stream was built before the check")

        monkeypatch.setattr(repro.serve, "poisson_workload", fail)
        monkeypatch.setattr(repro.dyn, "mixed_workload", fail)
        with pytest.raises(ValueError, match="cache_rows"):
            serve_session(update_frac=update_frac, cache_rows=-1)

    @pytest.mark.parametrize("compact_every", (0, -1, 1.5, True))
    def test_bad_compact_every_fails_before_the_stream(
        self, monkeypatch, compact_every
    ):
        # The interval is refused before the mixed stream is generated:
        # 1.5 used to compact after every 2 deltas, True after every one.
        import repro.dyn

        def fail(*args, **kwargs):
            raise AssertionError("the stream was built before the check")

        monkeypatch.setattr(repro.dyn, "mixed_workload", fail)
        with pytest.raises(ValueError, match="compact_every"):
            serve_session(update_frac=0.3, compact_every=compact_every)

    def test_static_default_has_no_dynamic_state(self):
        rep = serve_session()
        assert rep.num_updates == 0
        assert rep.mean_staleness_s == 0.0
        assert "updates" not in rep.summary()


class TestFeaturesOncePerSession:
    """``serve()`` and ``report(train_steps=)`` draw the workload's
    feature matrix once per session and share it read-only.  The values
    are pinned from before the draw was memoised: only where it happens
    moved.  The digests were taken again when the per-edge and per-head
    dots became one trailing-axis contraction: every timing, placement
    and cache field hashes as before, and the served logits moved by at
    most 1.2e-8."""

    DIGESTS = (
        "848a9436da5f833959feb3c6bba147791b51fedca8d085711232ea730b0482f9",
        "eebff0234b979ee116573e0e8a877831dfae319944aa221743f30a9e3f777865",
    )
    LOSSES = ["0x1.f2602a0000000p+0", "0x1.f1d4d00000000p+0"]

    @pytest.fixture
    def draws(self, monkeypatch):
        drawn = []
        original = Dataset.features

        def spy(ds, *args, **kwargs):
            drawn.append(original(ds, *args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(Dataset, "features", spy)
        return drawn

    def test_two_serves_draw_once(self, draws):
        s = (
            repro.session().model("gat").dataset("cora").strategy("ours")
            .gpu("RTX3090").feature_dim(16)
        )
        kwargs = dict(num_requests=32, qps=4000.0, seeds_per_request=2,
                      zipf_alpha=0.8, seed=0, cache_rows=64)
        a = s.serve(**kwargs)
        b = s.serve(update_frac=0.3, compact_every=2, **kwargs)
        assert len(draws) == 1
        assert (serve_report_digest(a), serve_report_digest(b)) == self.DIGESTS

    def test_memoised_features_are_read_only(self, draws):
        repro.session().model("gat").dataset("cora").feature_dim(16).serve(
            num_requests=4, execute=False
        )
        with pytest.raises(ValueError, match="read-only"):
            draws[0][0, 0] = 1.0
        # Dataset.features itself still hands out a fresh, writable array.
        fresh = repro.get_dataset("cora").features(dim=16)
        fresh[0, 0] = 1.0
        assert fresh is not draws[0]

    def test_training_losses_unchanged(self, draws):
        s = repro.session().model("gcn").dataset("cora").strategy("ours")
        s = s.feature_dim(16)
        losses = s.report(train_steps=2).losses
        assert s.report(train_steps=2).losses == losses
        assert len(draws) == 1
        assert [float.hex(x) for x in losses] == self.LOSSES


class TestArenaLogicalDtypes:
    """A bf16 plan's served batches run on fresh storage."""

    def test_batches_run_on_fresh_storage(self, monkeypatch):
        import repro.serve.server as server

        handed = []
        engine = server.Engine

        def spy(graph, **kwargs):
            handed.append(kwargs.get("memory_plan"))
            return engine(graph, **kwargs)

        monkeypatch.setattr(server, "Engine", spy)
        rep = (
            repro.session().model("gat").dataset("cora").feature_dim(16)
            .precision("bf16").serve(num_requests=8)
        )
        assert handed and not any(handed)
        assert len(rep.outputs) == 8


class TestServeSweep:
    def test_serve_rows_price_forward_plans(self):
        # Serving reads the forward plan: every strategy serves,
        # inference-only ones included, and each compile is one miss
        # that its serve() call then hits.
        cache = PlanCache()
        sweep = run_sweep(
            ["gat"], ["cora"], ["huang-like", "ours"],
            serve_qps=[500.0], serve=dict(num_requests=8),
            feature_dim=16, cache=cache,
        )
        assert [r.strategy for r in sweep.rows] == ["huang-like", "ours"]
        assert (sweep.cache_misses, sweep.cache_hits) == (2, 2)

    def test_serve_mapping_is_forwarded_verbatim(self):
        serve = dict(
            num_requests=24, seeds_per_request=2, slo_s=0.01,
            cache_rows=256, zipf_alpha=0.7, seed=3,
        )
        (row,) = run_sweep(
            ["gat"], ["cora"], gpus=["V100"], serve_qps=[2000.0],
            serve=serve, feature_dim=16,
        ).rows
        s = repro.session().model("gat").dataset("cora").gpu("V100")
        s.feature_dim(16)
        direct = SweepRow.from_serve(
            s, s.serve(qps=2000.0, execute=False, **serve), serve_qps=2000.0
        )
        assert row == direct
        default = run_sweep(
            ["gat"], ["cora"], gpus=["V100"], serve_qps=[2000.0],
            serve=dict(num_requests=24), feature_dim=16,
        ).rows[0]
        assert default != row

    def test_serve_requires_serve_qps(self):
        with pytest.raises(ValueError, match="serve_qps"):
            run_sweep(["gat"], ["cora"], serve=dict(num_requests=8))

    def test_rows_carry_serving_metrics(self):
        sweep = run_sweep(
            models=["gat"],
            datasets=["cora"],
            strategies=["ours"],
            serve_qps=[500.0, 8000.0],
            serve=dict(num_requests=24, cache_rows=512, zipf_alpha=0.8),
            feature_dim=16,
            training=False,
        )
        assert len(sweep.rows) == 2
        assert [r.serve_qps for r in sweep.rows] == [500.0, 8000.0]
        for r in sweep.rows:
            assert 0 < r.p50_latency_s <= r.p95_latency_s <= r.p99_latency_s
            assert r.latency_s > 0
            assert 0 < r.cache_hit_rate < 1
            assert r.gather_bytes > 0
            assert r.serve_qps is not None
            d = r.to_dict()
            assert d["serve_qps"] == r.serve_qps
            assert d["p99_latency_s"] == r.p99_latency_s
        table = sweep.table()
        assert "qps" in table and "p99 ms" in table

    def test_update_frac_sweep_rows(self):
        sweep = run_sweep(
            models=["gat"],
            datasets=["cora"],
            strategies=["ours"],
            serve_qps=[4000.0],
            update_frac=[0.0, 0.3],
            serve=dict(
                num_requests=24, cache_rows=512, zipf_alpha=0.8,
                compact_every=4,
            ),
            feature_dim=16,
            training=False,
        )
        assert [r.update_frac for r in sweep.rows] == [0.0, 0.3]
        static, dynamic = sweep.rows
        assert static.staleness_s == 0.0 and static.invalidated_bytes == 0
        assert dynamic.staleness_s > 0.0
        d = dynamic.to_dict()
        assert d["update_frac"] == 0.3
        assert d["staleness_s"] == dynamic.staleness_s
        table = sweep.table()
        assert "upd" in table and "stale ms" in table and "inval MiB" in table

    def test_numpy_scalar_axes_save(self, tmp_path):
        # NumPy scalars are one option each and land in the rows as
        # Python values: the sweep saves to JSON like its listed twin.
        kwargs = dict(
            models=["gat"], datasets=["cora"], strategies=["ours"],
            serve=dict(num_requests=16), feature_dim=16, training=False,
        )
        scalar = run_sweep(
            serve_qps=np.float64(4000.0), update_frac=np.float32(0.25),
            save_as="scalar", results_dir=str(tmp_path), **kwargs,
        )
        listed = run_sweep(serve_qps=[4000.0], update_frac=[0.25], **kwargs)
        with open(tmp_path / "scalar.json") as fh:
            assert json.load(fh) == listed.to_dict()
        assert scalar.to_dict() == listed.to_dict()

    def test_update_frac_requires_serving(self):
        with pytest.raises(ValueError, match="serve_qps"):
            run_sweep(
                models=["gat"], datasets=["cora"],
                update_frac=[0.2], feature_dim=16,
            )

    def test_serve_conflicts_with_minibatch(self):
        with pytest.raises(ValueError):
            run_sweep(
                models=["gat"], datasets=["cora"],
                serve_qps=[100.0], batch_size=64,
            )

    def test_unservable_config_becomes_oom_row(self):
        # A device too small for any receptive-field batch must yield a
        # fits_device=False row, not abort the sweep.
        import dataclasses

        from repro.gpu.spec import RTX3090

        tiny = dataclasses.replace(RTX3090, name="tiny", dram_gb=1e-6)
        sweep = run_sweep(
            models=["gat"], datasets=["cora"], strategies=["ours"],
            gpus=[tiny, "RTX3090"],
            serve_qps=[1000.0], serve=dict(num_requests=8),
            feature_dim=16, training=False,
        )
        by_gpu = {r.gpu: r for r in sweep.rows}
        assert not by_gpu["tiny"].fits_device
        assert by_gpu["tiny"].p99_latency_s == 0.0
        assert by_gpu["tiny"].serve_qps == 1000.0
        assert by_gpu["RTX3090"].fits_device
        assert "OOM" in sweep.table()

    def test_one_compile_serves_every_qps(self):
        cache = PlanCache()
        run_sweep(
            models=["gat"], datasets=["cora"], strategies=["ours"],
            serve_qps=[100.0, 1000.0, 10000.0],
            serve=dict(num_requests=8), feature_dim=16,
            training=False, cache=cache,
        )
        assert cache.misses == 1


class TestPlanCacheLRU:
    def test_capacity_bound_and_eviction(self):
        cache = PlanCache(capacity=1)
        ds = repro.get_dataset("cora")
        gat = MODELS.get("gat")(8, ds.num_classes)
        gcn = MODELS.get("gcn")(8, ds.num_classes)
        strat = repro.get_strategy("ours")
        cache.get_or_compile(gat, strat, training=False)
        cache.get_or_compile(gcn, strat, training=False)
        assert len(cache) == 1
        assert cache.evictions == 1
        # gat was evicted: asking again recompiles.
        cache.get_or_compile(gat, strat, training=False)
        assert cache.misses == 3 and cache.hits == 0

    def test_lru_order_keeps_hot_entries(self):
        cache = PlanCache(capacity=2)
        ds = repro.get_dataset("cora")
        strat = repro.get_strategy("ours")
        gat = MODELS.get("gat")(8, ds.num_classes)
        gcn = MODELS.get("gcn")(8, ds.num_classes)
        sage = MODELS.get("sage")(8, ds.num_classes)
        cache.get_or_compile(gat, strat, training=False)
        cache.get_or_compile(gcn, strat, training=False)
        cache.get_or_compile(gat, strat, training=False)   # refresh gat
        cache.get_or_compile(sage, strat, training=False)  # evicts gcn
        assert cache.evictions == 1
        cache.get_or_compile(gat, strat, training=False)
        assert cache.hits == 2  # gat survived both rounds

    def test_hits_do_not_recompile(self):
        cache = PlanCache(capacity=4)
        ds = repro.get_dataset("cora")
        strat = repro.get_strategy("ours")
        gat = MODELS.get("gat")(8, ds.num_classes)
        a = cache.get_or_compile(gat, strat, training=False)
        b = cache.get_or_compile(gat, strat, training=False)
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)

    def test_unbounded_mode(self):
        cache = PlanCache(capacity=None)
        assert cache.capacity is None
        ds = repro.get_dataset("cora")
        strat = repro.get_strategy("ours")
        for name in ("gat", "gcn", "sage"):
            cache.get_or_compile(
                MODELS.get(name)(8, ds.num_classes), strat, training=False
            )
        assert len(cache) == 3 and cache.evictions == 0

    def test_default_capacity_is_generous(self):
        assert PlanCache().capacity == PlanCache.DEFAULT_CAPACITY >= 64

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_clear_resets_counters(self):
        cache = PlanCache(capacity=1)
        ds = repro.get_dataset("cora")
        strat = repro.get_strategy("ours")
        cache.get_or_compile(
            MODELS.get("gat")(8, ds.num_classes), strat, training=False
        )
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)


def test_seeded_serve_workload_has_no_global_randomness():
    """Serve-layer determinism end to end: interleaving unrelated global
    np.random activity must not change a fixed-seed ServeReport."""
    np.random.seed(1)
    a = serve_session()
    np.random.seed(4242)
    np.random.random(100)
    b = serve_session()
    assert np.array_equal(a.latencies_s, b.latencies_s)
    for rid in a.outputs:
        assert np.array_equal(a.outputs[rid], b.outputs[rid])
