"""Session.serve threading, plus the bounded LRU PlanCache the serving
path hammers."""

import dataclasses

import numpy as np
import pytest

import repro
from perf.oracles import serve_report_digest as oracle_digest
from repro.gpu.cost_model import SimulatedOOM
from repro.gpu.spec import RTX3090
from repro.graph.datasets import Dataset
from repro.registry import MODELS
from repro.session import PlanCache, Session
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

    def test_inference_only_strategy_serves(self):
        # Serving reads the forward plan, so a strategy with no training
        # plan serves like any other.
        rep = (
            repro.session().model("gat").dataset("cora").strategy("huang-like")
            .feature_dim(16).serve(num_requests=8, qps=1000.0, execute=False)
        )
        assert rep.num_requests == 8 and rep.p99_latency_s > 0

    def test_unservable_device_raises_oom(self):
        # A device too small for any receptive-field batch refuses the
        # first batch rather than serving it.
        tiny = dataclasses.replace(RTX3090, name="tiny", dram_gb=1e-6)
        s = repro.session().model("gat").dataset("cora").gpu(tiny).feature_dim(16)
        with pytest.raises(SimulatedOOM):
            s.serve(num_requests=8, qps=1000.0, execute=False)

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


class TestPubmedServeStreams:
    """gat/pubmed at f=32 served without executing, at the offered loads
    and write shares the serving smoke sweeps used to publish.  Each
    report is pinned whole by ``perf.oracles.serve_report_digest``:
    every request and batch timing, placement, cache split and version,
    plus the report's busy time and mutation bills.  A change to stream
    generation, the batcher, the cache or the dynamic overlay that moves
    any of them fails here."""

    SERVE = dict(num_requests=96, seeds_per_request=4, cache_rows=4096, zipf_alpha=0.9)
    #: (qps, update_frac, compact_every) -> digest.
    DIGESTS = {
        (500.0, 0.0, None): "f97db898dc0dbcbe2d3da7add509d9f11485c43af40f02666720ad51941e6f29",
        (8000.0, 0.0, None): "e02b30d091f02c121afdaf692aa4af8088d5f5e3db4904adff176bde5e622c8d",
        (4000.0, 0.0, 4): "8e69fc19db345a25ca4e965a049e78b319869cffce4604817338b7184b98486d",
        (4000.0, 0.3, 4): "bae00601234521ddf0868389ec6dd14390e8e9667bafd6ade58e5375e807e01f",
    }

    @pytest.mark.parametrize("qps, update_frac, compact_every", list(DIGESTS))
    def test_stream_digest(self, qps, update_frac, compact_every):
        s = (
            repro.session().model("gat").dataset("pubmed").strategy("ours")
            .gpu("RTX3090").feature_dim(32)
        )
        rep = s.serve(**self.SERVE, qps=qps, update_frac=update_frac,
                      compact_every=compact_every, execute=False)
        assert oracle_digest(rep) == self.DIGESTS[qps, update_frac, compact_every]


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
