"""Tests for the fluent Session API, the plan cache, and run_sweep."""

import json
import os

import numpy as np
import pytest

from repro.frameworks import compile_training, get_strategy
from repro.frameworks.strategy import ExecutionStrategy
from repro.graph.datasets import Dataset, get_dataset
from repro.graph.generators import chung_lu
from repro.models import GAT, GCN
from repro.registry import DATASETS, STRATEGIES, register_dataset, register_strategy
from repro.session import (
    PlanCache,
    Session,
    _axis,
    model_signature,
    run_sweep,
    session,
)


def _toy_dataset(name: str, seed: int) -> Dataset:
    g = chung_lu(50, 220, seed=seed)
    return Dataset(
        name=name, feature_dim=12, num_classes=4, stats=g.stats(), _graph=g
    )


@pytest.fixture()
def toy_datasets():
    # Two workloads sharing feature/class widths: plans must be shared.
    register_dataset("toy-a")(lambda: _toy_dataset("toy-a", seed=3))
    register_dataset("toy-b")(lambda: _toy_dataset("toy-b", seed=4))
    yield ("toy-a", "toy-b")
    DATASETS.remove("toy-a")
    DATASETS.remove("toy-b")


class TestModelSignature:
    def test_identical_architectures_share_signature(self):
        assert model_signature(GAT(8, (8, 4), heads=2)) == model_signature(
            GAT(8, (8, 4), heads=2)
        )

    def test_different_dims_differ(self):
        assert model_signature(GAT(8, (8, 4), heads=2)) != model_signature(
            GAT(8, (16, 4), heads=2)
        )
        assert model_signature(GCN(8, (8, 4))) != model_signature(
            GAT(8, (8, 4), heads=2)
        )


class TestPlanCache:
    def test_hit_on_equivalent_model(self):
        cache = PlanCache()
        strat = get_strategy("ours")
        a = cache.get_or_compile(GCN(8, (8, 4)), strat)
        b = cache.get_or_compile(GCN(8, (8, 4)), strat)
        assert a is b
        assert cache.misses == 1 and cache.hits == 1

    def test_miss_on_different_strategy_or_mode(self):
        cache = PlanCache()
        model = GCN(8, (8, 4))
        cache.get_or_compile(model, get_strategy("ours"))
        cache.get_or_compile(model, get_strategy("dgl-like"))
        cache.get_or_compile(model, get_strategy("ours"), training=False)
        assert cache.misses == 3 and cache.hits == 0
        assert len(cache) == 3

    def test_same_name_different_config_never_alias(self):
        # Strategies enter the key by value: an unregistered strategy
        # reusing a built-in's name must not steal its cached plan.
        cache = PlanCache()
        model = GCN(8, (8, 4))
        a = cache.get_or_compile(model, get_strategy("ours"))
        impostor = ExecutionStrategy(
            name="ours", fusion_mode="macro", recompute_policy="boundary"
        )
        b = cache.get_or_compile(model, impostor)
        assert a is not b
        assert cache.misses == 2 and cache.hits == 0
        assert b.strategy.fusion_mode == "macro"


class TestSessionFluent:
    def test_compile_matches_direct_path(self):
        sess = session().model("gcn").dataset("cora").feature_dim(16)
        compiled = sess.compile()
        direct = compile_training(GCN(16, (64, 7)), get_strategy("ours"))
        stats = sess.resolve_stats()
        assert compiled.counters(stats).flops == direct.counters(stats).flops

    def test_counters_and_latency(self):
        sess = (
            session().model("gat").dataset("pubmed")
            .strategy("dgl-like").gpu("RTX2080").feature_dim(32)
        )
        c = sess.counters()
        assert c.flops > 0
        assert sess.latency_seconds() > 0

    def test_model_instance_with_raw_stats(self):
        g = chung_lu(40, 160, seed=9)
        sess = session().model(GAT(8, (8, 3), heads=1)).stats(g.stats(), "toy")
        assert sess.counters().flops > 0

    def test_registry_model_requires_dataset(self):
        with pytest.raises(ValueError, match="needs a dataset"):
            session().model("gat").compile()

    def test_stats_drops_the_model_resolved_for_a_dataset(self):
        # Regression: a reused session kept the cora-sized registry
        # model (7 classes) after .stats() replaced the dataset, where a
        # fresh session raises — resolution depended on call order.
        sess = session().model("gcn").dataset("cora").feature_dim(16)
        sess.counters()
        sess.stats(get_dataset("pubmed").stats)
        with pytest.raises(ValueError, match="needs a dataset"):
            sess.counters()

    def test_missing_model_errors(self):
        with pytest.raises(ValueError, match="no model"):
            session().dataset("cora").compile()

    def test_missing_workload_errors(self):
        sess = session().model(GCN(8, (8, 4)))
        with pytest.raises(ValueError, match="no workload"):
            sess.counters()

    def test_report_matches_the_other_terminals(self):
        sess = session().model("gcn").dataset("cora").feature_dim(16)
        report = sess.report()
        assert report.counters.flops == sess.counters().flops
        assert report.latency_s == sess.latency_seconds()
        assert report.fits_device == sess.fits()
        assert "gcn on cora" in report.summary()

    def test_report_training_uses_dataset_labels(self, toy_datasets):
        report = (
            session().model("gcn").dataset("reddit-lite").feature_dim(8)
            .report(train_steps=2, seed=0)
        )
        assert len(report.losses) == 2
        assert report.final_accuracy is not None


class TestCustomStrategyThroughSession:
    """Acceptance: a user-registered strategy composed of existing
    passes compiles and produces counters via the Session API."""

    def test_custom_strategy_roundtrip(self):
        register_strategy(ExecutionStrategy(
            name="test-custom",
            reorg_scope="full",
            fusion_mode="edge_chains",
            recompute_policy="boundary",
            stash_scope="needed",
            pass_names=("reorganize", "cse", "autodiff", "recompute", "fusion"),
        ))
        try:
            sess = (
                session().model("gat").dataset("cora")
                .strategy("test-custom").feature_dim(16)
            )
            compiled = sess.compile()
            assert [r.name for r in compiled.pass_records] == [
                "reorganize", "cse", "autodiff", "recompute", "fusion",
            ]
            c = sess.counters()
            assert c.flops > 0 and c.io_bytes > 0
        finally:
            STRATEGIES.remove("test-custom")


class TestSweepAxis:
    """What one sweep axis argument expands to."""

    @pytest.mark.parametrize(
        "value",
        [None, 512, np.int64(512), np.int32(512), np.float32(0.5), 0.5,
         "float16", np.str_("float16")],
        ids=["none", "int", "np-int64", "np-int32", "np-float32", "float",
             "str", "np-str"],
    )
    def test_non_sequence_is_one_option(self, value):
        assert _axis(value) == (value,)

    @pytest.mark.parametrize(
        "value",
        [[256, 512], (256, 512), range(256, 768, 256),
         np.array([256, 512])],
        ids=["list", "tuple", "range", "ndarray"],
    )
    def test_sequence_is_its_options(self, value):
        assert _axis(value) == (256, 512)


class TestRunSweep:
    def test_compiles_each_model_strategy_pair_once(self, toy_datasets):
        cache = PlanCache()
        sweep = run_sweep(
            models=["gat", "gcn"],
            datasets=list(toy_datasets),
            strategies=["ours"],
            cache=cache,
        )
        assert len(sweep.rows) == 4
        # 2 models x 1 strategy compile; the second dataset reuses both.
        assert cache.misses == 2
        assert cache.hits == 2
        assert sweep.cache_misses == 2 and sweep.cache_hits == 2

    def test_gpus_never_recompile(self, toy_datasets):
        cache = PlanCache()
        run_sweep(
            models=["gcn"],
            datasets=[toy_datasets[0]],
            strategies=["ours"],
            gpus=["RTX3090", "RTX2080", "A100"],
            cache=cache,
        )
        # One compile serves all three devices (the GPU loop reuses the
        # compiled plan without even consulting the cache again).
        assert cache.misses == 1 and cache.hits == 0

    def test_sweep_reports_own_counters_not_cumulative(self, toy_datasets):
        cache = PlanCache()
        first = run_sweep(
            models=["gcn"], datasets=[toy_datasets[0]], cache=cache
        )
        second = run_sweep(
            models=["gcn"], datasets=[toy_datasets[0]], cache=cache
        )
        assert first.cache_misses == 1 and first.cache_hits == 0
        assert second.cache_misses == 0 and second.cache_hits == 1

    def test_training_sweep_skips_inference_only(self, toy_datasets):
        sweep = run_sweep(
            models=["gcn"],
            datasets=[toy_datasets[0]],
            strategies=["huang-like", "ours"],
        )
        assert [r.strategy for r in sweep.rows] == ["ours"]
        forward = run_sweep(
            models=["gcn"],
            datasets=[toy_datasets[0]],
            strategies=["huang-like", "ours"],
            training=False,
        )
        assert [r.strategy for r in forward.rows] == ["huang-like", "ours"]

    def test_rows_and_table(self, toy_datasets):
        sweep = run_sweep(
            models=["gcn"],
            datasets=list(toy_datasets),
            strategies=["dgl-like", "ours"],
        )
        assert len(sweep.rows) == 4
        ours = sweep.by(strategy="ours", dataset="toy-a")
        dgl = sweep.by(strategy="dgl-like", dataset="toy-a")
        assert len(ours) == 1 and len(dgl) == 1
        assert ours[0].io_bytes < dgl[0].io_bytes
        text = sweep.table()
        assert "toy-a" in text and "ours" in text

    def test_json_emission(self, toy_datasets, tmp_path):
        sweep = run_sweep(
            models=["gcn"],
            datasets=[toy_datasets[0]],
            save_as="test_sweep",
            results_dir=str(tmp_path),
        )
        path = os.path.join(str(tmp_path), "test_sweep.json")
        assert os.path.exists(path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["cache"]["misses"] == 1
        assert len(payload["rows"]) == 1
        row = payload["rows"][0]
        assert row["model"] == "gcn" and row["dataset"] == "toy-a"
        assert row["flops"] > 0
        assert sweep.rows[0].flops == row["flops"]


class TestClusterSessions:
    """Multi-GPU session configuration and the GPU-count sweep axis."""

    def test_cluster_run_reports_per_gpu_and_halo(self, toy_datasets):
        report = (
            session()
            .model("gat").dataset(toy_datasets[0])
            .strategy("ours").cluster("V100", 4)
            .report()
        )
        assert report.num_gpus == 4
        assert report.gpu == "V100x4"
        assert report.multi is not None
        assert len(report.multi.per_gpu) == 4
        assert report.multi.comm_bytes > 0
        assert all(s.comm_bytes > 0 for s in report.multi.per_gpu)
        assert report.comm_seconds > 0 and report.compute_seconds > 0
        text = report.summary()
        assert "halo exchange" in text and "gpu0" in text

    def test_cluster_accepts_prebuilt_and_validates(self, toy_datasets):
        from repro.gpu.cluster import make_cluster

        cluster = make_cluster("V100", 2, interconnect_gbps=32.0)
        s = session().model("gcn").dataset(toy_datasets[0]).cluster(cluster)
        assert s.resolve_cluster() is cluster
        with pytest.raises(ValueError):
            session().cluster(cluster, 4)
        with pytest.raises(ValueError):
            session().cluster("V100")  # num_gpus required for a name

    def test_gpu_clears_cluster(self, toy_datasets):
        s = (
            session().model("gcn").dataset(toy_datasets[0])
            .cluster("V100", 2).gpu("RTX3090")
        )
        assert s.resolve_cluster() is None
        assert s.report().multi is None

    def test_partitioner_override_and_memoisation(self, toy_datasets):
        s = (
            session().model("gcn").dataset(toy_datasets[0])
            .cluster("V100", 2, partitioner="range")
        )
        a = s.resolve_partition_stats()
        b = s.resolve_partition_stats()
        assert a is b  # memoised
        hash_stats = (
            session().model("gcn").dataset(toy_datasets[0]).cluster("V100", 2)
            .resolve_partition_stats()
        )
        assert a.halo_in_rows != hash_stats.halo_in_rows

    def test_partitioner_validated_where_set(self, toy_datasets):
        """A partition method outside PARTITION_METHODS is refused by
        .cluster() itself, on a concrete graph and on stats alike."""
        for dataset in (toy_datasets[0], "reddit-full"):
            s = session().model("gat").dataset(dataset)
            with pytest.raises(ValueError, match="partition method"):
                s.cluster("V100", 4, partitioner="nope")
        # The refused call leaves the session as it was.
        s = session().model("gcn").dataset(toy_datasets[0]).cluster("V100", 2)
        with pytest.raises(ValueError):
            s.cluster("V100", 4, partitioner="metis")
        assert s.resolve_cluster().num_gpus == 2

    def test_stats_only_workload_refuses_non_hash(self):
        """The expected-partition model knows hash only: asking a
        stats-only workload for another method fails instead of
        pricing hash under its name."""
        s = (
            session().model("gat").dataset("reddit-full")
            .cluster("V100", 4, partitioner="range")
        )
        with pytest.raises(ValueError, match="prices hash only"):
            s.report()
        hashed = (
            session().model("gat").dataset("reddit-full")
            .cluster("V100", 4, partitioner="hash")
        )
        assert hashed.report().latency_s == (
            session().model("gat").dataset("reddit-full")
            .cluster("V100", 4).report().latency_s
        )

    def test_stats_only_dataset_uses_expected_model(self):
        from repro.graph.datasets import get_dataset

        s = (
            session().model("gat").dataset("reddit-full").cluster("V100", 4)
        )
        pstats = s.resolve_partition_stats()
        stats = get_dataset("reddit-full").stats
        assert pstats.num_parts == 4
        assert sum(x.num_edges for x in pstats.parts) == stats.num_edges

    def test_sweep_gpu_count_axis(self, toy_datasets):
        sweep = run_sweep(
            models=["gat"],
            datasets=[toy_datasets[0]],
            strategies=["ours"],
            gpus=["V100"],
            num_gpus=(1, 2, 4),
        )
        assert [r.num_gpus for r in sweep.rows] == [1, 2, 4]
        assert sweep.rows[0].comm_bytes == 0
        fractions = [r.comm_fraction for r in sweep.rows]
        assert fractions[0] == 0.0
        assert fractions[1] < fractions[2]  # comm share grows with GPUs
        names = [r.gpu for r in sweep.rows]
        assert names == ["V100", "V100x2", "V100x4"]
        # One compilation serves every GPU count.
        assert sweep.cache_misses == 1
        row = sweep.rows[2].to_dict()
        assert row["num_gpus"] == 4 and row["comm_bytes"] > 0

    def test_sweep_gpu_counts_from_numpy_stay_json(self, toy_datasets):
        sweep = run_sweep(
            models=["gcn"], datasets=[toy_datasets[0]], gpus=["V100"],
            num_gpus=np.array([1, 2]),
        )
        assert [type(r.num_gpus) for r in sweep.rows] == [int, int]
        assert [r.gpu for r in sweep.rows] == ["V100", "V100x2"]
        json.dumps(sweep.to_dict())

    @pytest.mark.parametrize("counts", [(0, -2), (1.5,), (2, float("nan")), (True,)])
    def test_sweep_refuses_non_counts(self, toy_datasets, counts):
        """0 and -2 used to price single-GPU rows labelled 1; 1.5 built
        ``V100x1.5`` and failed in partitioning."""
        cache = PlanCache()
        with pytest.raises(ValueError, match="num_gpus"):
            run_sweep(
                models=["gcn"], datasets=[toy_datasets[0]], gpus=["V100"],
                num_gpus=counts, cache=cache,
            )
        assert cache.misses == 0

    @pytest.mark.parametrize("dim", [2.5, True, 0, -3, float("nan"), float("inf"), "8"])
    def test_feature_dim_refuses_non_widths(self, toy_datasets, dim):
        """2.5 built an ``in_dim`` 2 model, priced it, recorded 2.5 and
        failed drawing features; ``True`` became width 1.  Batch sizes
        take the same check: 2.5 ran batches of 2 (its sweep row read
        2), ``True`` batches of 1, and inf raised ``OverflowError``."""
        with pytest.raises(ValueError, match=f"feature_dim .*got {dim!r}"):
            session().model("gcn").dataset("cora").feature_dim(dim)
        with pytest.raises(ValueError, match=f"batch_size .*got {dim!r}"):
            session().model("gcn").dataset("cora").minibatch(dim)
        cache = PlanCache()
        for axis in ("feature_dim", "batch_size"):
            with pytest.raises(ValueError, match=axis):
                run_sweep(models=["gcn"], datasets=[toy_datasets[0]], cache=cache,
                          **{axis: dim})
        with pytest.raises(ValueError, match="batch_size"):
            run_sweep(models=["gcn"], datasets=[toy_datasets[0]], cache=cache,
                      batch_size=[None, 64, dim])
        assert cache.misses == 0

    def test_feature_dim_from_numpy_is_an_int(self, toy_datasets):
        s = session().model("gcn").dataset("cora").feature_dim(np.int64(8))
        assert type(s._config.feature_dim) is int
        sweep = run_sweep(models=["gcn"], datasets=[toy_datasets[0]],
                          feature_dim=np.int64(8))
        assert type(sweep.feature_dim) is int
        json.dumps(sweep.to_dict())

    def test_sweep_partitions_each_dataset_once(self, toy_datasets, monkeypatch):
        import importlib

        from repro.graph.partition import PartitionStats

        module = importlib.import_module("repro.session")  # not repro.session()
        calls = []
        partition_graph = module.partition_graph
        from_stats = PartitionStats.from_stats

        def counted_partition(graph, *args, **kwargs):
            calls.append(("graph", graph.num_vertices))
            return partition_graph(graph, *args, **kwargs)

        def counted_from_stats(cls, stats, num_parts):
            calls.append(("stats", stats.num_vertices))
            return from_stats(stats, num_parts)

        monkeypatch.setattr(module, "partition_graph", counted_partition)
        monkeypatch.setattr(PartitionStats, "from_stats", classmethod(counted_from_stats))
        # A concrete graph and a stats-only workload: both partitioners.
        datasets = [toy_datasets[0], "reddit-full"]
        axes = dict(strategies=["ours", "dgl-like"], gpus=["V100"], num_gpus=(1, 4))
        sweep = run_sweep(models=["gat", "gcn"], datasets=datasets, **axes)
        assert sorted(calls) == [("graph", 50), ("stats", 232965)]
        # The reference: one session per (model, dataset), in row order.
        want = [
            row.to_dict()
            for m in ("gat", "gcn") for d in datasets
            for row in run_sweep(models=[m], datasets=[d], **axes).rows
        ]
        assert [row.to_dict() for row in sweep.rows] == want

    def test_registered_cluster_name_in_sweep_gpus(self, toy_datasets):
        """A registered cluster name in `gpus` takes the cluster path
        even at the default num_gpus=(1,) — never single-GPU numbers
        stamped with a cluster label."""
        from repro.gpu.cluster import make_cluster
        from repro.registry import GPUS

        make_cluster("V100", 4, register=True)
        try:
            sweep = run_sweep(
                models=["gcn"], datasets=[toy_datasets[0]],
                strategies=["ours"], gpus=["V100x4"],
            )
        finally:
            GPUS.remove("V100x4")
        (row,) = sweep.rows
        assert row.gpu == "V100x4"
        assert row.num_gpus == 4
        assert row.comm_bytes > 0

    def test_registered_cluster_name_refused_beside_gpu_counts(
        self, toy_datasets
    ):
        """A cluster cannot be multiplied again: the sweep refuses the
        combination up front, naming the entry, instead of failing
        after its first row."""
        from repro.gpu.cluster import make_cluster
        from repro.registry import GPUS

        make_cluster("V100", 4, register=True)
        cache = PlanCache()
        try:
            with pytest.raises(ValueError, match="V100x4"):
                run_sweep(
                    models=["gcn"], datasets=[toy_datasets[0]],
                    gpus=["V100", "V100x4"], num_gpus=[1, 2], cache=cache,
                )
        finally:
            GPUS.remove("V100x4")
        assert cache.misses == 0  # nothing was compiled or priced

    def test_partitioner_override_not_sticky(self, toy_datasets):
        s = (
            session().model("gcn").dataset(toy_datasets[0])
            .cluster("V100", 2, partitioner="range")
        )
        ranged = s.resolve_partition_stats()
        s.cluster("V100", 2)  # no partitioner: back to the default hash
        assert (
            s.resolve_partition_stats().halo_in_rows != ranged.halo_in_rows
        )

    def test_multi_counters_memoised(self, toy_datasets):
        s = (
            session().model("gcn").dataset(toy_datasets[0])
            .cluster("V100", 2)
        )
        assert s.report().multi is s.report().multi
