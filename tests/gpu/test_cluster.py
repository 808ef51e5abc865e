"""Cluster spec + partitioned latency model tests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.frameworks import compile_training, get_strategy
from repro.gpu.cluster import Cluster, ClusterCostModel, make_cluster
from repro.gpu.cost_model import SimulatedOOM
from repro.gpu.spec import V100, get_gpu, list_gpus
from repro.graph import chung_lu
from repro.graph.partition import PartitionStats, partition_graph
from repro.registry import GPUS
from repro.registry import MODELS


def _multi_counters(num_parts, *, model_name="gat"):
    graph = chung_lu(60, 300, seed=7)
    model = MODELS.get(model_name)(8, 4)
    compiled = compile_training(model, get_strategy("ours"))
    pstats = PartitionStats.from_partition(
        partition_graph(graph, num_parts, method="hash")
    )
    return compiled.multi_counters(pstats), pstats


class TestClusterSpec:
    def test_v100_registered(self):
        assert "V100" in list_gpus()
        assert get_gpu("V100") is V100

    def test_make_cluster_naming_and_registration(self):
        c = make_cluster("V100", 4)
        assert c.name == "V100x4" and c.num_gpus == 4
        assert c.gpu is V100
        assert "V100x4" not in GPUS  # not registered by default
        try:
            registered = make_cluster("V100", 2, register=True)
            assert get_gpu("V100x2") is registered
        finally:
            GPUS.remove("V100x2")

    def test_cluster_validation(self):
        with pytest.raises(ValueError):
            Cluster(name="bad", gpu=V100, num_gpus=0)
        # 1.5 GPUs used to fail deep in partitioning with a TypeError.
        with pytest.raises(ValueError, match="num_gpus"):
            make_cluster("V100", 1.5)
        with pytest.raises(TypeError):
            make_cluster(make_cluster("V100", 2), 4)

    @pytest.mark.parametrize("gbps", [0.0, -8.0, float("nan"), float("inf")])
    def test_non_physical_link_refused(self, gbps):
        # 0 divided by zero in pricing; -8 and nan priced every halo
        # exchange as free.
        with pytest.raises(ValueError, match="interconnect_gbps"):
            make_cluster("V100", 4, interconnect_gbps=gbps)

    @pytest.mark.parametrize(
        "field, value",
        [("mem_bandwidth_gbps", 0.0), ("peak_fp32_tflops", 0.0),
         ("mem_bandwidth_gbps", -900.0), ("dram_gb", float("nan")),
         ("num_sms", 0), ("kernel_launch_us", -1.0),
         ("kernel_launch_us", float("inf"))],
    )
    def test_non_physical_device_refused(self, field, value):
        with pytest.raises(ValueError, match=f"GPUSpec.{field}"):
            replace(V100, **{field: value})

    def test_free_launch_and_tiny_memory_allowed(self):
        spec = replace(V100, name="V100-free", kernel_launch_us=0.0, dram_gb=1e-6)
        assert spec.kernel_launch_s == 0.0 and spec.dram_bytes == 1073

    def test_derived_quantities(self):
        c = make_cluster("V100", 4, interconnect_gbps=100.0)
        assert c.interconnect_bandwidth == 100.0e9
        assert c.total_dram_bytes == 4 * V100.dram_bytes


class TestClusterCostModel:
    def test_breakdown_components(self):
        multi, pstats = _multi_counters(4)
        cm = ClusterCostModel(make_cluster("V100", 4))
        bd = cm.breakdown(multi, pstats)
        assert bd.compute_seconds > 0
        assert bd.comm_seconds > 0
        assert bd.total_seconds == pytest.approx(
            bd.compute_seconds + bd.comm_seconds
        )
        assert 0.0 < bd.comm_fraction < 1.0
        assert bd.comm_bytes == multi.comm_bytes

    def test_gpu_count_mismatch_rejected(self):
        multi, pstats = _multi_counters(4)
        cm = ClusterCostModel(make_cluster("V100", 2))
        with pytest.raises(ValueError):
            cm.breakdown(multi, pstats)

    def test_slower_interconnect_costs_more(self):
        multi, pstats = _multi_counters(4)
        fast = ClusterCostModel(make_cluster("V100", 4, interconnect_gbps=200.0))
        slow = ClusterCostModel(make_cluster("V100", 4, interconnect_gbps=10.0))
        assert (
            slow.breakdown(multi, pstats).comm_seconds
            > fast.breakdown(multi, pstats).comm_seconds
        )

    def test_memory_check_per_gpu(self):
        multi, _ = _multi_counters(2)
        # Shrink DRAM below the per-GPU peak to force the OOM path.
        from dataclasses import replace

        small_gpu = replace(V100, name="V100-small", dram_gb=1e-6)
        tiny = Cluster(name="tinyx2", gpu=small_gpu, num_gpus=2)
        cm = ClusterCostModel(tiny)
        assert not cm.fits(multi)
        with pytest.raises(SimulatedOOM):
            cm.check_memory(multi)

    def test_partitioning_unlocks_small_gpus(self):
        """A workload too big for one small device fits when split."""
        multi1, _ = _multi_counters(1)
        multi4, _ = _multi_counters(4)
        from dataclasses import replace

        peak1 = multi1.per_gpu[0].compute.peak_memory_bytes
        peak4 = max(s.compute.peak_memory_bytes for s in multi4.per_gpu)
        assert peak4 < peak1
        budget_gb = (peak1 * 0.9) / 2**30
        small = replace(V100, name="V100-budget", dram_gb=budget_gb)
        assert not ClusterCostModel(
            Cluster("budget-x1", small, 1)
        ).fits(multi1)
        if peak4 <= budget_gb * 2**30:
            assert ClusterCostModel(
                Cluster("budget-x4", small, 4)
            ).fits(multi4)
