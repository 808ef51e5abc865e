"""Tests for the GPU latency model and OOM simulation."""

import numpy as np
import pytest

from repro.exec.profiler import Counters, KernelRecord, PhaseCounters
from repro.graph import GraphStats
from repro.gpu import RTX2080, RTX3090, CostModel, SimulatedOOM, get_gpu
from repro.gpu.spec import list_gpus


def record(**kw):
    base = dict(
        label="k", mapping="edge", work="uniform", rows=1000,
        flops=1e6, read_bytes=10**6, write_bytes=10**6,
    )
    base.update(kw)
    return KernelRecord(**base)


def regular_stats(V=1000, E=20_000):
    return GraphStats(
        V, E,
        np.full(V, E // V, dtype=np.int64),
        np.full(V, E // V, dtype=np.int64),
    )


def skewed_stats(V=1000, E=20_000, max_deg=10_000):
    ind = np.full(V, (E - max_deg) // (V - 1), dtype=np.int64)
    ind[0] = max_deg
    ind[1] += E - int(ind.sum())
    return GraphStats(V, E, ind, ind.copy())


class TestSpecs:
    def test_registry(self):
        assert get_gpu("RTX3090").dram_gb == 24.0
        assert get_gpu("RTX2080").dram_gb == 8.0
        with pytest.raises(KeyError):
            get_gpu("H100")
        assert "A100" in list_gpus()

    def test_derived_quantities(self):
        assert RTX3090.peak_flops == pytest.approx(35.6e12)
        assert RTX3090.bandwidth == pytest.approx(936e9)
        assert RTX2080.dram_bytes == 8 * 1024 ** 3


class TestKernelTime:
    def test_zero_for_views(self):
        cm = CostModel(RTX3090)
        r = record(mapping="none", flops=0, read_bytes=0, write_bytes=0)
        assert cm.kernel_seconds(r, regular_stats()) == 0.0

    def test_launch_overhead_floor(self):
        cm = CostModel(RTX3090)
        r = record(flops=1, read_bytes=4, write_bytes=4)
        assert cm.kernel_seconds(r, regular_stats()) >= RTX3090.kernel_launch_s

    def test_bandwidth_bound_graph_kernel(self):
        cm = CostModel(RTX3090)
        r = record(flops=1e3, read_bytes=10**9, write_bytes=0)
        t = cm.kernel_seconds(r, regular_stats())
        expected = 1e9 / (RTX3090.bandwidth * RTX3090.gather_bw_efficiency)
        assert t == pytest.approx(expected + RTX3090.kernel_launch_s, rel=1e-6)

    def test_compute_bound_dense_kernel(self):
        cm = CostModel(RTX3090)
        r = record(mapping="dense", flops=1e12, read_bytes=10**6, write_bytes=10**6)
        t = cm.kernel_seconds(r, regular_stats())
        expected = 1e12 / (RTX3090.peak_flops * RTX3090.dense_efficiency)
        assert t == pytest.approx(expected + RTX3090.kernel_launch_s, rel=1e-6)

    def test_atomic_penalty_slows_writes(self):
        cm = CostModel(RTX3090)
        base = record(mapping="edge", flops=1.0, read_bytes=0, write_bytes=10**8)
        atomic = record(
            mapping="edge", flops=1.0, read_bytes=0, write_bytes=10**8,
            atomic=True,
        )
        s = regular_stats()
        assert cm.kernel_seconds(atomic, s) > cm.kernel_seconds(base, s)

    def test_smem_overhead_on_reduce_scatter(self):
        cm = CostModel(RTX3090)
        # Compute-bound so the smem factor shows up.
        base = record(mapping="vertex", flops=1e12, read_bytes=1, write_bytes=1)
        fused = record(
            mapping="vertex", flops=1e12, read_bytes=1, write_bytes=1,
            reduce_scatter=True,
        )
        s = regular_stats()
        ratio = cm.kernel_seconds(fused, s) / cm.kernel_seconds(base, s)
        assert ratio == pytest.approx(RTX3090.smem_fusion_overhead, rel=0.01)


class TestImbalance:
    def test_regular_graph_no_penalty(self):
        cm = CostModel(RTX3090)
        r = record(mapping="vertex", work="degree_in")
        assert cm.imbalance_factor(r, regular_stats()) == 1.0

    def test_skewed_small_graph_penalised(self):
        cm = CostModel(RTX3090)
        r = record(mapping="vertex", work="degree_in")
        s = skewed_stats(V=1000, E=20_000, max_deg=10_000)
        assert cm.imbalance_factor(r, s) > 10

    def test_large_graph_hides_tail(self):
        # Same max degree at 100× the edges: penalty mostly gone.
        cm = CostModel(RTX3090)
        r = record(mapping="vertex", work="degree_in")
        small = skewed_stats(V=1000, E=20_000, max_deg=10_000)
        big = skewed_stats(V=100_000, E=2_000_000, max_deg=10_000)
        assert cm.imbalance_factor(r, big) < cm.imbalance_factor(r, small)

    def test_edge_mapping_never_penalised(self):
        cm = CostModel(RTX3090)
        r = record(mapping="edge", work="uniform")
        assert cm.imbalance_factor(r, skewed_stats()) == 1.0


class TestMemoryCheck:
    def _counters(self, peak):
        phase = PhaseCounters(records=[], peak_memory_bytes=peak)
        return Counters(forward=phase)

    def test_fits(self):
        cm = CostModel(RTX2080)
        assert cm.fits(self._counters(7 * 1024 ** 3))
        cm.check_memory(self._counters(7 * 1024 ** 3))

    def test_oom_raises_with_details(self):
        cm = CostModel(RTX2080)
        big = self._counters(10 * 1024 ** 3)
        assert not cm.fits(big)
        with pytest.raises(SimulatedOOM, match="RTX2080"):
            cm.check_memory(big)
        try:
            cm.check_memory(big)
        except SimulatedOOM as exc:
            assert exc.required_bytes == 10 * 1024 ** 3
            assert exc.capacity_bytes == 8 * 1024 ** 3


class TestDeviceOrdering:
    def test_3090_faster_than_2080(self):
        r = record(flops=1e9, read_bytes=10**8, write_bytes=10**8)
        s = regular_stats()
        t3090 = CostModel(RTX3090).kernel_seconds(r, s)
        t2080 = CostModel(RTX2080).kernel_seconds(r, s)
        assert t3090 < t2080

    def test_latency_breakdown_totals(self):
        records = [record(), record(mapping="dense")]
        phase = PhaseCounters(records=records)
        cm = CostModel(RTX3090)
        breakdown = cm.phase_latency(phase, regular_stats())
        assert len(breakdown.kernel_seconds) == 2
        assert breakdown.total_seconds == pytest.approx(
            sum(breakdown.kernel_seconds)
        )
        assert len(breakdown.top(1)) == 1


class TestNeighborGroupingCostModel:
    def test_grouping_caps_imbalance(self):
        from repro.exec.profiler import KernelRecord
        from repro.gpu import RTX3090, CostModel
        from repro.graph import GraphStats

        ind = np.full(1000, 10, dtype=np.int64)
        ind[0] = 5_000
        ind[1] = 10 + (10 * 1000 + 5_000 - int(ind.sum()))
        stats = GraphStats(1000, int(ind.sum()), ind, ind.copy())
        rec = KernelRecord(
            label="k", mapping="vertex", work="degree_in", rows=1000,
            flops=1e6, read_bytes=10**6, write_bytes=10**6,
        )
        plain = CostModel(RTX3090).imbalance_factor(rec, stats)
        grouped = CostModel(
            RTX3090, neighbor_group_size=64
        ).imbalance_factor(rec, stats)
        assert grouped < plain
        assert grouped >= 1.0
