"""Tests for the experiment runner and normalisation."""

import numpy as np
import pytest

from repro.bench.harness import (
    RunResult,
    measure,
    normalized_rows,
)
from repro.gpu import RTX2080, RTX3090
from repro.graph import GraphStats
from repro.models import GCN


@pytest.fixture
def stats():
    return GraphStats.regular(500, 10)


class TestMeasure:
    def test_training_fields(self, stats):
        r = measure(GCN(8, (8, 4)), "wl", stats, "ours", RTX3090)
        assert r.latency_s > 0
        assert r.io_bytes > 0
        assert r.peak_memory_bytes > 0
        assert r.stash_bytes > 0
        assert not r.oom
        assert r.gpu == "RTX3090"
        assert r.memory_gb == pytest.approx(r.peak_memory_bytes / 2 ** 30)

    def test_forward_has_no_stash(self, stats):
        r = measure(GCN(8, (8, 4)), "wl", stats, "ours", RTX3090, training=False)
        assert r.stash_bytes == 0

    def test_forward_cheaper_than_training(self, stats):
        fwd = measure(GCN(8, (8, 4)), "wl", stats, "ours", RTX3090, training=False)
        train = measure(GCN(8, (8, 4)), "wl", stats, "ours", RTX3090)
        assert fwd.flops < train.flops
        assert fwd.latency_s < train.latency_s

    def test_slower_gpu_slower(self, stats):
        fast = measure(GCN(8, (8, 4)), "wl", stats, "ours", RTX3090)
        slow = measure(GCN(8, (8, 4)), "wl", stats, "ours", RTX2080)
        assert slow.latency_s > fast.latency_s
        assert slow.peak_memory_bytes == fast.peak_memory_bytes


class TestNormalization:
    def _rows(self):
        mk = lambda s, lat, io, mem: RunResult(
            model="m", workload="w", strategy=s, gpu="RTX3090",
            latency_s=lat, io_bytes=io, peak_memory_bytes=mem,
            flops=1.0, stash_bytes=0, launches=1,
        )
        return [mk("dgl-like", 2.0, 100, 50), mk("ours", 1.0, 50, 10)]

    def test_ratios(self):
        rows = normalized_rows(self._rows())
        (row,) = rows
        assert row["speedup"] == pytest.approx(2.0)
        assert row["io_saving"] == pytest.approx(2.0)
        assert row["memory_saving"] == pytest.approx(5.0)

    def test_missing_baseline(self):
        rows = self._rows()[1:]
        with pytest.raises(KeyError, match="dgl-like"):
            normalized_rows(rows)

    def test_custom_baseline(self):
        rows = normalized_rows(self._rows(), baseline="ours")
        (row,) = rows
        assert row["strategy"] == "dgl-like"
        assert row["speedup"] == pytest.approx(0.5)


class TestFigureSmoke:
    """Fast smoke checks that the figure definitions run end to end."""

    def test_fig8_runs(self):
        from repro.bench.figures import fig8_reorganization

        fr = fig8_reorganization()
        assert len(fr.results) == 4
        assert "speedup" in fr.table

    def test_figure_result_accessors(self):
        from repro.bench.figures import fig9_fusion

        fr = fig9_fusion()
        row = fr.norm("gat-reddit", "ours")
        assert row["workload"] == "gat-reddit"
        with pytest.raises(KeyError):
            fr.norm("nope", "ours")
        subset = fr.by(strategy="ours")
        assert all(r.strategy == "ours" for r in subset)

    def test_inline_stats_shapes(self):
        from repro.bench.figures import (
            inline_intermediate_memory_share,
            inline_redundant_computation,
        )

        for build, paper in (
            (inline_redundant_computation, "92.4%"),
            (inline_intermediate_memory_share, "91.9%"),
        ):
            fr = build()
            (row,) = fr.normalized
            assert 0 < row["share"] < 1 and paper in fr.table
