"""Tests for figure normalisation and the figure builders."""

import pytest

from repro.bench.harness import normalized_rows
from repro.session import SweepRow


class TestNormalization:
    def _rows(self):
        mk = lambda s, lat, io, mem: SweepRow(
            model="m", dataset="w", strategy=s, gpu="RTX3090",
            flops=1.0, io_bytes=io, peak_memory_bytes=mem, stash_bytes=0,
            launches=1, latency_s=lat, fits_device=True,
        )
        return [mk("dgl-like", 2.0, 100, 50), mk("ours", 1.0, 50, 10)]

    def test_ratios(self):
        rows = normalized_rows(self._rows())
        (row,) = rows
        assert row["workload"] == "w"
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
