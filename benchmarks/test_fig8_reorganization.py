"""Figure 8 — propagation-postponed reorganization ablation.

Paper setting: forward pass only; GAT (h=4, f=64) on Pubmed, EdgeConv
(1 layer, f=64, k=40).  Paper result: reorganization improves latency
by 1.68×, IO by 3.06×, and peak memory by 1.30× on average.
MoNet has no leading Scatter, so the pass does not apply (asserted).
"""

import pytest

from repro.bench.report import geomean
from repro.models import GAT, EdgeConv, MoNet
from repro.opt.reorganize import reorganizable_pairs

from benchmarks.conftest import make_step_fn


@pytest.fixture(scope="module")
def figure(figures):
    return figures["fig8_reorganization"]


class TestFig8:
    def test_latency_improvement_band(self, figure, benchmark, pubmed_graph):
        # Paper: 1.68× average forward speedup.
        speedups = [r["speedup"] for r in figure.normalized]
        assert 1.2 < geomean(speedups) < 2.5
        benchmark.pedantic(
            make_step_fn(GAT(64, (64, 3), heads=4), pubmed_graph, "ours"),
            rounds=3, iterations=1, warmup_rounds=1,
        )

    def test_io_improvement_band(self, figure, benchmark, pubmed_graph):
        # Paper: 3.06× average IO saving.
        io = [r["io_saving"] for r in figure.normalized]
        assert 1.5 < geomean(io) < 5.0
        benchmark.pedantic(
            make_step_fn(GAT(64, (64, 3), heads=4), pubmed_graph, "ours-noreorg"),
            rounds=3, iterations=1, warmup_rounds=1,
        )

    def test_memory_improves(self, figure, benchmark, modelnet_small):
        # Paper: 1.30× average peak-memory saving (naive creates two
        # O(|E|) intermediates; reorganized one O(|V|) and one O(|E|)).
        for row in figure.normalized:
            assert row["memory_saving"] > 1.0, row
        benchmark.pedantic(
            make_step_fn(EdgeConv(3, (64,)), modelnet_small, "ours"),
            rounds=3, iterations=1, warmup_rounds=1,
        )

    def test_monet_not_applicable(self, figure, benchmark, modelnet_small):
        # §7.3: "MoNet has no Scatter and therefore no need for operator
        # reorganization."
        monet = MoNet(16, (16,), num_kernels=2, pseudo_dim=1)
        assert reorganizable_pairs(monet.build_module()) == []
        benchmark.pedantic(
            make_step_fn(EdgeConv(3, (64,)), modelnet_small, "ours-noreorg"),
            rounds=3, iterations=1, warmup_rounds=1,
        )
