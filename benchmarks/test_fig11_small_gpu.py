"""Figure 11 — running Reddit-scale training on an 8 GB RTX 2080.

Paper claim: the three techniques let workloads that need a 24 GB
RTX 3090 under DGL run on an 8 GB RTX 2080 — with latency comparable
to (for EdgeConv, 1.17× better than) DGL on the 3090.
"""

import pytest

from repro.gpu import RTX2080
from repro.models import GAT, EdgeConv

from benchmarks.conftest import make_step_fn


@pytest.fixture(scope="module")
def figure(figures):
    return figures["fig11_small_gpu"]


def _run(figure, workload, strategy, gpu):
    (r,) = figure.by(dataset=workload, strategy=strategy, gpu=gpu)
    return r


class TestFig11:
    def test_dgl_ooms_on_2080_for_large_models(self, figure, benchmark,
                                               reddit_small_graph):
        # GAT/Reddit and EdgeConv/k40-b64 exceed 8 GB under DGL-like
        # save-everything training.
        assert not _run(figure, "gat-reddit", "dgl-like", "RTX2080").fits_device
        assert not _run(figure, "edgeconv-k40-b64", "dgl-like", "RTX2080").fits_device
        benchmark.pedantic(
            make_step_fn(GAT(32, (32, 8), heads=4), reddit_small_graph, "dgl-like"),
            rounds=2, iterations=1, warmup_rounds=1,
        )

    def test_ours_fits_on_2080_everywhere(self, figure, benchmark,
                                          reddit_small_graph):
        for workload in ("gat-reddit", "edgeconv-k40-b64", "monet-reddit"):
            r = _run(figure, workload, "ours", "RTX2080")
            assert r.fits_device
            assert r.peak_memory_bytes < RTX2080.dram_bytes
        benchmark.pedantic(
            make_step_fn(GAT(32, (32, 8), heads=4), reddit_small_graph, "ours"),
            rounds=2, iterations=1, warmup_rounds=1,
        )

    def test_ours_2080_comparable_to_dgl_3090(self, figure, benchmark,
                                              modelnet_small):
        # Paper: "comparable latency"; EdgeConv even 1.17× faster.
        for workload in ("gat-reddit", "edgeconv-k40-b64", "monet-reddit"):
            ours_2080 = _run(figure, workload, "ours", "RTX2080").latency_s
            dgl_3090 = _run(figure, workload, "dgl-like", "RTX3090").latency_s
            assert ours_2080 < 2.0 * dgl_3090, workload
        edge_ours = _run(figure, "edgeconv-k40-b64", "ours", "RTX2080").latency_s
        edge_dgl = _run(figure, "edgeconv-k40-b64", "dgl-like", "RTX3090").latency_s
        assert edge_ours < edge_dgl  # the paper's headline crossover
        benchmark.pedantic(
            make_step_fn(EdgeConv(3, (32, 32)), modelnet_small, "ours"),
            rounds=3, iterations=1, warmup_rounds=1,
        )

    def test_memory_independent_of_gpu(self, figure, benchmark, modelnet_small):
        # The ledger is device-independent; only the capacity check
        # differs between boards.
        for workload in ("gat-reddit", "monet-reddit"):
            a = _run(figure, workload, "ours", "RTX3090").peak_memory_bytes
            b = _run(figure, workload, "ours", "RTX2080").peak_memory_bytes
            assert a == b
        benchmark.pedantic(
            make_step_fn(EdgeConv(3, (32, 32)), modelnet_small, "dgl-like"),
            rounds=3, iterations=1, warmup_rounds=1,
        )
