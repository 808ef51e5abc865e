"""Figure 10 — intermediate-data recomputation ablation (training).

Paper setting: GAT (h=4, f=64) and MoNet (k=2, r=1, f=16) on Reddit;
three variants: "w/o fusion", "fusion & stashing", "fusion &
recomputation".  Paper result: fusion alone cannot reduce training
memory (the fused-away intermediates must still be stashed for
backward); adding recomputation saves 2.21× memory on GAT at +7.1 %
latency and 1.55× on MoNet at −5.9 % (it *accelerates*).
"""

import pytest

from repro.models import GAT, MoNet

from benchmarks.conftest import make_step_fn


@pytest.fixture(scope="module")
def figure(figures):
    return figures["fig10_recomputation"]


def _by_variant(figure, workload):
    return {r.strategy: r for r in figure.by(dataset=workload)}


class TestFig10:
    def test_fusion_alone_barely_reduces_stash(self, figure, benchmark,
                                               reddit_small_graph):
        # §6's motivation: the stash is identical with and without §5
        # fusion — fused kernels still write out what backward needs.
        for workload in ("gat-reddit", "monet-reddit"):
            runs = _by_variant(figure, workload)
            assert runs["ours-stash"].stash_bytes == pytest.approx(
                runs["ours-nofusion"].stash_bytes, rel=0.05
            )
        benchmark.pedantic(
            make_step_fn(GAT(32, (32, 8), heads=4), reddit_small_graph, "ours-stash"),
            rounds=2, iterations=1, warmup_rounds=1,
        )

    def test_recompute_memory_saving_gat(self, figure, benchmark,
                                         reddit_small_graph):
        # Paper: 2.21× on GAT.  Our ledger gives a larger factor (it
        # counts kernel tensors only, no framework baseline), so assert
        # a generous band above the paper's floor.
        runs = _by_variant(figure, "gat-reddit")
        saving = (
            runs["ours-stash"].peak_memory_bytes
            / runs["ours"].peak_memory_bytes
        )
        assert saving > 2.0
        benchmark.pedantic(
            make_step_fn(GAT(32, (32, 8), heads=4), reddit_small_graph, "ours"),
            rounds=2, iterations=1, warmup_rounds=1,
        )

    def test_recompute_memory_saving_monet(self, figure, benchmark,
                                           reddit_small_graph):
        # Paper: 1.55× on MoNet.
        runs = _by_variant(figure, "monet-reddit")
        saving = (
            runs["ours-stash"].peak_memory_bytes
            / runs["ours"].peak_memory_bytes
        )
        assert saving > 1.3
        benchmark.pedantic(
            make_step_fn(
                MoNet(32, (16, 8), num_kernels=2, pseudo_dim=1),
                reddit_small_graph, "ours",
            ),
            rounds=2, iterations=1, warmup_rounds=1,
        )

    def test_recompute_latency_overhead_below_ten_percent(
        self, figure, benchmark, reddit_small_graph
    ):
        # Paper: +7.1 % on GAT, −5.9 % on MoNet; §6 claims <10 % overall.
        for workload in ("gat-reddit", "monet-reddit"):
            runs = _by_variant(figure, workload)
            overhead = runs["ours"].latency_s / runs["ours-stash"].latency_s
            assert overhead < 1.10, (workload, overhead)
        benchmark.pedantic(
            make_step_fn(
                MoNet(32, (16, 8), num_kernels=2, pseudo_dim=1),
                reddit_small_graph, "ours-stash",
            ),
            rounds=2, iterations=1, warmup_rounds=1,
        )

    def test_recompute_stash_vertex_sized(self, figure, benchmark,
                                          reddit_small_graph):
        # The recompute variant's stash collapses from O(|E|) to O(|V|):
        # orders of magnitude on Reddit-scale graphs.
        for workload in ("gat-reddit", "monet-reddit"):
            runs = _by_variant(figure, workload)
            assert runs["ours"].stash_bytes < 0.2 * runs["ours-stash"].stash_bytes
        benchmark.pedantic(
            make_step_fn(GAT(32, (32, 8), heads=4), reddit_small_graph, "ours-nofusion"),
            rounds=2, iterations=1, warmup_rounds=1,
        )
