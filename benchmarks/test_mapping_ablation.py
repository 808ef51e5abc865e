"""Extension ablation — the §5 thread-mapping choice (Figure 5).

The paper notes that fused kernels can "select between vertex-balanced
or edge-balanced mapping based on performance profiling": edge-balanced
mapping has perfect balance but pays atomics for reductions
(Fig. 5(d)); vertex-balanced mapping is atomic-free but serialises on
hub vertices (Fig. 5(c)).  This bench quantifies the crossover on a
GCN aggregate kernel (no ReduceScatter, so the mapping is genuinely
free to choose) and shows GNNAdvisor-style neighbor grouping (§8.1)
recovering vertex-balanced performance on skewed graphs.
"""

import pytest

from repro.models import GCN

from benchmarks.conftest import make_step_fn


@pytest.fixture(scope="module")
def results(figures):
    return {r["workload"]: r for r in figures["mapping_ablation"].normalized}


class TestMappingAblation:
    def test_vertex_wins_on_regular_graphs(self, results, benchmark,
                                           cora_graph):
        r = results["regular"]
        assert r["vertex"] < r["edge+atomics"]
        benchmark.pedantic(
            make_step_fn(GCN(32, (32, 8)), cora_graph, "ours"),
            rounds=3, iterations=1, warmup_rounds=1,
        )

    def test_edge_wins_on_skewed_graphs(self, results, benchmark, cora_graph):
        # The Fig. 5(d) tradeoff: atomics beat hub serialisation.
        r = results["skewed"]
        assert r["edge+atomics"] < r["vertex"]
        benchmark.pedantic(
            make_step_fn(GCN(32, (32, 8)), cora_graph, "ours-edgemap"),
            rounds=3, iterations=1, warmup_rounds=1,
        )

    def test_neighbor_grouping_recovers_balance(self, results, benchmark,
                                                cora_graph):
        # §8.1: grouping balances workloads without atomics — at least
        # as good as either pure mapping on the skewed graph.
        r = results["skewed"]
        assert r["vertex+grouping"] <= r["vertex"]
        assert r["vertex+grouping"] <= r["edge+atomics"] * 1.05
        benchmark.pedantic(
            make_step_fn(GCN(32, (32, 8)), cora_graph, "dgl-like"),
            rounds=3, iterations=1, warmup_rounds=1,
        )

    def test_grouping_neutral_on_regular(self, results, benchmark, cora_graph):
        r = results["regular"]
        assert r["vertex+grouping"] == pytest.approx(r["vertex"], rel=1e-6)
        benchmark.pedantic(
            make_step_fn(GCN(32, (32, 8)), cora_graph, "fusegnn-like"),
            rounds=3, iterations=1, warmup_rounds=1,
        )
