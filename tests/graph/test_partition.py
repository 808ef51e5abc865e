"""Partitioner unit tests plus property-based fuzzing.

Properties enforced for every partitioner on every fuzzed graph
(including zero-edge, single-vertex, isolated-vertex, and self-loop
graphs):

- owned sets are disjoint and cover the vertex set; owned edge sets
  cover the edge set (ownership by destination),
- each part's halo map (``ghost_src``) is exactly the 1-hop receptive
  field boundary of its owned set, so iterated halo expansion
  reconstructs exact L-hop receptive fields,
- the local in/out graphs relabel faithfully back to the global edges,
- :func:`receptive_field` (edge-mask closure) agrees with
  :func:`khop_neighborhood` (frontier BFS) — two independent
  implementations cross-checking each other.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import Graph, chung_lu, erdos_renyi
from repro.graph.partition import (
    PartitionStats,
    greedy_edge_cut_assignment,
    hash_assignment,
    partition_graph,
    range_assignment,
    receptive_field,
)
from repro.graph.sampling import induced_subgraph, khop_neighborhood

METHODS = ("hash", "range", "greedy")


def _fuzz_graphs():
    """Random + adversarial topologies (shared by several suites)."""
    rng = np.random.default_rng(99)
    graphs = {
        "zero-edge": Graph(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 7
        ),
        "single-vertex": Graph(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 1
        ),
        "all-self-loops": Graph(np.arange(5), np.arange(5), 5),
        "isolated+parallel": Graph(
            np.array([0, 0, 0, 2]), np.array([1, 1, 2, 0]), 5
        ),
    }
    for i in range(6):
        n = int(rng.integers(2, 50))
        m = int(rng.integers(0, 4 * n))
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        graphs[f"random-{i}"] = Graph(src, dst, n)
    graphs["heavy-tail"] = chung_lu(80, 400, seed=1)
    graphs["er"] = erdos_renyi(30, 90, seed=2)
    return graphs


FUZZ_GRAPHS = _fuzz_graphs()


class TestAssignments:
    def test_hash_deterministic_and_balanced(self):
        a = hash_assignment(10_000, 4, seed=0)
        b = hash_assignment(10_000, 4, seed=0)
        assert np.array_equal(a, b)
        counts = np.bincount(a, minlength=4)
        assert counts.min() > 2_000  # roughly balanced

    def test_hash_seed_changes_assignment(self):
        a = hash_assignment(1_000, 4, seed=0)
        b = hash_assignment(1_000, 4, seed=1)
        assert not np.array_equal(a, b)

    def test_range_blocks_are_contiguous(self):
        a = range_assignment(10, 3)
        assert np.array_equal(a, [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_greedy_respects_capacity(self):
        g = chung_lu(60, 300, seed=7)
        a = greedy_edge_cut_assignment(g, 4, balance_slack=1.05)
        counts = np.bincount(a, minlength=4)
        assert counts.max() <= int(np.ceil(60 / 4 * 1.05))

    def test_greedy_cuts_fewer_edges_than_hash(self):
        # Two weakly-connected communities: greedy should find them.
        rng = np.random.default_rng(3)
        half = 30
        src_a = rng.integers(0, half, size=200)
        dst_a = rng.integers(0, half, size=200)
        src_b = rng.integers(half, 2 * half, size=200)
        dst_b = rng.integers(half, 2 * half, size=200)
        bridge_s, bridge_d = [0, half], [half, 0]
        g = Graph(
            np.concatenate([src_a, src_b, bridge_s]),
            np.concatenate([dst_a, dst_b, bridge_d]),
            2 * half,
        )
        hash_cut = partition_graph(g, 2, method="hash").cut_edges
        greedy_cut = partition_graph(g, 2, method="greedy").cut_edges
        assert greedy_cut < hash_cut

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hash_assignment(10, 0)
        with pytest.raises(ValueError):
            partition_graph(chung_lu(10, 20, seed=0), 2, method="metis")


class TestPartitionProperties:
    @pytest.mark.parametrize("name", sorted(FUZZ_GRAPHS))
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("num_parts", [1, 2, 3, 5])
    def test_cover_disjoint_and_halo(self, name, method, num_parts):
        graph = FUZZ_GRAPHS[name]
        gp = partition_graph(graph, num_parts, method=method)
        gp.validate()

        seen_vertices = np.concatenate([p.owned for p in gp.parts])
        assert len(seen_vertices) == len(set(seen_vertices.tolist()))
        assert set(seen_vertices.tolist()) == set(range(graph.num_vertices))

        seen_edges = np.concatenate([p.in_edge_ids for p in gp.parts])
        assert sorted(seen_edges.tolist()) == list(range(graph.num_edges))

        for part in gp.parts:
            # Halo = exact 1-hop receptive-field boundary.
            want = khop_neighborhood(graph, part.owned, 1) if part.num_owned else part.owned
            got = np.union1d(part.owned, part.ghost_src)
            assert np.array_equal(np.sort(want), np.sort(got))
            # Ghosts are never owned.
            assert not np.isin(part.ghost_src, part.owned).any()

    @pytest.mark.parametrize("method", METHODS)
    def test_local_graphs_relabel_back(self, method):
        graph = FUZZ_GRAPHS["heavy-tail"]
        gp = partition_graph(graph, 3, method=method)
        for part in gp.parts:
            local_ids = np.concatenate([part.owned, part.ghost_src])
            assert np.array_equal(
                local_ids[part.in_graph.src], graph.src[part.in_edge_ids]
            )
            assert np.array_equal(
                local_ids[part.in_graph.dst], graph.dst[part.in_edge_ids]
            )
            out_ids = np.concatenate([part.owned, part.ghost_dst])
            assert np.array_equal(
                out_ids[part.out_graph.src], graph.src[part.out_edge_ids]
            )
            assert np.array_equal(
                out_ids[part.out_graph.dst], graph.dst[part.out_edge_ids]
            )
            # Owned rows keep their exact global in-degree.
            assert np.array_equal(
                part.in_graph.in_degrees[:part.num_owned],
                graph.in_degrees[part.owned],
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(FUZZ_GRAPHS))
    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_lhop_receptive_field_reconstruction(self, name, hops):
        """Iterated halo expansion == exact L-hop receptive field."""
        graph = FUZZ_GRAPHS[name]
        gp = partition_graph(graph, 3, method="hash")
        for part in gp.parts:
            if part.num_owned == 0:
                continue
            want = khop_neighborhood(graph, part.owned, hops)
            # Expand hop by hop through receptive_field's edge-mask
            # closure — the construction a multi-layer halo uses.
            got = part.owned
            for _ in range(hops):
                got = receptive_field(graph, got, 1)
            assert np.array_equal(np.sort(got), np.sort(want))
            # And in one shot.
            assert np.array_equal(
                np.sort(receptive_field(graph, part.owned, hops)), np.sort(want)
            )


class TestPartitionStats:
    @pytest.mark.parametrize("name", sorted(FUZZ_GRAPHS))
    def test_exact_stats_consistency(self, name):
        graph = FUZZ_GRAPHS[name]
        gp = partition_graph(graph, 3, method="hash")
        ps = PartitionStats.from_partition(gp)
        assert sum(ps.owned_vertices) == graph.num_vertices
        assert sum(s.num_edges for s in ps.parts) == graph.num_edges
        assert ps.total_edges == graph.num_edges
        for p, s in enumerate(ps.parts):
            assert s.num_vertices == gp.parts[p].num_local_vertices
            assert ps.halo_in_rows[p] == gp.parts[p].ghost_src.size
            assert ps.halo_dst_rows[p] == gp.parts[p].ghost_dst.size

    def test_expected_model_tracks_exact(self):
        graph = chung_lu(400, 2_000, seed=11)
        exact = PartitionStats.from_partition(
            partition_graph(graph, 4, method="hash")
        )
        model = PartitionStats.from_stats(graph.stats(), 4)
        assert model.num_parts == 4
        assert sum(s.num_edges for s in model.parts) == graph.num_edges
        # Expected cut/halo within 30% of a concrete hash partition.
        assert model.cut_edges == pytest.approx(exact.cut_edges, rel=0.3)
        assert sum(model.halo_in_rows) == pytest.approx(
            sum(exact.halo_in_rows), rel=0.3
        )
        assert sum(model.halo_dst_rows) == pytest.approx(
            sum(exact.halo_dst_rows), rel=0.3
        )

    def test_single_part_is_identity(self):
        stats = chung_lu(50, 200, seed=0).stats()
        ps = PartitionStats.from_stats(stats, 1)
        assert ps.parts[0] is stats
        assert ps.cut_edges == 0 and ps.halo_in_rows == ps.halo_dst_rows == (0,)


class TestSamplingFuzz:
    """Property fuzz for the machinery the partitioners build on."""

    @pytest.mark.parametrize("name", sorted(FUZZ_GRAPHS))
    def test_induced_subgraph_roundtrip(self, name):
        graph = FUZZ_GRAPHS[name]
        rng = np.random.default_rng(5)
        take = rng.random(graph.num_vertices) < 0.5
        vertices = np.nonzero(take)[0]
        if vertices.size == 0:
            # Empty draws are a loud error (a Graph needs >= 1 vertex),
            # not a phantom 1-vertex subgraph.
            with pytest.raises(ValueError, match="empty vertex set"):
                induced_subgraph(graph, vertices)
            return
        sub, kept, eids = induced_subgraph(graph, vertices)
        assert np.array_equal(kept, vertices)
        # Every kept edge maps back to a global edge between kept
        # vertices, and no qualifying edge is dropped.
        assert np.array_equal(kept[sub.src], graph.src[eids])
        assert np.array_equal(kept[sub.dst], graph.dst[eids])
        in_set = np.zeros(graph.num_vertices, dtype=bool)
        in_set[vertices] = True
        expected = np.nonzero(in_set[graph.src] & in_set[graph.dst])[0]
        assert np.array_equal(eids, expected)

    @pytest.mark.parametrize("name", sorted(FUZZ_GRAPHS))
    def test_khop_monotone_and_bounded(self, name):
        graph = FUZZ_GRAPHS[name]
        seeds = np.array([0], dtype=np.int64)
        prev = set(khop_neighborhood(graph, seeds, 0).tolist())
        assert prev == {0}
        for hops in (1, 2, 3):
            cur = set(khop_neighborhood(graph, seeds, hops).tolist())
            assert prev <= cur
            assert max(cur) < graph.num_vertices
            prev = cur
