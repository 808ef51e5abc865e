"""Tests for incremental CSR deltas and the overlay DynamicGraph.

The load-bearing contract: every delta-aware query (degrees,
k-hop neighbourhoods, induced subgraphs with global edge ids) is
bit-identical to the same query on a graph rebuilt from scratch at the
same version — before and after any number of compactions.
"""

import numpy as np
import pytest

from repro.dyn import DynamicGraph, GraphDelta, delta_apply_bytes
from repro.dyn.delta import compact_io_bytes
from repro.graph import Graph, chung_lu
from repro.graph.sampling import induced_subgraph, khop_neighborhood


def _random_delta(rng, num_vertices, *, grow=0, edges=6):
    grown = num_vertices + grow
    return GraphDelta(
        src=rng.integers(0, grown, size=edges),
        dst=rng.integers(0, grown, size=edges),
        num_new_vertices=grow,
    )


class TestGraphDelta:
    def test_shape_and_dtype(self):
        d = GraphDelta(src=[0, 1], dst=[1, 2])
        assert d.src.dtype == np.int64 and d.dst.dtype == np.int64
        assert d.num_edges == 2 and d.num_new_vertices == 0

    def test_nbytes_is_the_closed_form(self):
        d = GraphDelta(src=np.arange(5), dst=np.arange(5))
        assert d.nbytes == delta_apply_bytes(5) == 2 * 8 * 5

    def test_vertex_only_delta(self):
        d = GraphDelta(
            src=np.array([], dtype=np.int64),
            dst=np.array([], dtype=np.int64),
            num_new_vertices=3,
        )
        assert d.num_edges == 0 and d.nbytes == 0

    def test_validation(self):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="mutates nothing"):
            GraphDelta(src=empty, dst=empty)
        with pytest.raises(ValueError, match="equal length"):
            GraphDelta(src=np.array([0]), dst=np.array([0, 1]))
        with pytest.raises(ValueError, match="non-negative"):
            GraphDelta(src=np.array([-1]), dst=np.array([0]))
        with pytest.raises(ValueError, match="non-negative"):
            GraphDelta(src=np.array([0]), dst=np.array([0]), num_new_vertices=-1)


class TestApply:
    def test_versions_and_growth(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        assert dyn.version == 0 and dyn.num_edges == tiny_graph.num_edges
        v = dyn.apply(GraphDelta(src=[3], dst=[0]))
        assert v == dyn.version == 1
        assert dyn.num_edges == tiny_graph.num_edges + 1
        assert dyn.pending_edges == 1
        v = dyn.apply(GraphDelta(src=[4], dst=[0], num_new_vertices=1))
        assert v == 2 and dyn.num_vertices == tiny_graph.num_vertices + 1

    def test_endpoint_range_checked_against_grown_space(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        with pytest.raises(ValueError, match="endpoints must lie"):
            dyn.apply(GraphDelta(src=[4], dst=[0]))
        # The same endpoint is legal when the delta grows the space.
        dyn.apply(GraphDelta(src=[4], dst=[0], num_new_vertices=1))

    def test_self_loop_policy(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph, allow_self_loops=False)
        with pytest.raises(ValueError, match="self-loops"):
            dyn.apply(GraphDelta(src=[1], dst=[1]))

    def test_duplicate_policy(self):
        g = Graph(np.array([0]), np.array([1]), 3)
        dyn = DynamicGraph(g, allow_duplicates=False)
        with pytest.raises(ValueError, match="duplicates existing"):
            dyn.apply(GraphDelta(src=[0], dst=[1]))
        with pytest.raises(ValueError, match="within the batch"):
            dyn.apply(GraphDelta(src=[1, 1], dst=[2, 2]))
        dyn.apply(GraphDelta(src=[1], dst=[2]))
        # Pending edges count as existing for later batches.
        with pytest.raises(ValueError, match="duplicates existing"):
            dyn.apply(GraphDelta(src=[1], dst=[2]))

    def test_apply_ledger_is_exact(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        dyn.apply(GraphDelta(src=[0, 1], dst=[1, 2]))
        dyn.apply(GraphDelta(src=[2], dst=[3]))
        assert dyn.apply_bytes == delta_apply_bytes(2) + delta_apply_bytes(1)
        assert dyn.io_bytes == dyn.apply_bytes

    def test_base_graph_never_mutated(self, tiny_graph):
        before = (tiny_graph.src.copy(), tiny_graph.dst.copy())
        dyn = DynamicGraph(tiny_graph)
        dyn.apply(GraphDelta(src=[3], dst=[0]))
        dyn.compact()
        np.testing.assert_array_equal(tiny_graph.src, before[0])
        np.testing.assert_array_equal(tiny_graph.dst, before[1])
        assert dyn.base is tiny_graph


class TestCompact:
    def test_compact_matches_rebuild(self, small_graph):
        rng = np.random.default_rng(0)
        dyn = DynamicGraph(small_graph)
        for _ in range(4):
            dyn.apply(_random_delta(rng, dyn.num_vertices, grow=1))
        csr = dyn.compact()
        rebuilt = dyn.rebuild()
        np.testing.assert_array_equal(csr.src, rebuilt.src)
        np.testing.assert_array_equal(csr.dst, rebuilt.dst)
        assert csr.num_vertices == rebuilt.num_vertices
        assert dyn.pending_edges == 0 and dyn.compactions == 1

    def test_compact_ledger_is_the_closed_form(self, small_graph):
        dyn = DynamicGraph(small_graph)
        dyn.apply(GraphDelta(src=[0, 1, 2], dst=[3, 4, 5]))
        dyn.compact()
        expected = compact_io_bytes(small_graph.num_vertices, small_graph.num_edges, 3)
        assert dyn.compact_bytes == expected
        # Second compaction folds onto the already-grown CSR.
        dyn.apply(GraphDelta(src=[5], dst=[6]))
        dyn.compact()
        expected += compact_io_bytes(
            small_graph.num_vertices, small_graph.num_edges + 3, 1
        )
        assert dyn.compact_bytes == expected
        assert dyn.io_bytes == dyn.apply_bytes + dyn.compact_bytes

    def test_noop_compact_is_free(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        assert dyn.compact() is tiny_graph
        assert dyn.compactions == 0 and dyn.compact_bytes == 0

    def test_vertex_only_compact(self, tiny_graph):
        empty = np.array([], dtype=np.int64)
        dyn = DynamicGraph(tiny_graph)
        dyn.apply(GraphDelta(src=empty, dst=empty, num_new_vertices=2))
        csr = dyn.compact()
        assert csr.num_vertices == tiny_graph.num_vertices + 2
        assert csr.num_edges == tiny_graph.num_edges


class TestOverlayQueries:
    """Fuzz: overlay answers == from-scratch rebuild answers."""

    @pytest.mark.parametrize("compact_at", [None, 2, 5])
    def test_neighborhood_and_degrees_match_rebuild(self, compact_at):
        rng = np.random.default_rng(3)
        base = chung_lu(40, 160, seed=3)
        dyn = DynamicGraph(base)
        for step in range(7):
            grow = int(rng.random() < 0.4) * 2
            dyn.apply(_random_delta(rng, dyn.num_vertices, grow=grow))
            if compact_at is not None and dyn.version % compact_at == 0:
                dyn.compact()
            ref = dyn.rebuild()
            np.testing.assert_array_equal(dyn.in_degrees, ref.in_degrees)
            np.testing.assert_array_equal(dyn.out_degrees, ref.out_degrees)
            seeds = rng.integers(0, dyn.num_vertices, size=3)
            for hops in (0, 1, 2):
                np.testing.assert_array_equal(
                    dyn.neighborhood(seeds, hops),
                    khop_neighborhood(ref, seeds, hops),
                )

    @pytest.mark.parametrize("compact_at", [None, 3])
    def test_induce_matches_rebuild_including_global_eids(self, compact_at):
        rng = np.random.default_rng(5)
        base = chung_lu(30, 120, seed=5)
        dyn = DynamicGraph(base)
        for _ in range(6):
            dyn.apply(_random_delta(rng, dyn.num_vertices, grow=1, edges=8))
            if compact_at is not None and dyn.version % compact_at == 0:
                dyn.compact()
            ref = dyn.rebuild()
            vertices = np.unique(rng.integers(0, dyn.num_vertices, size=12))
            sub, kept, eids = dyn.induce(vertices)
            rsub, rkept, reids = induced_subgraph(ref, vertices)
            np.testing.assert_array_equal(kept, rkept)
            np.testing.assert_array_equal(eids, reids)
            np.testing.assert_array_equal(sub.src, rsub.src)
            np.testing.assert_array_equal(sub.dst, rsub.dst)
            assert sub.num_vertices == rsub.num_vertices

    def test_receptive_field_matches_batcher(self):
        from repro.serve.batcher import receptive_field

        rng = np.random.default_rng(9)
        dyn = DynamicGraph(chung_lu(30, 120, seed=9))
        for _ in range(3):
            dyn.apply(_random_delta(rng, dyn.num_vertices, grow=1, edges=8))
        ref = dyn.rebuild()
        seeds = np.array([4, 17, 17, 2])
        mine = dyn.receptive_field(seeds, 2)
        theirs = receptive_field(ref, seeds, 2)
        np.testing.assert_array_equal(mine.seeds, theirs.seeds)
        np.testing.assert_array_equal(mine.vertices, theirs.vertices)
        np.testing.assert_array_equal(mine.edge_ids, theirs.edge_ids)
        np.testing.assert_array_equal(mine.seed_index, theirs.seed_index)
        np.testing.assert_array_equal(mine.subgraph.src, theirs.subgraph.src)
        np.testing.assert_array_equal(mine.subgraph.dst, theirs.subgraph.dst)

    def test_queries_stable_across_compaction(self):
        rng = np.random.default_rng(11)
        dyn = DynamicGraph(chung_lu(30, 120, seed=11))
        for _ in range(4):
            dyn.apply(_random_delta(rng, dyn.num_vertices, edges=8))
        seeds = np.array([1, 5, 9])
        before_field = dyn.neighborhood(seeds, 2)
        _, before_kept, before_eids = dyn.induce(before_field)
        dyn.compact()
        np.testing.assert_array_equal(dyn.neighborhood(seeds, 2), before_field)
        _, after_kept, after_eids = dyn.induce(before_field)
        np.testing.assert_array_equal(after_kept, before_kept)
        np.testing.assert_array_equal(after_eids, before_eids)

    def test_query_validation(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        with pytest.raises(ValueError, match="hops"):
            dyn.neighborhood(np.array([0]), -1)
        with pytest.raises(ValueError, match="out of range"):
            dyn.neighborhood(np.array([99]), 1)
        with pytest.raises(ValueError, match="out of range"):
            dyn.induce(np.array([99]))
        with pytest.raises(ValueError, match="empty vertex set"):
            dyn.induce(np.array([], dtype=np.int64))


class TestRebuildAndMaterialise:
    def test_rebuild_at_intermediate_versions(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        dyn.apply(GraphDelta(src=[3], dst=[0]))
        dyn.apply(GraphDelta(src=[0], dst=[3]))
        assert dyn.rebuild(0) is tiny_graph
        assert dyn.rebuild(1).num_edges == tiny_graph.num_edges + 1
        assert dyn.rebuild(2).num_edges == tiny_graph.num_edges + 2
        with pytest.raises(ValueError, match="version"):
            dyn.rebuild(3)

    def test_as_graph_is_uncharged(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        dyn.apply(GraphDelta(src=[3], dst=[0]))
        before = dyn.io_bytes
        g = dyn.as_graph()
        assert g.num_edges == tiny_graph.num_edges + 1
        assert dyn.io_bytes == before
        assert dyn.pending_edges == 1  # log untouched

    def test_history_is_the_rebuild_recipe(self, tiny_graph):
        dyn = DynamicGraph(tiny_graph)
        d = GraphDelta(src=[3], dst=[0])
        dyn.apply(d)
        assert dyn.history == (d,)


class TestBatchIsASnapshot:
    """A batch taken at version v keeps version v's structure whatever
    lands afterwards — its groupings are read off immutable snapshots
    (``"out"`` lazily, so possibly *after* the later deltas), never off
    the live overlay."""

    VIEWS = ("csc_indptr", "csc_eids", "csc_src", "csr_indptr", "csr_eids", "csr_dst")

    @pytest.mark.parametrize("then", ["apply", "compact", "apply+compact"])
    @pytest.mark.parametrize("pending", [False, True])
    def test_structure_equals_rebuild_of_its_version(self, small_graph, then, pending):
        rng = np.random.default_rng(5)
        dyn = DynamicGraph(small_graph)
        dyn.apply(_random_delta(rng, dyn.num_vertices, grow=2, edges=20))
        if not pending:
            dyn.compact()
        version = dyn.version
        seeds = np.array([3, 17, dyn.num_vertices - 1])
        mb = dyn.receptive_field(seeds, 2)
        read_early = mb.subgraph.csc_eids.copy()

        if "apply" in then:
            # Edges into the field's own vertices: a stale read would see them.
            dyn.apply(GraphDelta(src=mb.vertices[::-1].copy(), dst=mb.vertices.copy()))
            dyn.apply(_random_delta(rng, dyn.num_vertices, grow=1, edges=30))
        if "compact" in then:
            dyn.compact()

        want, kept, eids = induced_subgraph(dyn.rebuild(version), mb.vertices)
        cold = Graph(want.src, want.dst, want.num_vertices)
        assert np.array_equal(kept, mb.vertices) and np.array_equal(eids, mb.edge_ids)
        assert np.array_equal(mb.subgraph.src, cold.src)
        assert np.array_equal(mb.subgraph.dst, cold.dst)
        assert np.array_equal(read_early, cold.csc_eids)
        for view in self.VIEWS:
            assert np.array_equal(getattr(mb.subgraph, view), getattr(cold, view)), view
        for orientation in ("in", "out"):
            got, _ = mb.subgraph.adjacency(orientation, np.float32)
            ref, _ = cold.adjacency(orientation, np.float32)
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)


class TestCompactionKeepsTheGrouping:
    """A compaction merges the pending edges into the old CSR's
    groupings instead of re-sorting the whole graph, and carries nothing
    else of the old CSR across."""

    def test_serving_never_groups_a_compacted_sized_key_array(self, monkeypatch):
        import repro.graph.csr as csr
        from repro.dyn import mixed_workload
        from repro.frameworks import compile_forward, get_strategy
        from repro.graph import get_dataset
        from repro.registry import MODELS
        from repro.serve import InferenceServer

        ds = get_dataset("pubmed")
        shared = ds.graph()
        graph = Graph(shared.src, shared.dst, shared.num_vertices)
        features = ds.features(dim=8, seed=0)
        compiled = compile_forward(MODELS.get("gcn")(8, ds.num_classes), get_strategy("ours"))
        server = InferenceServer(graph, features, {"gcn": compiled}, execute=False)
        requests, updates = mixed_workload(
            64, qps=4000.0, num_vertices=graph.num_vertices, feature_dim=8,
            update_frac=0.3, seeds_per_request=4, tenant="gcn", zipf_alpha=0.9,
            new_vertex_prob=0.25, seed=1,
        )
        grouped = []
        group_edges = csr._group_edges

        def spy(keys, num_vertices):
            grouped.append(keys.shape[0])
            return group_edges(keys, num_vertices)

        monkeypatch.setattr(csr, "_group_edges", spy)
        report = server.serve(requests, updates=updates, compact_every=2)
        assert report.compactions >= 4
        assert graph.num_edges in grouped  # the base, grouped once, cold
        assert max(grouped) == graph.num_edges

    @pytest.mark.parametrize("had", [(), ("in",), ("out",), ("in", "out")])
    def test_only_the_groupings_it_had_cross(self, small_graph, had):
        for orientation in had:
            small_graph.incidence(orientation, np.float32)
            small_graph.adjacency(orientation, np.float64)
            small_graph.row_block(orientation, 0, 7)
        small_graph.in_degrees, small_graph.out_degrees
        dyn = DynamicGraph(small_graph)
        dyn.apply(_random_delta(np.random.default_rng(2), dyn.num_vertices, grow=2))
        csr = dyn.compact()
        assert set(csr._cache) == {("segments", o) for o in had}
        cold = Graph(csr.src, csr.dst, csr.num_vertices)
        for orientation in had:
            for got, want in zip(csr._cache["segments", orientation], cold.segments(orientation)):
                assert np.array_equal(got, want)

    def test_a_compacted_away_csr_is_free_to_go(self):
        import gc
        import weakref

        rng = np.random.default_rng(6)
        dyn = DynamicGraph(chung_lu(40, 200, seed=6))
        dyn.apply(_random_delta(rng, dyn.num_vertices, grow=1))
        old = dyn.compact()
        old.incidence("in", np.float32), old.adjacency("out", np.float32)
        old.row_block("in", 0, 5)
        batch = dyn.receptive_field(np.array([1, 7, 30]), 2)
        dyn.apply(_random_delta(rng, dyn.num_vertices, grow=1))
        new = dyn.compact()
        gone = weakref.ref(old)
        del old
        gc.collect()
        assert gone() is None
        assert set(new._cache) == {("segments", "in"), ("segments", "out")}
        # The batch's lazy "out" grouping falls back to its own edge list.
        cold = Graph(batch.subgraph.src, batch.subgraph.dst, batch.subgraph.num_vertices)
        assert np.array_equal(batch.subgraph.csr_eids, cold.csr_eids)
