"""Unit tests for the Graph container (COO/CSR/CSC views)."""

import numpy as np
import pytest

from repro.graph import Graph


class TestConstruction:
    def test_basic_counts(self, tiny_graph):
        assert tiny_graph.num_vertices == 4
        assert tiny_graph.num_edges == 6

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            Graph(np.array([0, 1]), np.array([0]), 3)

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError, match="endpoints"):
            Graph(np.array([0, 5]), np.array([1, 1]), 3)
        with pytest.raises(ValueError, match="endpoints"):
            Graph(np.array([-1]), np.array([0]), 3)

    def test_rejects_bad_vertex_count(self):
        with pytest.raises(ValueError, match="positive"):
            Graph(np.array([], dtype=int), np.array([], dtype=int), 0)

    def test_rejects_2d_arrays(self):
        with pytest.raises(ValueError, match="1-D"):
            Graph(np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=int), 3)

    def test_empty_graph_allowed(self):
        g = Graph(np.array([], dtype=int), np.array([], dtype=int), 5)
        assert g.num_edges == 0
        assert g.in_degrees.tolist() == [0] * 5


class TestDegrees:
    def test_in_degrees(self, tiny_graph):
        assert tiny_graph.in_degrees.tolist() == [1, 2, 3, 0]

    def test_out_degrees(self, tiny_graph):
        assert tiny_graph.out_degrees.tolist() == [3, 1, 2, 0]

    def test_degree_sums_equal_edges(self, small_graph):
        assert int(small_graph.in_degrees.sum()) == small_graph.num_edges
        assert int(small_graph.out_degrees.sum()) == small_graph.num_edges


class TestCSCView:
    def test_groups_by_destination(self, tiny_graph):
        indptr, eids = tiny_graph.csc_indptr, tiny_graph.csc_eids
        for v in range(tiny_graph.num_vertices):
            segment = eids[indptr[v]:indptr[v + 1]]
            assert all(tiny_graph.dst[e] == v for e in segment)

    def test_covers_all_edges_once(self, small_graph):
        assert sorted(small_graph.csc_eids.tolist()) == list(
            range(small_graph.num_edges)
        )

    def test_indptr_monotone(self, small_graph):
        assert (np.diff(small_graph.csc_indptr) >= 0).all()
        assert small_graph.csc_indptr[0] == 0
        assert small_graph.csc_indptr[-1] == small_graph.num_edges

    def test_csc_src_alignment(self, tiny_graph):
        assert (
            tiny_graph.csc_src == tiny_graph.src[tiny_graph.csc_eids]
        ).all()

    def test_stable_edge_order_within_segment(self, tiny_graph):
        indptr, eids = tiny_graph.csc_indptr, tiny_graph.csc_eids
        for v in range(tiny_graph.num_vertices):
            seg = eids[indptr[v]:indptr[v + 1]]
            assert list(seg) == sorted(seg)


class TestCSRView:
    def test_groups_by_source(self, tiny_graph):
        indptr, eids = tiny_graph.csr_indptr, tiny_graph.csr_eids
        for v in range(tiny_graph.num_vertices):
            segment = eids[indptr[v]:indptr[v + 1]]
            assert all(tiny_graph.src[e] == v for e in segment)

    def test_csr_dst_alignment(self, small_graph):
        assert (
            small_graph.csr_dst == small_graph.dst[small_graph.csr_eids]
        ).all()


class TestDerivedGraphs:
    def test_reverse_swaps_endpoints(self, tiny_graph):
        r = tiny_graph.reverse()
        assert (r.src == tiny_graph.dst).all()
        assert (r.dst == tiny_graph.src).all()
        assert (r.in_degrees == tiny_graph.out_degrees).all()

    def test_add_self_loops_appends(self, tiny_graph):
        g = tiny_graph.add_self_loops()
        assert g.num_edges == tiny_graph.num_edges + tiny_graph.num_vertices
        # Existing edge ids preserved as a prefix.
        assert (g.src[: tiny_graph.num_edges] == tiny_graph.src).all()
        loops = slice(tiny_graph.num_edges, None)
        assert (g.src[loops] == g.dst[loops]).all()

    def test_symmetrize_doubles_edges(self, tiny_graph):
        g = tiny_graph.symmetrize()
        assert g.num_edges == 2 * tiny_graph.num_edges
        assert (g.in_degrees == g.out_degrees).all() is not None
        assert (
            g.in_degrees == tiny_graph.in_degrees + tiny_graph.out_degrees
        ).all()

    def test_stats_roundtrip(self, small_graph):
        s = small_graph.stats()
        assert s.num_vertices == small_graph.num_vertices
        assert s.num_edges == small_graph.num_edges
        assert (s.in_degrees == small_graph.in_degrees).all()


class TestWithEdges:
    def test_appends_with_highest_edge_ids(self, tiny_graph):
        g = tiny_graph.with_edges(np.array([3, 1]), np.array([0, 3]))
        assert g.num_edges == tiny_graph.num_edges + 2
        # Existing edges keep their ids as a prefix.
        assert (g.src[: tiny_graph.num_edges] == tiny_graph.src).all()
        assert (g.dst[: tiny_graph.num_edges] == tiny_graph.dst).all()
        assert g.src[-2:].tolist() == [3, 1]
        assert g.dst[-2:].tolist() == [0, 3]

    def test_grows_vertex_space_first(self, tiny_graph):
        g = tiny_graph.with_edges(
            np.array([4, 5]), np.array([0, 4]), num_new_vertices=2
        )
        assert g.num_vertices == tiny_graph.num_vertices + 2
        assert g.in_degrees[4] == 1 and g.out_degrees[5] == 1

    def test_empty_append_can_grow_only(self, tiny_graph):
        empty = np.array([], dtype=np.int64)
        g = tiny_graph.with_edges(empty, empty, num_new_vertices=3)
        assert g.num_vertices == tiny_graph.num_vertices + 3
        assert g.num_edges == tiny_graph.num_edges

    def test_source_graph_untouched(self, tiny_graph):
        src0, dst0 = tiny_graph.src.copy(), tiny_graph.dst.copy()
        tiny_graph.with_edges(np.array([0]), np.array([3]))
        assert (tiny_graph.src == src0).all()
        assert (tiny_graph.dst == dst0).all()

    def test_range_validation(self, tiny_graph):
        with pytest.raises(ValueError, match="must lie in"):
            tiny_graph.with_edges(np.array([4]), np.array([0]))
        with pytest.raises(ValueError, match="must lie in"):
            tiny_graph.with_edges(np.array([-1]), np.array([0]))
        with pytest.raises(ValueError, match="equal length"):
            tiny_graph.with_edges(np.array([0]), np.array([0, 1]))
        with pytest.raises(ValueError, match="non-negative"):
            tiny_graph.with_edges(
                np.array([0]), np.array([1]), num_new_vertices=-1
            )

    def test_self_loop_policy(self, tiny_graph):
        with pytest.raises(ValueError, match="self-loop"):
            tiny_graph.with_edges(
                np.array([2]), np.array([2]), allow_self_loops=False
            )
        # Permissive default accepts the same batch.
        tiny_graph.with_edges(np.array([2]), np.array([2]))

    def test_duplicate_policy(self, tiny_graph):
        # 0→1 already exists in tiny_graph.
        with pytest.raises(ValueError, match="duplicate"):
            tiny_graph.with_edges(
                np.array([0]), np.array([1]), allow_duplicates=False
            )
        with pytest.raises(ValueError, match="within the batch"):
            tiny_graph.with_edges(
                np.array([3, 3]), np.array([0, 0]), allow_duplicates=False
            )
        tiny_graph.with_edges(
            np.array([3]), np.array([0]), allow_duplicates=False
        )

    def test_csc_and_csr_views_rebuilt(self, tiny_graph):
        g = tiny_graph.with_edges(np.array([3]), np.array([1]))
        # New edge visible through both lazily built index structures.
        lo, hi = g.csc_indptr[1], g.csc_indptr[2]
        assert 3 in g.csc_src[lo:hi].tolist()
        assert int(g.csc_eids[lo:hi].max()) == g.num_edges - 1
        lo, hi = g.csr_indptr[3], g.csr_indptr[4]
        assert g.csr_dst[lo:hi].tolist() == [1]


class TestCachedSegmentOperators:
    """Incidence operators and row blocks live in the graph's cache:
    built once, never shared with a derived graph (an append inherits
    groupings only)."""

    def test_incidence_is_cached_per_orientation_and_dtype(self, small_graph):
        op = small_graph.incidence("in", np.float32)
        assert small_graph.incidence("in", "float32") is op
        assert small_graph.incidence("out", np.float32) is not op
        wide = small_graph.incidence("in", np.float64)
        assert wide is not op and wide.dtype == np.float64
        assert op.shape == (small_graph.num_vertices, small_graph.num_edges)
        # Row v holds ones at the ids of v's in-edges, in CSC order.
        assert np.array_equal(op.indptr, small_graph.csc_indptr)
        assert np.array_equal(op.indices, small_graph.csc_eids)
        assert op.dtype == np.float32 and (op.data == 1).all()
        with pytest.raises(ValueError, match="orientation"):
            small_graph.incidence("sideways", np.float32)

    def test_row_block_is_cached_per_orientation_and_range(self, small_graph):
        block = small_graph.row_block("in", 2, 9)
        assert small_graph.row_block("in", 2, 9) is block
        assert small_graph.row_block("out", 2, 9) is not block
        assert small_graph.row_block("in", 2, 10) is not block
        # The block's operator is its own: identity permutation, rebased.
        op = block.incidence("in", np.float64)
        assert block.incidence("in", np.float64) is op
        assert op.shape == (7, block.num_edges)
        assert np.array_equal(op.indices, np.arange(block.num_edges))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_row_block_within_is_the_ring_edges_in_csr_order(self, seed):
        from repro.exec.kernels import gather_kernel
        from repro.graph import chung_lu

        graph = chung_lu(60, 400, seed=seed)
        place = np.empty(graph.num_edges, dtype=np.int64)
        place[graph.csc_eids] = np.arange(graph.num_edges)
        rng = np.random.default_rng(seed)
        for within in (0, 1, 7, 30, 60):
            inner = graph.row_block("in", 0, within)
            for hi in (0, 4, 31, 60):
                block = graph.row_block("out", 0, hi, within=within)
                assert graph.row_block("out", 0, hi, within=within) is block
                assert block.num_edges == inner.num_edges
                assert np.array_equal(block.eids, inner.eids)
                # Each source's kept out-edges, in the graph's CSR order,
                # named by their place in the CSC grouping.
                for u in range(hi):
                    segment = graph.csr_eids[graph.csr_indptr[u]:graph.csr_indptr[u + 1]]
                    want = [p for p in place[segment] if p < inner.num_edges]
                    got = block.csr_eids[block.csr_indptr[u]:block.csr_indptr[u + 1]]
                    assert list(got) == want
                # A sum over out-edges of values that are zero past the
                # ring edges: the whole graph's sums, bit for bit.
                x = rng.normal(size=(inner.num_edges, 3)).astype(np.float32)
                whole = np.zeros((graph.num_edges, 3), dtype=np.float32)
                whole[inner.eids] = x
                got, _ = gather_kernel("sum", block, x, orientation="out")
                want, _ = gather_kernel("sum", graph, whole, orientation="out")
                assert got.tobytes() == want[:hi].tobytes()
        with pytest.raises(ValueError, match="within"):
            graph.row_block("in", 0, 5, within=3)

    def test_derived_graphs_start_with_empty_caches(self, small_graph):
        from repro.dyn import DynamicGraph, GraphDelta

        small_graph.incidence("in", np.float32)
        small_graph.row_block("out", 0, 3)
        dyn = DynamicGraph(small_graph)
        dyn.apply(GraphDelta(np.array([0]), np.array([1])))
        derived = {
            "with_edges": small_graph.with_edges(np.array([0]), np.array([1])),
            "reverse": small_graph.reverse(),
            "compact": dyn.compact(),
        }
        # An append keeps its receiver's groupings and nothing else.
        groupings = {("segments", "in"), ("segments", "out")}
        for name, graph in derived.items():
            assert graph is not small_graph, name
            assert set(graph._cache) == (set() if name == "reverse" else groupings), name
        # ...and build their own: the appended edge is in the operator.
        grown = derived["compact"]
        assert grown.incidence("in", np.float32).shape == (
            grown.num_vertices, small_graph.num_edges + 1
        )
