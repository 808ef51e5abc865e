"""The sampling layer vs naive loops, array for array.

A sampled subgraph inherits its parent's groupings instead of sorting
its own edge list (``repro.graph.sampling._inherit``), so every view it
serves must *equal* the one ``Graph(sub.src, sub.dst, n)`` builds cold —
``array_equal``, never "same up to a permutation": per-destination
reduction order is what makes a mini-batch step bit-identical to the
full graph.  The induction itself is held to a per-edge Python loop and
the frontier expansion to a set, on multigraphs with parallel edges,
self-loops, isolated vertices and one-vertex fields, for sorted,
unsorted and duplicated vertex lists, on a plain graph and on a
:class:`~repro.dyn.DynamicGraph` with pending edges and new vertices.
"""

import gc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dyn import DynamicGraph, GraphDelta
from repro.graph import Graph
from repro.graph.sampling import in_neighbours, induced_subgraph, khop_neighborhood

VIEWS = ("csc_indptr", "csc_eids", "csc_src", "csr_indptr", "csr_eids",
         "csr_dst", "in_degrees", "out_degrees")


@st.composite
def multigraphs(draw):
    """A small directed multigraph: random endpoints (so parallel edges
    and self-loops arise), some edges repeated on purpose, vertices
    above the largest endpoint isolated."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    m = draw(st.integers(0, 3 * n))
    src, dst = rng.integers(0, n, size=(2, m))
    again = rng.integers(0, m, size=draw(st.integers(0, 4))) if m else []
    isolated = draw(st.integers(0, 3))
    return Graph(
        np.concatenate([src, src[again]]), np.concatenate([dst, dst[again]]),
        n + isolated,
    )


@st.composite
def vertex_lists(draw, num_vertices):
    """Sorted, unsorted or duplicated, never empty; often one vertex."""
    ids = draw(st.lists(st.integers(0, num_vertices - 1), min_size=1, max_size=16))
    shape = draw(st.sampled_from(["sorted", "unsorted", "duplicated"]))
    if shape == "sorted":
        ids = sorted(set(ids))
    elif shape == "duplicated":
        ids = ids + ids[: draw(st.integers(1, len(ids)))]
    return np.asarray(ids, dtype=np.int64)


def _loop_induce(src, dst, vertices):
    """``(src, dst, kept, eids)`` one edge at a time."""
    kept = list(dict.fromkeys(vertices.tolist()))
    new_id = {v: i for i, v in enumerate(kept)}
    sub_src, sub_dst, eids = [], [], []
    for e, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
        if u in new_id and v in new_id:
            sub_src.append(new_id[u])
            sub_dst.append(new_id[v])
            eids.append(e)
    return sub_src, sub_dst, kept, eids


def _assert_induced(got, parent, vertices):
    sub, kept, eids = got
    want_src, want_dst, want_kept, want_eids = _loop_induce(
        parent.src, parent.dst, vertices
    )
    assert sub.src.tolist() == want_src and sub.dst.tolist() == want_dst
    assert kept.tolist() == want_kept and eids.tolist() == want_eids
    assert sub.num_vertices == len(want_kept)
    cold = Graph(sub.src, sub.dst, sub.num_vertices)
    for view in VIEWS:
        got_view, want_view = getattr(sub, view), getattr(cold, view)
        assert got_view.dtype == want_view.dtype, view
        assert np.array_equal(got_view, want_view), view
    for orientation in ("in", "out"):
        pairs = zip(sub.segments(orientation), cold.segments(orientation))
        for got_part, want_part in pairs:
            assert np.array_equal(got_part, want_part), orientation


class TestInducedSubgraphLoop:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_static_parent(self, data):
        parent = data.draw(multigraphs())
        vertices = data.draw(vertex_lists(parent.num_vertices))
        _assert_induced(induced_subgraph(parent, vertices), parent, vertices)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_out_grouping_survives_the_parent(self, data):
        """``"out"`` is inherited on first use; with the parent gone by
        then it is grouped from the edge list — the same arrays."""
        parent = data.draw(multigraphs())
        vertices = data.draw(vertex_lists(parent.num_vertices))
        sub, _, _ = induced_subgraph(parent, vertices)
        src, dst = parent.src, parent.dst
        del parent
        gc.collect()
        cold = Graph(sub.src, sub.dst, sub.num_vertices)
        assert np.array_equal(sub.csr_indptr, cold.csr_indptr)
        assert np.array_equal(sub.csr_eids, cold.csr_eids)
        assert sub.src.tolist() == _loop_induce(src, dst, vertices)[0]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_dynamic_parent_with_pending_edges(self, data):
        """The overlay walks two layouts (compacted CSR, pending edges)
        and must match the graph rebuilt from scratch; a compaction in
        the middle and vertices the CSR has never seen included."""
        dyn = DynamicGraph(data.draw(multigraphs()))
        for _ in range(data.draw(st.integers(1, 3))):
            grown = data.draw(st.integers(0, 2))
            space = dyn.num_vertices + grown
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
            m = data.draw(st.integers(0 if grown else 1, 8))
            src, dst = rng.integers(0, space, size=(2, m))
            dyn.apply(GraphDelta(src, dst, num_new_vertices=grown))
            if data.draw(st.booleans()):
                dyn.compact()
        vertices = data.draw(vertex_lists(dyn.num_vertices))
        rebuilt = dyn.rebuild()
        _assert_induced(dyn.induce(vertices), rebuilt, vertices)
        seeds = vertices[: data.draw(st.integers(1, len(vertices)))]
        hops = data.draw(st.integers(0, 3))
        assert np.array_equal(
            dyn.neighborhood(seeds, hops), khop_neighborhood(rebuilt, seeds, hops)
        )


class TestInNeighboursSet:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_set_reference(self, data):
        graph = data.draw(multigraphs())
        frontier = data.draw(vertex_lists(graph.num_vertices))
        inside = set(frontier.tolist())
        want = sorted({
            u for u, v in zip(graph.src.tolist(), graph.dst.tolist()) if v in inside
        })
        got = in_neighbours(graph, frontier)
        assert got.dtype == np.int64 and got.tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_khop_matches_set_closure(self, data):
        graph = data.draw(multigraphs())
        seeds = data.draw(vertex_lists(graph.num_vertices))
        hops = data.draw(st.integers(0, 4))
        visited = frontier = set(seeds.tolist())
        edges = list(zip(graph.src.tolist(), graph.dst.tolist()))
        for _ in range(hops):
            frontier = {u for u, v in edges if v in frontier} - visited
            visited = visited | frontier
        got = khop_neighborhood(graph, seeds, hops)
        assert got.dtype == np.int64 and got.tolist() == sorted(visited)
