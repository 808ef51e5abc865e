"""A sampled batch, built lazily, vs the eager construction it replaced.

A batch is made from its in-edges (``repro.graph.csr.InEdges``): its
ring blocks are prefix views of one in-CSC, each ring operator builds
its own index arrays and unit entries, and the edge list, edge ids and
``"out"`` grouping wait for a first read.  None of that may show in a
value.  Every block attribute, every operator's
``indptr`` / ``indices`` / ``data`` / shape and the order it reads an
edge tensor in are held to ``tests.helpers.reference_row_block`` /
``reference_operator`` over ``reference_sample`` / ``reference_induce``
— today's arrays, built eagerly with parent-length scratch — on random
multigraphs (parallel edges, self-loops, isolated vertices), random
seed sets and hops 0-3, for a plain graph and a ``DynamicGraph`` with
pending edges and new vertices, and for ``induced_subgraph`` in any
vertex order.  After first use the edge list, ``edge_ids``, both
groupings and the degrees equal the reference too, also when the parent
was collected before that first use.
"""

import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dyn import DynamicGraph, GraphDelta
from repro.graph import Graph
from repro.graph.sampling import _sample, induced_subgraph
from tests.helpers import (
    reference_induce,
    reference_operator,
    reference_row_block,
    reference_sample,
)

VIEWS = ("src", "dst", "csc_indptr", "csc_eids", "csc_src", "csr_indptr",
         "csr_eids", "csr_dst", "in_degrees", "out_degrees")


@st.composite
def multigraphs(draw):
    """Random endpoints (so parallel edges and self-loops arise), some
    edges repeated on purpose, vertices above the largest endpoint
    isolated."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    m = draw(st.integers(0, 4 * n))
    src, dst = rng.integers(0, n, size=(2, m))
    again = rng.integers(0, m, size=draw(st.integers(0, 4))) if m else []
    return Graph(
        np.concatenate([src, src[again]]), np.concatenate([dst, dst[again]]),
        n + draw(st.integers(0, 3)),
    )


@st.composite
def dynamic_graphs(draw):
    """A ``DynamicGraph`` with pending edges, some onto new vertices,
    maybe compacted in between."""
    dyn = DynamicGraph(draw(multigraphs()))
    for _ in range(draw(st.integers(1, 3))):
        grown = draw(st.integers(0, 2))
        space = dyn.num_vertices + grown
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
        m = draw(st.integers(0 if grown else 1, 10))
        dyn.apply(GraphDelta(*rng.integers(0, space, size=(2, m)), num_new_vertices=grown))
        if draw(st.booleans()):
            dyn.compact()
    return dyn


def seed_sets(draw, num_vertices):
    """Sorted, unsorted or duplicated, never empty."""
    ids = draw(st.lists(st.integers(0, num_vertices - 1), min_size=1, max_size=8))
    shape = draw(st.sampled_from(["sorted", "unsorted", "duplicated"]))
    if shape == "sorted":
        ids = sorted(set(ids))
    elif shape == "duplicated":
        ids = ids + ids[:1]
    return np.asarray(ids, dtype=np.int64)


def _same(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape and np.array_equal(got, want), what


def _assert_blocks(sub, want_sub, distance):
    """Every ring's in-block and every (ring, inner ring) out-block, as
    ``Engine._begin`` cuts them, and their operators."""
    rows = [int(np.searchsorted(distance, d, side="right")) for d in range(int(distance[-1]) + 1)]
    cuts = [("in", hi, None) for hi in rows]
    cuts += [("out", hi, w) for hi in rows for w in rows if w <= hi]
    for orientation, hi, within in cuts:
        block = sub.row_block(orientation, 0, hi, within=within)
        want = reference_row_block(want_sub, orientation, 0, hi, within)
        for name, value in want.items():
            got = getattr(block, name)
            if isinstance(value, np.ndarray):
                _same(got, value, (orientation, hi, within, name))
            else:
                assert got == value, (orientation, hi, within, name)
        for dtype in (np.float32, np.float64):
            for heads in (1, 2):
                operator, order = block.adjacency(orientation, dtype, heads)
                want_op, want_order = reference_operator(want, orientation, dtype, heads)
                for part in ("indptr", "indices", "data"):
                    _same(getattr(operator, part), getattr(want_op, part), (hi, within, part))
                assert operator.shape == want_op.shape
                _same(order, want_order, (hi, within, "order"))


def _assert_first_use(sub, want_sub, edge_ids, want_ids):
    """The edge list, the edge ids and both groupings, built on first use."""
    assert sub.num_edges == want_sub.num_edges
    _same(sub.in_degrees, want_sub.in_degrees, "in_degrees")
    _same(sub.out_degrees, want_sub.out_degrees, "out_degrees")
    _same(edge_ids(), want_ids, "edge_ids")
    for view in VIEWS:
        _same(getattr(sub, view), getattr(want_sub, view), view)
    for orientation in ("in", "out"):
        for got, want in zip(sub.segments(orientation), want_sub.segments(orientation)):
            _same(got, want, orientation)


def _assert_batch(mb, want):
    field, distance, want_sub, want_ids = want
    _same(mb.vertices, field, "vertices")
    _same(mb.distance, distance, "distance")
    assert mb.subgraph.num_edges == want_sub.num_edges
    _assert_blocks(mb.subgraph, want_sub, distance)
    _assert_first_use(mb.subgraph, want_sub, lambda: mb.edge_ids, want_ids)


class TestSampledBatchVsEagerReference:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_plain_graph(self, data):
        graph = data.draw(multigraphs())
        seeds = seed_sets(data.draw, graph.num_vertices)
        hops = data.draw(st.integers(0, 3))
        layouts = ((graph, 0),)
        _assert_batch(
            _sample(layouts, graph.num_vertices, seeds, hops),
            reference_sample(layouts, graph.num_vertices, seeds, hops),
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_dynamic_graph(self, data):
        dyn = data.draw(dynamic_graphs())
        seeds = np.unique(seed_sets(data.draw, dyn.num_vertices))
        hops = data.draw(st.integers(0, 3))
        want = reference_sample(dyn._layouts(), dyn.num_vertices, seeds, hops)
        _assert_batch(dyn.receptive_field(seeds, hops), want)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_induced_subgraph_in_any_order(self, data):
        graph = data.draw(multigraphs())
        vertices = seed_sets(data.draw, graph.num_vertices)
        sub, kept, eids = induced_subgraph(graph, vertices)
        want_sub, want_kept, want_eids = reference_induce(
            ((graph, 0),), graph.num_vertices, vertices
        )
        _same(kept, want_kept, "kept")
        n = sub.num_vertices
        _assert_blocks(sub, want_sub, np.zeros(n, dtype=np.int64))
        _assert_first_use(sub, want_sub, lambda: eids, want_eids)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_parent_collected_before_first_use(self, data):
        drawn = data.draw(multigraphs())
        seeds = seed_sets(data.draw, drawn.num_vertices)
        hops = data.draw(st.integers(0, 3))
        # A parent only this test holds (hypothesis keeps what it drew).
        parent = Graph(drawn.src.copy(), drawn.dst.copy(), drawn.num_vertices)
        layouts = ((parent, 0),)
        want = reference_sample(layouts, parent.num_vertices, seeds, hops)
        mb = _sample(layouts, parent.num_vertices, seeds, hops)
        gone = weakref.ref(parent)
        # No cycle holds a graph, so the parent dies on ``del`` alone:
        # only a batch that kept a reference could keep it alive.
        del parent, layouts
        assert gone() is None
        _assert_first_use(mb.subgraph, want[2], lambda: mb.edge_ids, want[3])
        _assert_blocks(mb.subgraph, want[2], want[1])
