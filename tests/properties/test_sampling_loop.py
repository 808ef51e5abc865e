"""The sampling layer vs naive loops, array for array.

A sampled subgraph is made from its in-edges — the kept vertices'
segments read off its parent's CSC (``repro.graph.sampling._induce``
into ``repro.graph.csr.InEdges``) — instead of sorting its own edge
list; its edge list, ``csc_eids`` and ``"out"`` grouping are built from
them on first read.  So every view it serves must *equal* the one
``Graph(sub.src, sub.dst, n)`` builds cold — ``array_equal``, never
"same up to a permutation": per-destination reduction order is what
makes a mini-batch step bit-identical to the full graph.  The induction
itself is held to a per-edge Python loop and the frontier expansion to
a set, on multigraphs with parallel edges, self-loops, isolated
vertices and one-vertex fields, for sorted, unsorted and duplicated
vertex lists — every order, the hop-ordered fields included — on a
plain graph and on a
:class:`~repro.dyn.DynamicGraph` with pending edges and new vertices.
A field's rings are prefixes of its rows, and ring *d*'s row block
holds exactly the edges the ring-graph oracle
(``tests.helpers.ring_graph``) keeps, in its order.

An append (``Graph.with_edges``, so every compaction) keeps its
receiver's groupings by merging the appended edges in; the result is
held to the same cold graph, for every subset of groupings the receiver
had materialised, and a stateful sequence of applies, compactions and
receptive fields is held to cold graphs of the rebuilt edge lists at
every version.
"""

import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.dyn import DynamicGraph, GraphDelta
from repro.graph import Graph
from repro.graph.sampling import induced_subgraph, khop_neighborhood
from repro.serve import receptive_field
from tests.helpers import ring_graph

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


def _assert_cold(graph):
    """Every view of ``graph`` equals the cold ``Graph`` of its edge
    list's, dtype included."""
    cold = Graph(graph.src, graph.dst, graph.num_vertices)
    for view in VIEWS:
        got_view, want_view = getattr(graph, view), getattr(cold, view)
        assert got_view.dtype == want_view.dtype, view
        assert np.array_equal(got_view, want_view), view
    for orientation in ("in", "out"):
        pairs = zip(graph.segments(orientation), cold.segments(orientation))
        for got_part, want_part in pairs:
            assert got_part.dtype == want_part.dtype, orientation
            assert np.array_equal(got_part, want_part), orientation


def _assert_induced(got, parent, vertices):
    sub, kept, eids = got
    want_src, want_dst, want_kept, want_eids = _loop_induce(
        parent.src, parent.dst, vertices
    )
    assert sub.src.tolist() == want_src and sub.dst.tolist() == want_dst
    assert kept.tolist() == want_kept and eids.tolist() == want_eids
    assert sub.num_vertices == len(want_kept)
    # Sorted or not, "in" came read off the parent's, not sorted here.
    assert isinstance(sub._cache.get(("segments", "in")), tuple)
    _assert_cold(sub)


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
        drawn = data.draw(multigraphs())
        vertices = data.draw(vertex_lists(drawn.num_vertices))
        # A parent only this test holds, so dropping it frees it
        # (hypothesis keeps what it drew): no collector pass.
        parent = Graph(drawn.src.copy(), drawn.dst.copy(), drawn.num_vertices)
        sub, _, _ = induced_subgraph(parent, vertices)
        src, dst = parent.src, parent.dst
        gone = weakref.ref(parent)
        del parent
        assert gone() is None
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
        # The overlay's fields carry the rebuilt graph's hop distances.
        got = dyn.receptive_field(seeds, hops)
        assert got.distance.tolist() == receptive_field(rebuilt, seeds, hops).distance.tolist()


class TestInNeighboursSet:
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


def _loop_distance(graph, seeds, hops):
    """Hop distance of every vertex within ``hops`` of ``seeds``, one
    frontier set at a time."""
    distance = dict.fromkeys(seeds.tolist(), 0)
    frontier = set(distance)
    edges = list(zip(graph.src.tolist(), graph.dst.tolist()))
    for hop in range(1, hops + 1):
        frontier = {u for u, v in edges if v in frontier} - set(distance)
        distance.update(dict.fromkeys(frontier, hop))
    return distance


class TestRings:
    """A field is laid out hop by hop: its hop distances come out of the
    k-hop expansion, its vertices are ordered by (distance, id), so ring
    *d* is a prefix of the rows, and that prefix's row block is the ring
    graph's edges: all held to loops and to the cold oracle."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rings_are_prefixes_and_blocks_match_the_oracle(self, data):
        graph = data.draw(multigraphs())
        seeds = data.draw(vertex_lists(graph.num_vertices))
        hops = data.draw(st.integers(0, 4))
        mb = receptive_field(graph, seeds, hops)
        want = _loop_distance(graph, seeds, hops)
        order = sorted(want, key=lambda v: (want[v], v))
        assert mb.vertices.tolist() == order
        assert mb.distance.tolist() == [want[v] for v in order]
        assert mb.vertices[mb.seed_index].tolist() == mb.seeds.tolist()
        sub = mb.subgraph
        _assert_cold(sub)
        for depth in range(hops + 1):
            n = int((mb.distance <= depth).sum())
            assert set(mb.vertices[:n].tolist()) == {
                v for v, d in want.items() if d <= depth
            }
            block = sub.row_block("in", 0, n)
            ring, kept = ring_graph(sub, mb.distance, depth)
            # The block's edges, in CSC order, are the ring's, segment
            # by segment in the same order.
            assert block.eids.tolist() == kept[ring.csc_eids].tolist()
            assert block.csc_indptr.tolist() == ring.csc_indptr[: n + 1].tolist()
            assert block.src.tolist() == ring.csc_src.tolist()
            assert block.dst.tolist() == ring.dst[ring.csc_eids].tolist()
            assert block.far_vertices == (block.src.max() + 1 if block.num_edges else 0)


GROUPED = st.sampled_from([(), ("in",), ("out",), ("in", "out")])


@st.composite
def receivers(draw):
    """A multigraph, or now and then a graph with no edges at all."""
    if draw(st.integers(0, 4)) == 0:
        empty = np.empty(0, dtype=np.int64)
        return Graph(empty, empty, draw(st.integers(1, 6)))
    return draw(multigraphs())


@st.composite
def appends(draw, graph):
    """``(src, dst, num_new_vertices)``: random edges (possibly none,
    possibly growth only), edges among new vertices only, or parallel
    copies of existing edges plus self-loops across the boundary."""
    n = graph.num_vertices
    shape = draw(st.sampled_from(["random", "new vertices only", "boundary"]))
    grown = draw(st.integers(1 if shape == "new vertices only" else 0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    m = draw(st.integers(0, 8))
    if shape == "random":
        src, dst = rng.integers(0, n + grown, size=(2, m))
    elif shape == "new vertices only":
        src, dst = rng.integers(n, n + grown, size=(2, m))
    else:
        again = rng.integers(0, graph.num_edges, size=m) if graph.num_edges else []
        loops = rng.integers(0, n + grown, size=draw(st.integers(0, 3)))
        src = np.concatenate([graph.src[again], loops])
        dst = np.concatenate([graph.dst[again], loops])
    return src, dst, grown


class TestAppendKeepsTheGrouping:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_cold_graph(self, data):
        """Whatever the receiver had grouped, the append's views are the
        cold graph's; the groupings it had, and only those, cross."""
        graph = data.draw(receivers())
        had = data.draw(GROUPED)
        for orientation in had:
            graph.segments(orientation)
        src, dst, grown = data.draw(appends(graph))
        appended = graph.with_edges(src, dst, num_new_vertices=grown)
        assert set(appended._cache) == {("segments", o) for o in had}
        _assert_cold(appended)


class CompactionSequence(RuleBasedStateMachine):
    """Applies, compactions, materialised groupings and receptive fields
    in any order: at every version the compacted CSR, the rebuilt graph
    and every field taken so far (at its own version) serve the views of
    cold graphs.  ``rebuild`` appends to the base, so it inherits too:
    the oracle is the cold construction, not ``rebuild``."""

    def __init__(self):
        super().__init__()
        self.fields = []

    @initialize(base=multigraphs(), had=GROUPED)
    def start(self, base, had):
        for orientation in had:
            base.segments(orientation)
        self.dyn = DynamicGraph(base)

    @rule(grown=st.integers(0, 2), m=st.integers(0, 8), seed=st.integers(0, 2 ** 31))
    def apply(self, grown, m, seed):
        grown = grown or int(m == 0)  # an empty delta mutates nothing
        space = self.dyn.num_vertices + grown
        src, dst = np.random.default_rng(seed).integers(0, space, size=(2, m))
        self.dyn.apply(GraphDelta(src, dst, num_new_vertices=grown))

    @rule()
    def compact(self):
        self.dyn.compact()

    @rule(orientation=st.sampled_from(["in", "out"]))
    def group(self, orientation):
        self.dyn.csr.segments(orientation)

    @rule(data=st.data(), hops=st.integers(0, 2))
    def receptive_field(self, data, hops):
        seeds = data.draw(vertex_lists(self.dyn.num_vertices))
        self.fields.append((self.dyn.version, self.dyn.receptive_field(seeds, hops)))

    @invariant()
    def views_are_the_cold_graphs(self):
        csr, rebuilt = self.dyn.csr, self.dyn.rebuild()
        assert np.array_equal(csr.src, rebuilt.src[: csr.num_edges])
        assert np.array_equal(csr.dst, rebuilt.dst[: csr.num_edges])
        _assert_cold(csr)
        _assert_cold(rebuilt)
        for version, mb in self.fields:
            edges = self.dyn.rebuild(version)
            cold = Graph(edges.src, edges.dst, edges.num_vertices)
            want, kept, eids = induced_subgraph(cold, mb.vertices)
            assert np.array_equal(kept, mb.vertices)
            assert np.array_equal(eids, mb.edge_ids)
            assert np.array_equal(want.src, mb.subgraph.src)
            assert np.array_equal(want.dst, mb.subgraph.dst)
            _assert_cold(mb.subgraph)


CompactionSequence.TestCase.settings = settings(
    max_examples=60, stateful_step_count=15, deadline=None
)
TestCompactionSequence = CompactionSequence.TestCase
