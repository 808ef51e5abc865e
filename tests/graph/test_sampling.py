"""Tests for subgraph sampling (vs. networkx references where useful)."""

import gc
import weakref

import networkx as nx
import numpy as np
import pytest

from repro.graph import Graph, chung_lu
from repro.graph.sampling import (
    induced_subgraph,
    khop_neighborhood,
    plan_minibatches,
    random_vertex_batches,
)


class TestInducedSubgraph:
    def test_keeps_only_internal_edges(self, small_graph):
        nodes = np.array([0, 1, 2, 3, 4, 5])
        sub, kept, eids = induced_subgraph(small_graph, nodes)
        assert sub.num_vertices == 6
        node_set = set(kept.tolist())
        for e in eids:
            assert int(small_graph.src[e]) in node_set
            assert int(small_graph.dst[e]) in node_set
        # Every internal edge retained.
        expected = sum(
            1
            for s, d in zip(small_graph.src, small_graph.dst)
            if s in node_set and d in node_set
        )
        assert sub.num_edges == expected

    def test_relabeling_consistent(self, small_graph):
        nodes = np.array([7, 3, 11])
        sub, kept, eids = induced_subgraph(small_graph, nodes)
        assert kept.tolist() == [7, 3, 11]
        for new_e, old_e in enumerate(eids):
            assert kept[sub.src[new_e]] == small_graph.src[old_e]
            assert kept[sub.dst[new_e]] == small_graph.dst[old_e]

    def test_duplicates_removed(self, small_graph):
        sub, kept, _ = induced_subgraph(small_graph, np.array([2, 2, 5]))
        assert kept.tolist() == [2, 5]
        assert sub.num_vertices == 2

    def test_out_of_range_rejected(self, small_graph):
        with pytest.raises(ValueError, match="out of range"):
            induced_subgraph(small_graph, np.array([10**6]))

    def test_full_set_is_identity(self, small_graph):
        nodes = np.arange(small_graph.num_vertices)
        sub, kept, eids = induced_subgraph(small_graph, nodes)
        assert sub.num_edges == small_graph.num_edges
        assert (sub.src == small_graph.src).all()

    def test_empty_vertex_set_raises(self, small_graph):
        # Regression: the seed implementation returned a phantom
        # 1-vertex graph (max(kept.size, 1)) for an empty input, so
        # sub.num_vertices != len(kept) desynchronised feature slicing.
        with pytest.raises(ValueError, match="empty vertex set"):
            induced_subgraph(small_graph, np.array([], dtype=np.int64))

    def test_subgraph_vertex_count_always_matches_kept(self, small_graph):
        # The invariant the phantom vertex violated.
        for vertices in ([3], [5, 5, 5], [0, 1], list(range(20))):
            sub, kept, _ = induced_subgraph(small_graph, np.array(vertices))
            assert sub.num_vertices == len(kept)


class TestKhopNeighborhood:
    def _nx_reference(self, graph, seeds, hops):
        g = nx.DiGraph()
        g.add_nodes_from(range(graph.num_vertices))
        g.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
        visited = set(int(s) for s in seeds)
        frontier = set(visited)
        for _ in range(hops):
            nxt = set()
            for v in frontier:
                nxt.update(g.predecessors(v))
            frontier = nxt - visited
            visited |= frontier
        return sorted(visited)

    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_matches_networkx(self, small_graph, hops):
        seeds = np.array([0, 5])
        got = khop_neighborhood(small_graph, seeds, hops)
        assert got.tolist() == self._nx_reference(small_graph, seeds, hops)

    def test_zero_hops_is_seed_set(self, small_graph):
        got = khop_neighborhood(small_graph, np.array([3, 1, 3]), 0)
        assert got.tolist() == [1, 3]

    def test_monotone_in_hops(self, small_graph):
        seeds = np.array([2])
        prev = set()
        for hops in range(4):
            cur = set(khop_neighborhood(small_graph, seeds, hops).tolist())
            assert prev <= cur
            prev = cur

    def test_receptive_field_sufficiency(self):
        # Computing L-layer embeddings of the seeds on the L-hop induced
        # subgraph must equal the full-graph embeddings — for models
        # whose edge semantics depend only on in-degrees *inside* the
        # field (GraphSAGE's mean).  GCN's symmetric norm reads
        # out-degrees of boundary vertices and is only approximate on
        # sampled subgraphs (the Cluster-GCN approximation).
        from repro.frameworks import compile_forward, get_strategy
        from repro.models import GraphSAGE
        from repro.exec import Engine

        graph = chung_lu(50, 200, seed=3)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(50, 6))
        model = GraphSAGE(6, (5, 4))
        compiled = compile_forward(model, get_strategy("ours"))

        def embed(g, f):
            engine = Engine(g, precision="float64")
            arrays = model.make_inputs(g, f)
            arrays.update(model.init_params(1))
            env = engine.bind(compiled.forward, arrays)
            return engine.run_plan(compiled.plan, env)[compiled.forward.outputs[0]]

        full = embed(graph, feats)
        seeds = np.array([4, 17, 30])
        field = khop_neighborhood(graph, seeds, hops=2)
        sub, kept, _ = induced_subgraph(graph, field)
        sub_out = embed(sub, feats[kept])
        pos = {int(v): i for i, v in enumerate(kept)}
        for s in seeds:
            assert np.allclose(sub_out[pos[int(s)]], full[s], rtol=1e-9), s


def _khop_neighborhood_reference(graph, seeds, hops):
    """Pre-vectorisation implementation (per-vertex segment slicing):
    the oracle of the fuzzed equivalence tests below."""
    frontier = np.unique(np.asarray(seeds, dtype=np.int64))
    visited = np.zeros(graph.num_vertices, dtype=bool)
    visited[frontier] = True
    indptr = graph.csc_indptr
    src_by_dst = graph.csc_src
    for _ in range(hops):
        if frontier.size == 0:
            break
        segments = [
            src_by_dst[indptr[v]:indptr[v + 1]] for v in frontier
        ]
        neighbours = (
            np.unique(np.concatenate(segments))
            if segments
            else np.array([], dtype=np.int64)
        )
        fresh = neighbours[~visited[neighbours]]
        visited[fresh] = True
        frontier = fresh
    return np.nonzero(visited)[0].astype(np.int64)


class TestKhopVectorizedEquivalence:
    """The vectorised frontier expansion must match the old per-vertex
    slicing path on awkward topologies (isolated vertices, self-loops,
    multi-edges) and on fuzzed graphs."""

    def _assert_equivalent(self, graph, seeds, hops):
        got = khop_neighborhood(graph, seeds, hops)
        want = _khop_neighborhood_reference(graph, seeds, hops)
        assert got.tolist() == want.tolist(), (seeds.tolist(), hops)

    def test_isolated_self_loop_multi_edge(self, tiny_graph):
        # tiny_graph: parallel 0→1 edges, 2→2 self-loop, isolated 3.
        for seeds in ([3], [2], [1, 3], [0, 1, 2, 3]):
            for hops in range(4):
                self._assert_equivalent(tiny_graph, np.array(seeds), hops)

    def test_empty_frontier_terminates(self):
        # No edges at all: every frontier expansion is empty.
        g = Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5)
        self._assert_equivalent(g, np.array([0, 4]), 3)

    def test_fuzzed_small_graphs(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, 4 * n))
            src = rng.integers(0, n, size=m)
            dst = rng.integers(0, n, size=m)  # self-loops/multi-edges arise
            g = Graph(src, dst, n)
            seeds = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            self._assert_equivalent(g, seeds, int(rng.integers(0, 4)))

    @pytest.mark.slow
    def test_fuzzed_heavy_tail(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(50, 400))
            g = chung_lu(n, int(rng.integers(n, 8 * n)), seed=trial)
            seeds = rng.choice(n, size=int(rng.integers(1, n // 2 + 1)),
                               replace=False)
            self._assert_equivalent(g, seeds, int(rng.integers(0, 5)))


class TestVertexBatches:
    def test_partitions_everything_once(self):
        rng = np.random.default_rng(0)
        batches = list(random_vertex_batches(103, 20, rng=rng))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(103))
        assert all(len(b) == 20 for b in batches[:-1])
        assert len(batches[-1]) == 3

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(random_vertex_batches(10, 0, rng=np.random.default_rng(0)))

    def test_empty_vertex_set_raises(self):
        # Regression: the seed implementation silently yielded nothing,
        # giving downstream trainers a zero-step "epoch"; the contract
        # now guarantees >= 1 step per epoch or a loud error.
        with pytest.raises(ValueError, match="num_vertices must be positive"):
            list(random_vertex_batches(0, 4, rng=np.random.default_rng(0)))

    def test_oversize_batch_is_single_full_batch(self):
        rng = np.random.default_rng(3)
        batches = list(random_vertex_batches(7, 100, rng=rng))
        assert len(batches) == 1
        assert sorted(batches[0].tolist()) == list(range(7))

    def test_batches_never_empty(self):
        rng = np.random.default_rng(4)
        for n, b in [(1, 1), (5, 5), (10, 3), (10, 10), (11, 4)]:
            batches = list(random_vertex_batches(n, b, rng=rng))
            assert all(len(batch) > 0 for batch in batches)
            assert sum(len(batch) for batch in batches) == n


class TestPlanMinibatches:
    def test_schedule_covers_vertices_once_as_seeds(self, small_graph):
        rng = np.random.default_rng(0)
        schedule = list(plan_minibatches(small_graph, 16, 2, rng=rng))
        seeds = np.concatenate([mb.seeds for mb in schedule])
        assert sorted(seeds.tolist()) == list(range(small_graph.num_vertices))

    def test_field_contains_seeds_and_matches_khop(self, small_graph):
        rng = np.random.default_rng(1)
        for mb in plan_minibatches(small_graph, 10, 2, rng=rng):
            want = khop_neighborhood(small_graph, mb.seeds, 2)
            assert sorted(mb.vertices.tolist()) == want.tolist()
            # Laid out hop by hop: the seeds first, ascending.
            assert mb.vertices[: mb.num_seeds].tolist() == mb.seeds.tolist()
            assert (np.diff(mb.distance) >= 0).all()
            # seed_index maps into the field correctly.
            assert (mb.vertices[mb.seed_index] == mb.seeds).all()
            assert mb.seed_mask().sum() == mb.num_seeds

    def test_full_batch_reproduces_graph_exactly(self, small_graph):
        rng = np.random.default_rng(2)
        (mb,) = plan_minibatches(
            small_graph, small_graph.num_vertices, 2, rng=rng
        )
        assert (mb.subgraph.src == small_graph.src).all()
        assert (mb.subgraph.dst == small_graph.dst).all()
        assert (mb.edge_ids == np.arange(small_graph.num_edges)).all()

    def test_minibatch_training_descends(self):
        # Cluster-GCN-style: train on induced subgraphs, loss decreases.
        from repro.frameworks import compile_training, get_strategy
        from repro.models import GCN
        from repro.train import Adam, Trainer

        graph = chung_lu(120, 900, seed=5).add_self_loops()
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(120, 8))
        labels = (feats @ rng.normal(size=(8, 4))).argmax(1)
        model = GCN(8, (8, 4))
        compiled = compile_training(model, get_strategy("ours"))
        params = model.init_params(0)
        opt = Adam(lr=0.05)
        losses = []
        for epoch in range(20):
            epoch_losses = []
            for batch in random_vertex_batches(120, 40, rng=rng):
                sub, kept, _ = induced_subgraph(graph, batch)
                trainer = Trainer(
                    compiled, sub, params=params, precision="float64"
                )
                loss, _ = trainer.train_step(feats[kept], labels[kept], opt)
                params = trainer.params
                epoch_losses.append(loss)
            losses.append(float(np.mean(epoch_losses)))
        # Mini-batch noise is high on 40-vertex subgraphs: compare the
        # tail average against the start.
        assert np.mean(losses[-3:]) < 0.85 * losses[0]


def _strongly_reachable_arrays(root):
    """Every ndarray strongly reachable from ``root``: through
    containers, instance attributes (``__dict__`` and ``__slots__``),
    closures and array bases — not through weak references, module
    globals or types."""
    import types

    seen, arrays, stack = set(), [], [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, weakref.ref)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        elif isinstance(obj, types.MethodType):
            stack.extend([obj.__self__, obj.__func__])
        else:
            if hasattr(obj, "__dict__"):
                stack.append(vars(obj))
            # Read each slot through its descriptor: an unset one raises
            # instead of reaching a lazy ``__getattr__``.
            for cls in type(obj).__mro__:
                slots = cls.__dict__.get("__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    try:
                        stack.append(cls.__dict__[name].__get__(obj, cls))
                    except AttributeError:
                        pass
    return arrays


class TestBatchKeepsNothingOfItsParent:
    """The retained-bytes bound: a batch holds arrays of its own size
    only.  Inheriting groupings must not pin the parent (it is held
    weakly) nor any parent-edge-length scratch — 33 fields live through
    one ``serve()`` call, and a compacted CSR must be free to go."""

    def _batches(self):
        from repro.dyn import DynamicGraph, GraphDelta
        from repro.serve.batcher import receptive_field

        parent = chung_lu(97, 1201, seed=4)
        seeds = np.array([5, 40, 41])
        lengths = [parent.num_edges]
        rng = np.random.default_rng(0)
        yield lengths, next(plan_minibatches(parent, 6, 1, rng=rng))
        yield lengths, receptive_field(parent, seeds, 1)
        dyn = DynamicGraph(parent)
        rng = np.random.default_rng(1)
        dyn.apply(GraphDelta(rng.integers(0, 97, 53), rng.integers(0, 97, 53)))
        # Two layouts: neither's edge count, nor their sum, may show.
        yield lengths + [53, dyn.num_edges], dyn.receptive_field(seeds, 1)

    @pytest.mark.parametrize("touch", ["nothing", "in", "both"])
    def test_no_reachable_array_has_the_parents_edge_count(self, touch):
        for parent_lengths, mb in self._batches():
            sub = mb.subgraph
            assert 53 < sub.num_edges < min(set(parent_lengths) - {53})
            if touch != "nothing":
                sub.adjacency("in", np.float32), sub.incidence("in", np.float32)
                sub.csc_src, sub.in_degrees
            if touch == "both":
                sub.adjacency("out", np.float32), sub.incidence("out", np.float32)
                sub.csr_dst, sub.out_degrees
            # The edge list and edge ids are built on first use: bound
            # before it and after.
            for first_use in (False, True):
                if first_use:
                    sub.src, mb.edge_ids
                arrays = _strongly_reachable_arrays(mb)
                assert any(a is sub.src for a in arrays) or not first_use
                for array in arrays:
                    assert not set(parent_lengths) & set(array.shape), (touch, array.shape)
                    assert array.nbytes <= 8 * (sub.num_edges + sub.num_vertices + 1)

    def test_parent_is_free_to_go(self):
        parent = chung_lu(97, 1201, seed=4)
        gone = weakref.ref(parent)
        sub, _, _ = induced_subgraph(parent, np.arange(0, 97, 2))
        del parent
        gc.collect()
        assert gone() is None
        cold = Graph(sub.src, sub.dst, sub.num_vertices)
        assert np.array_equal(sub.csr_eids, cold.csr_eids)
