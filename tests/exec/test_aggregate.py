"""The aggregation kernel, one parametrised body × reduce × weight shape
(per edge, per edge and head, per element) × dtype × size × layout.

:func:`repro.exec.kernels.aggregate` must equal the edge-tensor path it
replaces — ``gather(scatter(x) * w)`` through the registered kernels —
on a whole :class:`~repro.graph.csr.Graph` and on the row blocks a walk
cuts from it, assembled.  Unweighted comparisons are ``array_equal``
unconditionally; weighted ones are too wherever scipy rounds ``w * x``
before adding it (:func:`tests.helpers.csr_product_fuses`), and sit
inside the README clause-1d tolerance regardless.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import kernels
from repro.exec.kernels import aggregate, apply_kernel, gather_kernel, scatter_kernel
from repro.graph import Graph, chung_lu
from repro.graph.csr import adjacency_operator

from tests.helpers import csr_product_fuses

FEAT = (2, 5)
NUM_VERTICES = 40


def _graph(num_edges):
    if num_edges > 1:
        return chung_lu(NUM_VERTICES, num_edges, seed=1)
    return Graph(np.arange(num_edges), np.arange(num_edges), NUM_VERTICES)


def _edge_path(graph, x, weight, orientation, reduce):
    copy = "copy_u" if orientation == "in" else "copy_v"
    message = scatter_kernel(copy, graph, [x])
    if weight is not None:
        message = apply_kernel("mul", [message, weight])
    return gather_kernel(reduce, graph, message, orientation=orientation)[0]


def _assert_matches(got, want, x, weight, graph, orientation):
    assert got.dtype == want.dtype and got.shape == want.shape
    if weight is None or not csr_product_fuses():
        assert np.array_equal(got, want)
        return
    # Clause 1d: one rounding per term.
    terms = np.abs(_edge_path(graph, np.abs(x), np.abs(weight), orientation, "sum"))
    degree = np.diff(graph.segments(orientation)[0]).reshape(-1, 1, 1)
    assert (np.abs(got - want) <= np.finfo(x.dtype).eps * (degree + 1) * terms).all()


@pytest.mark.parametrize("layout", ["graph", "blocks"])
@pytest.mark.parametrize("num_edges", [0, 1, 37, 3000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# One weight per edge, per edge and head (FEAT's leading axis), per element.
@pytest.mark.parametrize("weight_shape", [None, (), (1,), (2,), (2, 1), FEAT])
@pytest.mark.parametrize("orientation", ["in", "out"])
@pytest.mark.parametrize("reduce", ["sum", "mean"])
def test_aggregate_matches_the_edge_tensor_path(
    reduce, orientation, weight_shape, dtype, num_edges, layout
):
    rng = np.random.default_rng(num_edges)
    graph = _graph(num_edges)
    assert graph.num_edges == num_edges
    x = rng.normal(size=(NUM_VERTICES,) + FEAT).astype(dtype)
    weight = (
        None if weight_shape is None
        else rng.normal(size=(num_edges,) + weight_shape).astype(dtype)
    )
    before = x.copy()
    want = _edge_path(graph, x, weight, orientation, reduce)
    mean = reduce == "mean"
    if layout == "graph":
        got = aggregate(graph, x, weight, orientation=orientation, mean=mean)
    else:
        # Three blocks of home rows, as Engine._walk cuts them: far
        # operand whole, weight in the block's own edge order.
        parts = []
        for lo, hi in ((0, 7), (7, 29), (29, NUM_VERTICES)):
            block = graph.row_block(orientation, lo, hi)
            parts.append(aggregate(
                block, x, None if weight is None else weight[block.eids],
                orientation=orientation, mean=mean,
            ))
        got = np.concatenate(parts)
    _assert_matches(got, want, x, weight, graph, orientation)
    assert np.array_equal(x, before) and not np.shares_memory(got, x)


class TestMean:
    def test_zero_degree_rows_are_zero_not_nan(self, tiny_graph):
        x = np.arange(1.0, 9.0).reshape(4, 2)
        got = aggregate(tiny_graph, x, orientation="in", mean=True)
        # Vertex 3 is isolated; vertex 1 hears vertex 0 twice (parallel).
        assert got[3].tolist() == [0.0, 0.0]
        assert got[1].tolist() == x[0].tolist()
        assert got[2].tolist() == ((x[0] + x[1] + x[2]) / 3).tolist()


@pytest.mark.parametrize("reduce", ["sum", "mean"])
@pytest.mark.parametrize("weight_feat", [None, (), (2,)])
def test_no_rows_over_an_edgeless_layout(weight_feat, reduce):
    """An empty partition's shard: no owned or ghost rows, over the
    one-vertex placeholder graph.  Its one home row is zeros, as the
    edge-tensor path has it."""
    graph = Graph(np.zeros(0, np.int64), np.zeros(0, np.int64), 1)
    x = np.zeros((0,) + FEAT, dtype=np.float32)
    weight = None if weight_feat is None else np.zeros((0,) + weight_feat, np.float32)
    got = aggregate(graph, x, weight, mean=reduce == "mean")
    want = _edge_path(graph, x, weight, "in", reduce)
    assert got.shape == want.shape == (1,) + FEAT and not got.any()


class TestOperators:
    def test_unit_operator_is_cached_per_orientation_dtype_and_heads(self):
        graph = chung_lu(30, 120, seed=2)  # own graph: own, empty cache
        entry = graph.adjacency("in", np.float32)
        a, order = entry
        assert graph.adjacency("in", np.float32) is entry
        assert graph.adjacency("in", np.float32, 1) is entry
        assert graph.adjacency("in", np.float64)[0] is not a
        assert graph.adjacency("out", np.float32)[0] is not a
        assert graph.adjacency("in", np.float32, 3)[0] is not a
        assert a.shape == (30, 30) and a.dtype == np.float32
        # One head: the grouping's own edge order, not a copy of it.
        assert order is graph.csc_eids
        block = graph.row_block("out", 4, 9)
        b, _ = block.adjacency("out", np.float64, 2)
        assert block.adjacency("out", np.float64, 2)[0] is b
        # Home rows are the block's, far columns the graph's up to the
        # block's largest far endpoint.
        assert block.far_vertices == block.dst.max() + 1
        assert b.shape == (5 * 2, block.far_vertices * 2)

    @pytest.mark.parametrize("orientation", ["in", "out"])
    def test_heads_interleave_each_segment_in_edge_order(self, orientation):
        """Row ``v·H + h`` is segment ``v``'s edges in order, column
        ``far·H + h``; the order reads ``w[e, h]`` off ``w.reshape(-1)``."""
        graph = chung_lu(30, 120, seed=2)
        heads = 3
        operator, order = graph.adjacency(orientation, np.float64, heads)
        indptr, eids = graph.segments(orientation)
        far = graph.src if orientation == "in" else graph.dst
        rows, columns, positions = [0], [], []
        for v in range(graph.num_vertices):
            segment = eids[indptr[v]:indptr[v + 1]]
            for h in range(heads):
                columns += [far[e] * heads + h for e in segment]
                positions += [e * heads + h for e in segment]
                rows.append(len(columns))
        assert operator.indptr.tolist() == rows
        assert operator.indices.tolist() == columns
        assert order.tolist() == positions
        assert (operator.data == 1).all()

    def test_parallel_edges_stay_separate_terms_in_order(self):
        # 1e16 + 1 - 1e16 is 0 left to right and 1 if the two parallel
        # edges from vertex 0 were merged into one entry first.
        operator = adjacency_operator(
            np.array([0, 3]), np.array([0, 1, 0]), 2, np.array([1.0, 1.0, -1.0])
        )
        assert (operator @ np.array([[1e16], [1.0]])).tolist() == [[0.0]]

    def test_weighted_operator_shares_the_unit_operators_indices(self, monkeypatch):
        # ``aggregate`` hands the cached unit operator's index arrays to
        # the weighted one as they are: only the entries are new.
        graph = chung_lu(30, 120, seed=2)
        unit, _ = graph.adjacency("in", np.float64, 2)
        built = []

        def spy(*args):
            built.append(adjacency_operator(*args))
            return built[-1]

        monkeypatch.setattr(kernels, "adjacency_operator", spy)
        rng = np.random.default_rng(0)
        aggregate(graph, rng.normal(size=(30, 2, 3)), rng.normal(size=(120, 2)))
        (weighted,) = built
        assert weighted.indptr is unit.indptr and weighted.indices is unit.indices
        assert weighted.data.dtype == np.float64 and weighted.shape == unit.shape
