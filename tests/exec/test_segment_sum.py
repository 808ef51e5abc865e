"""Gather kernels, one parametrised body × reduce × dtype × size ×
layout × feature shape.

Sums are one CSR × dense product (:func:`repro.exec.kernels.segment_sum`)
that adds each segment's rows left to right from ``+0.0``, so the
edge-order loop in ``tests.conftest.segment_reduce_reference`` is an
exact oracle: every comparison below is ``array_equal``.  The last
class pins what leaving NumPy's pairwise ``reduceat`` costs in accuracy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.kernels import acc_dtype, gather_kernel, segment_sum
from repro.graph import Graph, chung_lu
from repro.graph.csr import incidence_operator

from tests.conftest import segment_reduce_reference

FEAT = 5
HEADS = 3

#: Feature axes after the edge axis: one row of ``FEAT``, or ``HEADS``
#: rows of it (a multi-head edge tensor, flattened for the product).
SHAPES = {"rows": (FEAT,), "heads": (HEADS, FEAT)}


def _edge_values(num_edges, dtype, layout, rng, feat=(FEAT,)):
    if layout == "contiguous":
        return rng.normal(size=(num_edges,) + feat).astype(dtype)
    # Every other row and last-axis column of a wider tensor: strided
    # on both axes.
    wide = feat[:-1] + (2 * feat[-1],)
    base = rng.normal(size=(2 * num_edges,) + wide).astype(dtype)
    values = base[::2, ..., ::2]
    assert num_edges < 2 or not values.flags.c_contiguous
    return values


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("num_edges", [0, 1, 37, 3000])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("orientation", ["in", "out"])
@pytest.mark.parametrize("reduce", ["sum", "mean", "max"])
def test_gather_matches_edge_order_loop(
    reduce, orientation, dtype, num_edges, layout, shape
):
    rng = np.random.default_rng(num_edges)
    num_vertices = 40
    graph = (
        chung_lu(num_vertices, num_edges, seed=1) if num_edges > 1
        else Graph(np.arange(num_edges), np.arange(num_edges), num_vertices)
    )
    assert graph.num_edges == num_edges
    values = _edge_values(num_edges, dtype, layout, rng, SHAPES[shape])
    before = values.copy()
    got, argmax = gather_kernel(reduce, graph, values, orientation=orientation)
    keys = graph.dst if orientation == "in" else graph.src
    # float16 storage accumulates in float32 and is rounded once.
    acc = values.astype(acc_dtype(values.dtype)) if reduce != "max" else values
    want = segment_reduce_reference(acc, keys, num_vertices, reduce).astype(dtype)
    assert argmax is None
    assert got.dtype == dtype and got.shape == (num_vertices,) + SHAPES[shape]
    assert np.array_equal(got, want)
    assert np.array_equal(values, before) and not np.shares_memory(got, values)


EMPTY = Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5)
SINGLE = Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 1)
LOOPS = Graph(np.arange(3), np.arange(3), 4)  # + isolated vertex 3


def _first_argmax(values, keys, num_segments):
    """Per segment and feature, the first COO edge id holding the
    segment's max (``-1``: no edge), by a loop over edges."""
    width = int(np.prod(values.shape[1:], dtype=np.int64))
    flat = values.reshape(values.shape[0], width)
    out = np.full((num_segments, width), -1, dtype=np.int64)
    for e, k in enumerate(keys):
        for c in range(flat.shape[1]):
            if out[k, c] < 0 or flat[e, c] > flat[out[k, c], c]:
                out[k, c] = e
    return out.reshape((num_segments,) + values.shape[1:])


class TestGatherEdgeCases:
    """Degenerate graphs, a high-degree vertex and the argmax rule,
    each against a loop over edges."""

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("orientation", ["in", "out"])
    @pytest.mark.parametrize("reduce", ["sum", "mean", "max"])
    @pytest.mark.parametrize(
        "graph", [EMPTY, SINGLE, LOOPS], ids=["empty", "single", "loops"]
    )
    def test_degenerate_graphs(self, graph, reduce, orientation, dtype, rng):
        values = rng.normal(size=(graph.num_edges, 3)).astype(dtype)
        got, argmax = gather_kernel(
            reduce, graph, values,
            orientation=orientation, want_argmax=reduce == "max",
        )
        keys = graph.dst if orientation == "in" else graph.src
        want = segment_reduce_reference(values, keys, graph.num_vertices, reduce)
        assert got.dtype == dtype and got.shape == (graph.num_vertices, 3)
        assert np.array_equal(got, want)
        if reduce == "max":
            assert np.array_equal(
                argmax, _first_argmax(values, keys, graph.num_vertices)
            )

    @pytest.mark.parametrize("orientation", ["in", "out"])
    @pytest.mark.parametrize("reduce", ["sum", "mean", "max"])
    def test_high_degree_vertex(self, reduce, orientation, rng):
        # One vertex owns 500 of 502 edges, on each side.
        src = np.concatenate([np.zeros(500, dtype=np.int64), [1, 2]])
        dst = np.concatenate([np.full(500, 3, dtype=np.int64), [0, 3]])
        graph = Graph(src, dst, 5)
        values = rng.normal(size=(graph.num_edges, 2)).astype(np.float32)
        got, argmax = gather_kernel(
            reduce, graph, values,
            orientation=orientation, want_argmax=reduce == "max",
        )
        keys = dst if orientation == "in" else src
        assert np.array_equal(got, segment_reduce_reference(values, keys, 5, reduce))
        if reduce == "max":
            assert np.array_equal(argmax, _first_argmax(values, keys, 5))

    @pytest.mark.parametrize("orientation", ["in", "out"])
    def test_argmax_is_the_first_coo_id(self, small_graph, orientation, rng):
        # Three distinct values: most segments tie on their max.
        values = rng.integers(0, 3, size=(small_graph.num_edges, 4)).astype(
            np.float32
        )
        _, argmax = gather_kernel(
            "max", small_graph, values, orientation=orientation, want_argmax=True
        )
        keys = small_graph.dst if orientation == "in" else small_graph.src
        assert np.array_equal(
            argmax, _first_argmax(values, keys, small_graph.num_vertices)
        )


class TestSegmentSumKernel:
    def test_operator_dtype_is_the_accumulator(self):
        indptr = np.array([0, 2, 2, 3])
        eids = np.array([2, 0, 1])
        values = np.array([1.0, 2.0, 4.0], dtype=np.float16)
        out = segment_sum(incidence_operator(indptr, eids, 3, np.float32), values)
        assert out.dtype == np.float32 and out.tolist() == [5.0, 0.0, 2.0]

    @pytest.mark.parametrize("feat", [(), (0,), (2, 0), (2, 3)])
    def test_feature_shapes_round_trip(self, feat):
        indptr = np.array([0, 0, 3, 4])
        values = np.ones((4,) + feat)
        out = segment_sum(
            incidence_operator(indptr, np.arange(4), 4, np.float64), values
        )
        counts = np.array([0.0, 3.0, 1.0]).reshape((3,) + (1,) * len(feat))
        assert out.shape == (3,) + feat
        assert np.array_equal(out, np.broadcast_to(counts, out.shape))


class TestSequentialSumAccuracy:
    """Left-to-right float32 accumulation is less accurate than the
    pairwise ``reduceat`` it replaced; this is by how much (README,
    next to the contract): 5.8e-6 relative on a degree-20 000 hub of
    N(1, 1) rows (1.8e-5 at degree 500 000), where pairwise read 6e-8."""

    def test_degree_20000_hub_stays_within_1e_5(self):
        degree, feat = 20_000, 16
        rng = np.random.default_rng(0)
        values = rng.normal(1.0, 1.0, size=(degree + 2, feat)).astype(np.float32)
        dst = np.concatenate([np.zeros(degree, dtype=np.int64), [1, 2]])
        graph = Graph(np.arange(degree + 2) % 3, dst, 3)
        got, _ = gather_kernel("sum", graph, values)
        want = values[:degree].astype(np.float64).sum(axis=0)
        rel = np.abs(got[0] - want).max() / np.abs(want).max()
        assert rel <= 1e-5, rel
