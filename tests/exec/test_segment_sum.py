"""Gather kernels, one parametrised body × reduce × dtype × size × layout.

Sums are one CSR × dense product (:func:`repro.exec.kernels.segment_sum`)
that adds each segment's rows left to right from ``+0.0``, so the
edge-order loop in ``tests.conftest.segment_reduce_reference`` is an
exact oracle: every comparison below is ``array_equal``.  The last
class pins what leaving NumPy's pairwise ``reduceat`` costs in accuracy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.kernel_registry import get_backend
from repro.exec.kernels import acc_dtype, segment_reduce, segment_sum
from repro.graph import Graph, chung_lu
from repro.graph.csr import incidence_operator

from tests.conftest import segment_reduce_reference

FEAT = 5


def _edge_values(num_edges, dtype, layout, rng):
    if layout == "contiguous":
        return rng.normal(size=(num_edges, FEAT)).astype(dtype)
    # Every other row and column of a wider tensor: strided on both axes.
    base = rng.normal(size=(2 * num_edges, 2 * FEAT)).astype(dtype)
    values = base[::2, ::2]
    assert num_edges < 2 or not values.flags.c_contiguous
    return values


@pytest.mark.parametrize("backend", ["reference", "blocked"])
@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("num_edges", [0, 1, 37, 3000])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("orientation", ["in", "out"])
@pytest.mark.parametrize("reduce", ["sum", "mean", "max"])
def test_gather_matches_edge_order_loop(
    reduce, orientation, dtype, num_edges, layout, backend
):
    rng = np.random.default_rng(num_edges)
    num_vertices = 40
    graph = (
        chung_lu(num_vertices, num_edges, seed=1) if num_edges > 1
        else Graph(np.arange(num_edges), np.arange(num_edges), num_vertices)
    )
    assert graph.num_edges == num_edges
    values = _edge_values(num_edges, dtype, layout, rng)
    before = values.copy()
    got, argmax = get_backend(backend).gather(
        reduce, graph, values, orientation=orientation
    )
    keys = graph.dst if orientation == "in" else graph.src
    # float16 storage accumulates in float32 and is rounded once.
    acc = values.astype(acc_dtype(values.dtype)) if reduce != "max" else values
    want = segment_reduce_reference(acc, keys, num_vertices, reduce).astype(dtype)
    assert argmax is None
    assert got.dtype == dtype and got.shape == (num_vertices, FEAT)
    assert np.array_equal(got, want)
    assert np.array_equal(values, before) and not np.shares_memory(got, values)


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

    def test_sum_honours_a_nonzero_fill(self):
        values = np.array([[1.0], [2.0]], dtype=np.float32)
        out = segment_reduce(values, np.array([0, 0, 2, 2]), reduce="sum", fill=-1.0)
        assert out[:, 0].tolist() == [-1.0, 3.0, -1.0]

    def test_unknown_reduce_is_a_key_error(self):
        with pytest.raises(KeyError):
            segment_reduce(np.zeros((2, 1)), np.array([0, 2]), reduce="prod")


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
        got, _ = get_backend("reference").gather("sum", graph, values)
        want = values[:degree].astype(np.float64).sum(axis=0)
        rel = np.abs(got[0] - want).max() / np.abs(want).max()
        assert rel <= 1e-5, rel
