"""The aggregation product vs a naive loop, bit for bit.

Contract clause 1d: ``copy_u → (× one weight per edge) → sum`` run as
one adjacency × dense product (:func:`repro.exec.kernels.aggregate`) is,
per home row, ``+0.0`` then ``w[e] * x[far(e)]`` added left to right in
CSC/CSR edge order.  Unweighted that is ``acc = zeros; for e in segment:
acc = acc + x[far[e]]`` and ``gather(scatter(x))`` on every platform
(``1 * x`` is exact); weighted it is the loop with each product rounded
to storage first wherever scipy does not fuse the multiply into the add
(:func:`tests.helpers.csr_product_fuses`), and within one rounding per
term of it regardless.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.kernels import aggregate, gather_kernel, scatter_kernel
from repro.graph import Graph

from tests.helpers import csr_product_fuses

FUSES = csr_product_fuses()


@st.composite
def multigraphs(draw):
    """(graph, orientation, x, w): home segments with empty ones
    leading, trailing and in runs (possibly no edge at all), far
    endpoints drawn with replacement — parallel edges and self-loops
    are common at this size — scattered over random edge ids."""
    empties = st.integers(0, 3).map(lambda k: [0] * k)
    lens = draw(empties)
    for n in draw(st.lists(st.integers(1, 9), max_size=6)):
        lens = lens + [n] + draw(empties)
    lens = np.asarray(lens or [0], dtype=np.int64)
    num_vertices, num_edges = lens.shape[0], int(lens.sum())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    home = np.empty(num_edges, dtype=np.int64)
    home[rng.permutation(num_edges)] = np.repeat(np.arange(num_vertices), lens)
    far = rng.integers(0, num_vertices, size=num_edges)
    orientation = draw(st.sampled_from(["in", "out"]))
    graph = (
        Graph(far, home, num_vertices) if orientation == "in"
        else Graph(home, far, num_vertices)
    )
    feat = draw(st.sampled_from([(3,), (2, 3)]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x = rng.normal(size=(num_vertices,) + feat).astype(dtype)
    w = rng.normal(size=num_edges).astype(dtype)
    return graph, orientation, x, w


def _loop(graph, orientation, x, w=None):
    """``acc = zeros; for e in segment: acc = acc + w[e] * x[far[e]]``,
    every product rounded to storage before it is added; also returns
    the clause-1d bound ``eps · (terms + 1) · Σ|w · x|`` per element."""
    indptr, eids = graph.segments(orientation)
    far = graph.src if orientation == "in" else graph.dst
    out, bound = np.zeros_like(x), np.zeros_like(x)
    for v in range(graph.num_vertices):
        acc = np.zeros(x.shape[1:], dtype=x.dtype)
        for e in eids[indptr[v]:indptr[v + 1]]:
            term = x[far[e]] if w is None else w[e] * x[far[e]]
            assert term.dtype == x.dtype
            acc = acc + term
            bound[v] += np.abs(term)
        out[v] = acc
        bound[v] *= np.finfo(x.dtype).eps * (indptr[v + 1] - indptr[v] + 1)
    return out, bound


class TestAggregateIsTheLoop:
    @settings(max_examples=80, deadline=None)
    @given(case=multigraphs())
    def test_unweighted_is_exact_everywhere(self, case):
        graph, orientation, x, _ = case
        got = aggregate(graph, x, orientation=orientation)
        want, _ = _loop(graph, orientation, x)
        assert got.dtype == x.dtype and np.array_equal(got, want)
        copy = "copy_u" if orientation == "in" else "copy_v"
        edge_path, _ = gather_kernel(
            "sum", graph, scatter_kernel(copy, graph, [x]), orientation=orientation
        )
        assert np.array_equal(got, edge_path)

    @settings(max_examples=80, deadline=None)
    @given(case=multigraphs())
    def test_weighted_is_the_rounded_loop_unless_scipy_fuses(self, case):
        graph, orientation, x, w = case
        got = aggregate(graph, x, w, orientation=orientation)
        want, bound = _loop(graph, orientation, x, w)
        assert got.dtype == x.dtype
        assert (np.abs(got - want) <= bound).all()
        if not FUSES:
            assert np.array_equal(got, want)
