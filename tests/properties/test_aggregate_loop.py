"""The aggregation product and the dot step vs naive loops, bit for bit.

Contract clause 1d: ``copy_u → (× a weight per edge, or per edge and
head) → sum`` run as one adjacency × dense product
(:func:`repro.exec.kernels.aggregate`) is, per home row and head,
``+0.0`` then ``w[e, h] * x[far(e), h]`` added left to right in CSC/CSR
edge order.  Unweighted that is ``acc = zeros; for e in segment: acc =
acc + x[far[e]]`` and ``gather(scatter(x))`` on every platform (``1 * x``
is exact); weighted it is the loop with each product rounded to storage
first wherever scipy does not fuse the multiply into the add
(:func:`tests.helpers.csr_product_fuses`), and within one rounding per
term of it regardless.  The backward's dot step is the registered
``u_dot_v`` — per edge ``(b[u] * a[v]).sum(-1)``, whatever edge chunks
it is computed in — and equals that loop on every platform.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import blocks
from repro.exec.kernels import aggregate, apply_kernel, gather_kernel, scatter_kernel
from repro.graph import Graph

from tests.helpers import csr_product_fuses

FUSES = csr_product_fuses()


@st.composite
def graphs(draw, orientation):
    """(graph, rng): ``orientation`` segments with empty ones leading,
    trailing and in runs (possibly no edge at all), far endpoints drawn
    with replacement — parallel edges and self-loops are common at this
    size — scattered over random edge ids."""
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
    graph = (
        Graph(far, home, num_vertices) if orientation == "in"
        else Graph(home, far, num_vertices)
    )
    return graph, rng


@st.composite
def multigraphs(draw):
    """(graph, orientation, x, w): one weight per edge."""
    orientation = draw(st.sampled_from(["in", "out"]))
    graph, rng = draw(graphs(orientation))
    feat = draw(st.sampled_from([(3,), (2, 3)]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x = rng.normal(size=(graph.num_vertices,) + feat).astype(dtype)
    w = rng.normal(size=graph.num_edges).astype(dtype)
    return graph, orientation, x, w


def _loop(graph, orientation, x, w=None, mean=False):
    """``acc = zeros; for e in segment: acc = acc + w[e, h] * x[far[e], h]``,
    every product rounded to storage before it is added (``w`` right-
    padded against ``x``: per edge, or per edge and head); the mean
    divides by the segment's length (empty: 1).  Also returns the
    clause-1d bound ``eps · (terms + 1) · Σ|w · x|`` per element."""
    indptr, eids = graph.segments(orientation)
    far = graph.src if orientation == "in" else graph.dst
    if w is not None:
        w = w.reshape(w.shape + (1,) * (x.ndim - w.ndim))
    out, bound = np.zeros_like(x), np.zeros_like(x)
    for v in range(graph.num_vertices):
        acc = np.zeros(x.shape[1:], dtype=x.dtype)
        for e in eids[indptr[v]:indptr[v + 1]]:
            term = x[far[e]] if w is None else w[e] * x[far[e]]
            assert term.dtype == x.dtype
            acc = acc + term
            bound[v] += np.abs(term)
        degree = indptr[v + 1] - indptr[v]
        out[v] = acc / x.dtype.type(max(degree, 1)) if mean else acc
        bound[v] *= np.finfo(x.dtype).eps * (degree + 1)
        if mean:
            bound[v] = bound[v] / max(degree, 1) + np.finfo(x.dtype).eps * np.abs(out[v])
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


DTYPES = [np.float32, np.float64]
HEADS = [1, 2, 4]
WIDTHS = [1, 3, 8]


@pytest.mark.parametrize("reduce", ["sum", "mean"])
@pytest.mark.parametrize("orientation", ["in", "out"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_per_head_aggregate_is_the_loop(dtype, heads, width, orientation, reduce, data):
    """One weight per edge and head against ``(heads, width)`` rows: one
    head-interleaved product, the per-head loop's bits unless scipy
    fuses, within the clause-1d bound regardless."""
    graph, rng = data.draw(graphs(orientation))
    x = rng.normal(size=(graph.num_vertices, heads, width)).astype(dtype)
    w = rng.normal(size=(graph.num_edges, heads)).astype(dtype)
    mean = reduce == "mean"
    got = aggregate(graph, x, w, orientation=orientation, mean=mean)
    want, bound = _loop(graph, orientation, x, w, mean=mean)
    assert got.dtype == x.dtype and got.shape == x.shape
    assert (np.abs(got - want) <= bound).all()
    if not FUSES:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=8, deadline=None)
@given(data=st.data(), budget=st.integers(1, 600))
def test_dot_step_is_the_per_edge_loop(dtype, heads, width, data, budget):
    """``u_dot_v(u=b, v=a)`` under any chunk budget equals, everywhere,
    the per-edge ``(b[u] * a[v]).sum(-1)`` loop and the node path it
    stands in for, ``reduce_to_shape(mul(copy_v(a), copy_u(b)))``."""
    graph, rng = data.draw(graphs(data.draw(st.sampled_from(["in", "out"]))))
    a, b = (
        rng.normal(size=(graph.num_vertices, heads, width)).astype(dtype)
        for _ in range(2)
    )
    want = np.zeros((graph.num_edges, heads), dtype=dtype)
    for e in range(graph.num_edges):
        want[e] = (b[graph.src[e]] * a[graph.dst[e]]).sum(-1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "BLOCK_BYTES", budget)
        got = scatter_kernel("u_dot_v", graph, [b, a])
    node_path = apply_kernel(
        "reduce_to_shape",
        [apply_kernel("mul", [
            scatter_kernel("copy_v", graph, [a]), scatter_kernel("copy_u", graph, [b]),
        ])],
        attrs={"target_shape": (heads,)},
    )
    assert got.dtype == dtype and got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(got, node_path)
