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
``u_dot_v`` — per edge the trailing-axis contraction
(:func:`repro.exec.kernels.contract_trailing`) of ``b[u] * a[v]``,
whatever edge chunks it is computed in — and equals that contraction
taken one edge at a time on every platform.  The contraction itself is
a function of each row alone (chunks, strides, gathers), accumulates
float16 in float32, and stays within ``F · eps · Σ|a·b|`` of a float64
dot.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import blocks
from repro.exec.kernels import (
    acc_dtype,
    aggregate,
    apply_kernel,
    contract_trailing,
    gather_kernel,
    scatter_kernel,
)
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


#: Every storage dtype a dot step runs at.
STORAGE_DTYPES = [np.float16, np.float32, np.float64]


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("heads", HEADS)
@pytest.mark.parametrize("dtype", STORAGE_DTYPES)
@settings(max_examples=8, deadline=None)
@given(data=st.data(), budget=st.integers(1, 600))
def test_dot_step_is_the_per_edge_loop(dtype, heads, width, data, budget):
    """``u_dot_v(u=b, v=a)`` under any chunk budget equals, everywhere,
    the contraction of ``b[u] * a[v]`` taken one edge at a time and the
    node path it stands in for, ``reduce_to_shape(mul(copy_v(a),
    copy_u(b)))``."""
    graph, rng = data.draw(graphs(data.draw(st.sampled_from(["in", "out"]))))
    a, b = (
        rng.normal(size=(graph.num_vertices, heads, width)).astype(dtype)
        for _ in range(2)
    )
    want = np.zeros((graph.num_edges, heads), dtype=dtype)
    for e in range(graph.num_edges):
        want[e] = contract_trailing(b[graph.src[e]] * a[graph.dst[e]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(blocks, "DOT_CHUNK_BYTES", budget)
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


@pytest.mark.parametrize("budget", [1, 2 ** 22])
def test_dot_step_without_edges(budget, monkeypatch):
    """No edge, no chunk: an ``(0, heads)`` result of the operands' dtype."""
    monkeypatch.setattr(blocks, "DOT_CHUNK_BYTES", budget)
    x = np.ones((3, 2, 4), dtype=np.float32)
    got = scatter_kernel("u_dot_v", Graph(np.zeros(0, int), np.zeros(0, int), 3), [x, x])
    assert got.shape == (0, 2) and got.dtype == np.float32


@pytest.mark.parametrize("dtype", STORAGE_DTYPES)
@pytest.mark.parametrize("per_chunk", ["1", "7", "more-than-E"])
def test_dot_step_chunks_move_no_bit(per_chunk, dtype, monkeypatch):
    """Chunks of 1 edge, 7 edges and one chunk longer than the edge list
    (``DOT_CHUNK_BYTES`` a whole number of edges' gathered rows) take
    ``ceil(E / chunk)`` contractions and give the one-chunk result, bit
    for bit: each edge's sum is its own."""
    from repro.exec import kernels

    rng = np.random.default_rng(11)
    graph = Graph(rng.integers(0, 30, 200), rng.integers(0, 30, 200), 30)
    a, b = (rng.normal(size=(30, 3, 5)).astype(dtype) for _ in range(2))
    edges, edge_bytes = graph.num_edges, a[:1].nbytes + b[:1].nbytes
    monkeypatch.setattr(blocks, "DOT_CHUNK_BYTES", (edges + 1) * edge_bytes)
    whole = scatter_kernel("u_dot_v", graph, [b, a])
    chunk = {"1": 1, "7": 7, "more-than-E": edges + 1}[per_chunk]
    monkeypatch.setattr(blocks, "DOT_CHUNK_BYTES", chunk * edge_bytes)
    calls = []

    def counted(*args):
        calls.append(args[0].shape[0])
        return contract_trailing(*args)

    monkeypatch.setattr(kernels, "contract_trailing", counted)
    got = scatter_kernel("u_dot_v", graph, [b, a])
    assert calls == [min(chunk, edges - lo) for lo in range(0, edges, chunk)]
    assert got.dtype == dtype and got.tobytes() == whole.tobytes()


@st.composite
def products(draw):
    """(a, b, p): ``(rows, heads, width)`` operands of one storage dtype
    and their rounded product ``p = a * b`` — what ``mul`` writes."""
    dtype = draw(st.sampled_from(STORAGE_DTYPES))
    shape = (
        draw(st.integers(0, 40)), draw(st.sampled_from([1, 2, 4, 8])),
        draw(st.sampled_from([1, 2, 3, 8, 17, 64])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    a, b = (rng.normal(size=shape).astype(dtype) for _ in range(2))
    return a, b, a * b


@settings(max_examples=150, deadline=None)
@given(case=products(), data=st.data())
def test_contraction_is_a_function_of_each_row(case, data):
    """Chunk boundaries, strides, gathered rows and the other rows move
    no bit of a row's contraction, at every storage dtype; the result
    keeps the storage dtype and lies within ``F · eps · Σ|a·b|`` of the
    float64 dot of the operands (their products unrounded)."""
    a, b, p = case
    rows, width = p.shape[0], p.shape[-1]
    whole = contract_trailing(p)
    assert whole.dtype == p.dtype and whole.shape == p.shape[:-1]
    cuts = sorted(data.draw(st.lists(st.integers(0, rows), max_size=4)))
    chunks = [contract_trailing(p[lo:hi]) for lo, hi in zip([0] + cuts, cuts + [rows])]
    assert np.array_equal(np.concatenate(chunks), whole)
    ids = np.asarray(
        data.draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=50)) if rows else [],
        dtype=np.int64,
    )
    assert np.array_equal(contract_trailing(p[ids]), whole[ids])
    # The same products behind every other element of a wider buffer,
    # in Fortran order, and in reversed rows.
    spread = np.zeros(p.shape[:-1] + (2 * width,), dtype=p.dtype)
    spread[..., ::2] = p
    assert np.array_equal(contract_trailing(spread[..., ::2]), whole)
    assert np.array_equal(contract_trailing(np.asfortranarray(p)), whole)
    assert np.array_equal(contract_trailing(p[::-1])[::-1], whole)
    out = np.full_like(whole, 7)
    assert contract_trailing(p, out) is out and np.array_equal(out, whole)
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    exact = np.zeros(whole.shape)
    for index in np.ndindex(*whole.shape):
        exact[index] = math.fsum(a64[index] * b64[index])
    bound = width * np.finfo(p.dtype).eps * np.abs(a64 * b64).sum(axis=-1)
    assert (np.abs(whole.astype(np.float64) - exact) <= bound).all()


def test_contraction_accumulates_half_in_single():
    """``2048 + 1`` rounds back to 2048 in float16, so a float16
    accumulator would return 2048 for eight ones after it; float32
    accumulation returns 2056, which float16 holds exactly."""
    p = np.array([[2048.0] + [1.0] * 8], dtype=np.float16)
    assert acc_dtype(p.dtype) == np.float32
    got = contract_trailing(p)
    assert got.dtype == np.float16 and got[0] == 2056.0
