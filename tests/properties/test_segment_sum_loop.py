"""The segment sum vs a naive loop, bit for bit.

Contract clauses 1 / 1a / 1c define a segment sum as ``+0.0``, then each
row added left to right in CSC/CSR edge order — which is what
``acc = zeros; for row in segment: acc = acc + row`` computes, so the
vectorised routine (one CSR × dense product,
:func:`repro.exec.kernels.segment_sum`) must be ``array_equal`` to that
loop, not ``allclose``: through :func:`segment_sum` over an incidence
operator, through the gather kernel, and block by block the way ``Engine._walk`` cuts a
graph.  The walk itself is held to
the same loop on real-valued data in ``tests/exec/test_blocked_walk.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.kernels import gather_kernel, segment_sum
from repro.graph import Graph
from repro.graph.csr import incidence_operator

#: The length of the one long segment each case holds.
LONG_SEGMENT = st.integers(17, 60)


def _loop_sum(values, indptr, eids, acc):
    """``acc = zeros; for row in segment: acc = acc + row``."""
    out = np.zeros((indptr.shape[0] - 1,) + values.shape[1:], dtype=acc)
    for i in range(indptr.shape[0] - 1):
        total = np.zeros(values.shape[1:], dtype=acc)
        for e in eids[indptr[i]:indptr[i + 1]]:
            total = total + values[e].astype(acc)
        out[i] = total
    return out


@st.composite
def segments(draw):
    """(lens, eids, values): empty segments leading, trailing and in
    runs, one long segment (:data:`LONG_SEGMENT` rows), a random
    permutation, a random feature shape and dtype."""
    empties = st.integers(0, 3).map(lambda k: [0] * k)
    lens = draw(empties)
    for n in draw(st.lists(st.integers(1, 9), max_size=6)):
        lens = lens + [n] + draw(empties)
    lens.insert(draw(st.integers(0, len(lens))), draw(LONG_SEGMENT))
    lens = lens + draw(empties)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    feat = draw(st.sampled_from([(), (3,), (2, 3)]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    num_edges = int(sum(lens))
    values = rng.normal(size=(num_edges,) + feat).astype(dtype)
    return np.asarray(lens, dtype=np.int64), rng.permutation(num_edges), values


def _indptr(lens):
    indptr = np.zeros(lens.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return indptr


def _graph(lens, eids, orientation):
    """A graph whose ``orientation`` grouping has segment lengths
    ``lens`` and scatters the segments' edges over random edge ids;
    returned with that grouping's ``(indptr, eids)``."""
    num_vertices = lens.shape[0]
    home = np.empty(eids.shape[0], dtype=np.int64)
    home[eids] = np.repeat(np.arange(num_vertices), lens)
    far = np.random.default_rng(0).integers(0, num_vertices, size=eids.shape[0])
    if orientation == "in":
        graph = Graph(far, home, num_vertices)
        indptr, order = graph.csc_indptr, graph.csc_eids
    else:
        graph = Graph(home, far, num_vertices)
        indptr, order = graph.csr_indptr, graph.csr_eids
    assert np.array_equal(np.diff(indptr), lens)
    return graph, indptr, order


class TestSegmentSumIsTheLoop:
    @settings(max_examples=60, deadline=None)
    @given(case=segments())
    def test_arbitrary_permutations(self, case):
        lens, eids, values = case
        indptr = _indptr(lens)
        want = _loop_sum(values, indptr, eids, values.dtype)
        operator = incidence_operator(indptr, eids, eids.shape[0], values.dtype)
        got = segment_sum(operator, values)
        assert got.dtype == values.dtype and np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        case=segments(),
        orientation=st.sampled_from(["in", "out"]),
        cuts=st.tuples(st.floats(0, 1), st.floats(0, 1)),
    )
    def test_gathers_and_three_blocks(self, case, orientation, cuts):
        lens, eids, values = case
        graph, indptr, order = _graph(lens, eids, orientation)
        want = _loop_sum(values, indptr, order, values.dtype)
        got, _ = gather_kernel("sum", graph, values, orientation=orientation)
        assert np.array_equal(got, want)
        # Three blocks of home rows, as Engine._walk cuts them.
        a, b = sorted(int(round(c * lens.shape[0])) for c in cuts)
        parts = []
        for lo, hi in ((0, a), (a, b), (b, lens.shape[0])):
            if hi > lo:
                block = graph.row_block(orientation, lo, hi)
                out, _ = gather_kernel(
                    "sum", block, values[block.eids], orientation=orientation
                )
                parts.append(out)
        assert np.array_equal(np.concatenate(parts), want)

    @settings(max_examples=40, deadline=None)
    @given(case=segments(), orientation=st.sampled_from(["in", "out"]))
    def test_float16_storage_accumulates_in_float32(self, case, orientation):
        lens, eids, values = case
        half = values.astype(np.float16)
        graph, indptr, order = _graph(lens, eids, orientation)
        want = _loop_sum(half, indptr, order, np.float32).astype(np.float16)
        got, _ = gather_kernel("sum", graph, half, orientation=orientation)
        assert got.dtype == np.float16 and np.array_equal(got, want)

