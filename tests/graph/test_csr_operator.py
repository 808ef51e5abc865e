"""The repro-owned CSR operator: its product against public scipy, and
what it keeps of the arrays it is given.

:class:`repro.graph.csr.CsrOperator` calls scipy's compiled CSR loop
(the private ``csr_matvecs`` of ``scipy/sparse/_sparsetools``, loaded
from its file) directly; ``scipy.sparse.csr_array((data, indices,
indptr), shape) @ x`` is its oracle here, bit for bit.  An operator references its arrays, views
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from repro.graph.csr import CsrOperator, _interleave, adjacency_operator


def _in_larger_base(array, rng):
    """``array``'s values as a view into a base over twice its size."""
    lead = int(rng.integers(0, 4))
    base = np.zeros(2 * array.shape[0] + lead + 3, dtype=array.dtype)
    base[lead:lead + array.shape[0]] = array
    return base[lead:lead + array.shape[0]]


@st.composite
def operators(draw):
    """``(indptr, indices, data, shape, x)``: segments with empty ones in
    runs (possibly no row at all), columns drawn with replacement — so
    parallel entries are common — head-interleaved for ``heads > 1``,
    int32 or int64 indices, float32 or float64 entries, ``x`` of width
    0 to 5 (strided or not), every array possibly a view of a larger
    base."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    index = draw(st.sampled_from([np.int32, np.int64]))
    heads = draw(st.sampled_from([1, 2, 3]))
    lens = np.asarray(draw(st.lists(st.integers(0, 6), max_size=10)), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    columns = draw(st.integers(1 if lens.sum() else 0, 9))
    indptr = np.zeros(lens.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    far = rng.integers(0, max(columns, 1), size=int(indptr[-1]))
    if heads != 1:
        indptr, far, _ = _interleave(indptr, far, np.arange(far.shape[0]), heads)
    data = rng.normal(size=far.shape[0]).astype(dtype)
    indptr, far = indptr.astype(index), far.astype(index)
    if draw(st.booleans()):
        indptr, far, data = (_in_larger_base(a, rng) for a in (indptr, far, data))
    shape = (indptr.shape[0] - 1, columns * heads)
    width = draw(st.integers(0, 5))
    x = rng.normal(size=(shape[1], 2 * width)).astype(dtype)
    x = x[:, ::2] if draw(st.booleans()) else x[:, :width]
    return indptr, far, data, shape, x


class TestProductIsPublicScipys:
    @settings(max_examples=300, deadline=None)
    @given(case=operators())
    def test_bit_for_bit(self, case):
        indptr, indices, data, shape, x = case
        got = adjacency_operator(indptr, indices, shape[1], data) @ x
        want = csr_array((data, indices, indptr), shape=shape) @ x
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    def test_a_fresh_result_each_time(self):
        operator = adjacency_operator(
            np.array([0, 2, 2]), np.array([1, 1]), 2, np.ones(2, dtype=np.float32)
        )
        x = np.arange(4, dtype=np.float32).reshape(2, 2)
        first = operator @ x
        assert not np.shares_memory(first, x) and (operator @ x) is not first
        assert first.tolist() == [[4.0, 6.0], [0.0, 0.0]]

    def test_rows_are_taken_in_the_operators_dtype(self):
        operator = adjacency_operator(
            np.array([0, 1]), np.array([0]), 1, np.ones(1, dtype=np.float32)
        )
        got = operator @ np.array([[1 + 2.0 ** -30]])
        assert got.dtype == np.float32 and got[0, 0] == np.float32(1)


class TestConstruction:
    def test_index_arrays_share_a_dtype(self):
        with pytest.raises(ValueError, match="share an integer dtype"):
            adjacency_operator(
                np.array([0, 1], dtype=np.int64), np.array([0], dtype=np.int32), 1,
                np.ones(1),
            )

    @pytest.mark.parametrize("indptr, indices", [
        ([0, 1], [0, 0]),   # an index without an entry
        ([0, 2], [0]),      # offsets past the entries
        ([1, 1], [0]),      # offsets not from 0
    ])
    def test_inconsistent_arrays(self, indptr, indices):
        with pytest.raises(ValueError):
            CsrOperator(np.array(indptr), np.array(indices), np.ones(1), (1, 1))

    def test_product_checks_the_row_count(self):
        operator = adjacency_operator(np.array([0, 1]), np.array([0]), 2, np.ones(1))
        with pytest.raises(ValueError, match="cannot multiply"):
            operator @ np.ones((3, 2))


class TestWhatAnOperatorKeeps:
    def test_arrays_and_views_are_referenced(self):
        indptr, indices = np.array([0, 2, 3]), np.array([1, 0, 1])
        data = np.ones(3)
        operator = adjacency_operator(indptr, indices, 2, data)
        assert operator.indptr is indptr and operator.indices is indices
        assert operator.data is data
        base = np.zeros(100, dtype=np.int64)
        indptr, indices, data = base[:3], base[3:5], np.ones(100)[:2]
        operator = adjacency_operator(indptr, indices, 1, data)
        assert operator.indptr is indptr and operator.indices is indices
        assert operator.data is data
