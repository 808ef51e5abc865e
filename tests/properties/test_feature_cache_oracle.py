"""The feature cache's slot tables vs the row-by-row LRU oracle.

:class:`repro.serve.cache.FeatureCache` resolves a gather with array
operations on stamp tables and loops only over evictions;
:class:`tests.helpers.ReferenceFeatureCache` resolves it one ordered-dict
operation per row.  After every call of a random interleaving of
gathers and invalidations the two must agree on the split, every counter, the size, membership and the LRU order — at
capacities 0, 1, 2, small and large, for sorted unique inputs (what
serving sends) and inputs with repeats, with vertex ids growing past the
end of the tables.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.cache import FeatureCache
from tests.helpers import ReferenceFeatureCache, cache_state

ROW_BYTES = 8


def assert_same_stream(capacity, calls):
    got, want = FeatureCache(capacity), ReferenceFeatureCache(capacity)
    for step, (op, ids) in enumerate(calls):
        args = (ids, ROW_BYTES) if op == "gather" else (ids,)
        assert getattr(got, op)(*args) == getattr(want, op)(*args), step
        assert cache_state(got) == cache_state(want), step
        for v in ids.tolist() + [ids.size + 10**6]:
            assert (v in got) == (v in want), (step, v)


@st.composite
def call_streams(draw):
    capacity = draw(
        st.one_of(
            st.sampled_from([0, 1, 2]),
            st.integers(3, 12),
            st.integers(40, 400),
        )
    )
    top = draw(st.integers(1, 32))
    calls = []
    for _ in range(draw(st.integers(1, 40))):
        top += draw(st.integers(0, 40))     # new vertices pass the tables' end
        ids = draw(st.lists(st.integers(0, top - 1), max_size=48))
        if draw(st.booleans()):
            ids = sorted(set(ids))
        op = draw(st.sampled_from(["gather", "gather", "invalidate"]))
        calls.append((op, np.array(ids, dtype=np.int64)))
    return capacity, calls


@settings(max_examples=300, deadline=None)
@given(call_streams())
def test_matches_reference_after_every_call(stream):
    assert_same_stream(*stream)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("capacity", [50, 700])
def test_long_zipf_streams_match_reference(seed, capacity):
    # Long enough that the touch log is compacted and grown several
    # times, with hot rows recurring.
    rng = np.random.default_rng(seed)
    calls, top = [], 2000
    for _ in range(120):
        top += int(rng.integers(0, 20))
        ids = rng.zipf(1.3, size=int(rng.integers(0, 500))) % top
        if rng.random() < 0.7:
            ids = np.unique(ids)
        op = "invalidate" if rng.random() < 0.3 else "gather"
        calls.append((op, ids.astype(np.int64)))
    assert_same_stream(capacity, calls)


def test_negative_vertex_ids_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        FeatureCache(4).gather(np.array([1, -1]), ROW_BYTES)


def test_keys_is_a_snapshot():
    c = FeatureCache(4)
    c.gather(np.array([1, 2]), ROW_BYTES)
    c.gather(np.array([3]), ROW_BYTES)
    c.gather(np.array([1]), ROW_BYTES)
    keys = c.keys()
    assert keys == [2, 3, 1]
    keys.clear()
    assert len(c.keys()) == 3
