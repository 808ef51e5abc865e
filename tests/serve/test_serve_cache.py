"""Tests for the bounded LRU feature cache and its byte accounting."""

import numpy as np
import pytest

import repro
from repro.serve.cache import FeatureCache
from tests.helpers import (
    ReferenceFeatureCache,
    cache_state,
    recording_cache,
    replay_cache_calls,
)

#: The serve-read / serve-mixed benchmark streams (gat on pubmed, seed 5).
SERVE_STREAMS = {
    "serve-read": {},
    "serve-mixed": {"update_frac": 0.3, "compact_every": 4},
}


@pytest.fixture(scope="module", params=sorted(SERVE_STREAMS))
def serve_stream(request):
    """Every gather / invalidate call one ``serve()`` makes on its cache."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("repro.serve.server.FeatureCache", recording_cache(calls))
        (
            repro.session().model("gat").dataset("pubmed").strategy("ours")
            .feature_dim(32).gpu("V100")
            .serve(num_requests=256, qps=8000.0, seeds_per_request=4,
                   zipf_alpha=0.9, cache_rows=8192, seed=5, execute=False,
                   **SERVE_STREAMS[request.param])
        )
    return calls


class TestRecordedServeStreams:
    """The recorded streams replayed into the cache and the row-by-row
    oracle, compared after every call.  8192 rows is what the benchmark
    serves with (the cache fills, then evicts); 700 evicts every call
    and bypasses once a field outgrows it; 64 bypasses most rows; 0
    disables caching."""

    @pytest.mark.parametrize("capacity", [8192, 700, 64, 0])
    def test_replay_matches_reference(self, serve_stream, capacity):
        got = FeatureCache(capacity)
        want = ReferenceFeatureCache(capacity)
        pairs = zip(
            replay_cache_calls(serve_stream, got),
            replay_cache_calls(serve_stream, want),
        )
        for step, (a, b) in enumerate(pairs):
            assert a == b, step
            assert cache_state(got) == cache_state(want), step
        assert got.lookups == sum(
            call[1].size for call in serve_stream if call[0] == "gather"
        )
        if capacity:
            assert got.evictions > 0
        if capacity in (700, 64):
            assert got.pinned_bypasses > 0


class TestFeatureCache:
    def test_miss_then_hit(self):
        c = FeatureCache(capacity_rows=10)
        first = c.gather(np.array([1, 2, 3]), row_bytes=8)
        assert (first.hit_rows, first.miss_rows) == (0, 3)
        again = c.gather(np.array([1, 2, 3]), row_bytes=8)
        assert (again.hit_rows, again.miss_rows) == (3, 0)
        assert c.hits == 3 and c.misses == 3
        assert c.hit_rate == pytest.approx(0.5)

    def test_reconciliation_invariant(self):
        c = FeatureCache(capacity_rows=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            rows = rng.integers(0, 12, size=rng.integers(1, 8))
            split = c.gather(rows, row_bytes=16)
            assert split.hit_bytes + split.miss_bytes == rows.size * 16
            assert split.bytes == rows.size * 16
        assert c.hit_bytes + c.miss_bytes == 16 * c.lookups

    def test_lru_eviction_order(self):
        c = FeatureCache(capacity_rows=2)
        c.gather(np.array([1]), 4)
        c.gather(np.array([2]), 4)
        c.gather(np.array([1]), 4)     # 1 becomes most-recent
        c.gather(np.array([3]), 4)     # evicts 2
        assert 1 in c and 3 in c and 2 not in c
        assert c.evictions == 1

    def test_capacity_zero_disables(self):
        c = FeatureCache(0)
        split = c.gather(np.array([1, 1, 2]), 4)
        assert split.hit_rows == 0 and split.miss_rows == 3
        assert len(c) == 0
        # Repeats still miss: nothing is retained.
        assert c.gather(np.array([1]), 4).miss_rows == 1

    def test_duplicate_rows_in_one_gather_hit_after_first(self):
        c = FeatureCache(capacity_rows=4)
        split = c.gather(np.array([5, 5, 5]), 4)
        assert (split.hit_rows, split.miss_rows) == (2, 1)

    def test_clear(self):
        c = FeatureCache(capacity_rows=4)
        c.gather(np.array([1, 2]), 4)
        c.clear()
        assert len(c) == 0 and c.hits == 0 and c.misses == 0
        assert c.hit_bytes == 0 and c.miss_bytes == 0 and c.evictions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FeatureCache(-1)
        with pytest.raises(ValueError):
            FeatureCache(4).gather(np.array([1]), row_bytes=-2)


class TestPinDuringBatch:
    def test_overflowing_batch_never_evicts_its_own_rows(self):
        # A miss burst larger than capacity must not evict rows this
        # same gather already fetched (the batch is about to bind them).
        c = FeatureCache(capacity_rows=2)
        split = c.gather(np.array([1, 2, 3, 4]), 8)
        assert split.miss_rows == 4
        # The first `capacity` rows stay resident; the overflow rows
        # bypass insertion instead of churning the pinned ones.
        assert 1 in c and 2 in c
        assert 3 not in c and 4 not in c
        assert c.evictions == 0
        assert c.pinned_bypasses == 2
        # Pinned rows survive into the next batch as hits.
        again = c.gather(np.array([1, 2]), 8)
        assert again.hit_rows == 2

    def test_bypassed_rows_still_pay_miss_bytes(self):
        c = FeatureCache(capacity_rows=1)
        split = c.gather(np.array([7, 8, 9]), 16)
        assert split.miss_bytes == 3 * 16
        assert split.bytes == 3 * 16
        assert c.pinned_bypasses == 2

    def test_other_batches_rows_are_evicted_first(self):
        c = FeatureCache(capacity_rows=2)
        c.gather(np.array([1, 2]), 4)      # resident: 1, 2
        split = c.gather(np.array([3, 4]), 4)
        assert split.miss_rows == 2
        # The old batch's rows go, the new batch's rows stay.
        assert 3 in c and 4 in c
        assert 1 not in c and 2 not in c
        assert c.evictions == 2 and c.pinned_bypasses == 0

    def test_duplicate_vertex_in_overflowing_batch_hits(self):
        c = FeatureCache(capacity_rows=1)
        split = c.gather(np.array([5, 5, 6, 6]), 4)
        # 5 misses then hits; 6 bypasses (5 is pinned) then misses again.
        assert split.hit_rows == 1
        assert split.miss_rows == 3
        assert c.pinned_bypasses == 2


class TestInvalidation:
    def test_regather_attributed_to_invalidation_not_cold_miss(self):
        c = FeatureCache(capacity_rows=8)
        c.gather(np.array([1, 2, 3]), 8)
        assert c.invalidate(np.array([2])) == 1
        split = c.gather(np.array([1, 2, 3]), 8)
        assert (split.hit_rows, split.miss_rows) == (2, 0)
        assert split.invalidated_rows == 1
        assert split.invalidated_bytes == 8
        assert split.paid_bytes == 8
        assert c.invalidations == 1 and c.invalidated == 1

    def test_non_resident_rows_do_not_count(self):
        # Invalidating a row that was never cached must not reclassify
        # its eventual cold miss as drift traffic.
        c = FeatureCache(capacity_rows=8)
        assert c.invalidate(np.array([5])) == 0
        split = c.gather(np.array([5]), 8)
        assert split.miss_rows == 1 and split.invalidated_rows == 0

    def test_reconciliation_with_invalidation(self):
        c = FeatureCache(capacity_rows=4)
        rng = np.random.default_rng(1)
        for _ in range(40):
            if rng.random() < 0.3:
                c.invalidate(rng.integers(0, 12, size=3))
            rows = rng.integers(0, 12, size=rng.integers(1, 8))
            split = c.gather(rows, row_bytes=16)
            assert (
                split.hit_bytes + split.miss_bytes + split.invalidated_bytes
                == rows.size * 16
            )
        assert (
            c.hit_bytes + c.miss_bytes + c.invalidated_bytes
            == 16 * c.lookups
        )

    def test_capacity_zero_never_invalidates(self):
        c = FeatureCache(0)
        c.gather(np.array([1]), 4)
        assert c.invalidate(np.array([1])) == 0
        split = c.gather(np.array([1]), 4)
        assert split.invalidated_rows == 0 and split.miss_rows == 1

    def test_clear_resets_stale_marks(self):
        c = FeatureCache(capacity_rows=4)
        c.gather(np.array([1]), 4)
        c.invalidate(np.array([1]))
        c.clear()
        split = c.gather(np.array([1]), 4)
        assert split.invalidated_rows == 0 and split.miss_rows == 1
        assert c.invalidations == 0 and c.pinned_bypasses == 0
