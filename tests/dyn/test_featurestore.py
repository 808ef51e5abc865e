"""Tests for the versioned feature store and its cache coupling."""

import numpy as np
import pytest

from repro.dyn import FeatureStore
from repro.serve.cache import FeatureCache


def _store(n=6, dim=3, **kw):
    rng = np.random.default_rng(0)
    return FeatureStore(rng.normal(size=(n, dim)), **kw)


class TestFeatureStore:
    def test_put_overwrites_and_versions(self):
        s = _store()
        rows = np.ones((2, 3))
        assert s.put(np.array([1, 4]), rows) == 1
        assert s.version == 1
        np.testing.assert_array_equal(s.rows(np.array([1, 4])), rows)

    def test_source_matrix_is_copied(self):
        src = np.zeros((4, 2))
        s = FeatureStore(src)
        s.put(np.array([0]), np.ones((1, 2)))
        assert src[0, 0] == 0.0

    def test_matrix_view_is_read_only(self):
        s = _store()
        with pytest.raises(ValueError):
            s.matrix[0, 0] = 1.0

    def test_put_ledger_is_exact(self):
        s = _store(dim=3)
        s.put(np.array([0, 1]), np.zeros((2, 3)))
        s.put(np.array([2]), np.zeros((1, 3)))
        assert s.put_bytes == 3 * 3 * 8
        assert s.io_bytes == s.put_bytes

    def test_validation(self):
        s = _store(n=4, dim=2)
        with pytest.raises(ValueError, match="shape"):
            s.put(np.array([0]), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="unique"):
            s.put(np.array([1, 1]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="lie in"):
            s.put(np.array([9]), np.zeros((1, 2)))
        with pytest.raises(ValueError, match="empty put"):
            s.put(np.array([], dtype=np.int64), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="2-D"):
            FeatureStore(np.zeros(4))

    def test_add_vertices(self):
        s = _store(n=4, dim=2)
        rows = np.full((3, 2), 7.0)
        assert s.add_vertices(rows) == 1
        assert s.num_vertices == 7
        np.testing.assert_array_equal(s.rows(np.array([4, 5, 6])), rows)
        assert s.grow_bytes == rows.nbytes
        with pytest.raises(ValueError, match="empty growth"):
            s.add_vertices(np.zeros((0, 2)))

    def test_snapshot_at_replays_the_log(self):
        s = _store(n=4, dim=2)
        v0 = s.matrix.copy()
        s.put(np.array([1]), np.ones((1, 2)))
        s.add_vertices(np.full((1, 2), 5.0))
        s.put(np.array([4]), np.zeros((1, 2)))
        np.testing.assert_array_equal(s.snapshot_at(0), v0)
        snap1 = s.snapshot_at(1)
        assert snap1.shape == (4, 2) and snap1[1, 0] == 1.0
        assert s.snapshot_at(2).shape == (5, 2)
        np.testing.assert_array_equal(s.snapshot_at(), s.matrix)
        np.testing.assert_array_equal(s.snapshot_at(3), s.matrix)
        with pytest.raises(ValueError, match="version"):
            s.snapshot_at(4)

    def test_rows_returns_a_copy(self):
        s = _store()
        r = s.rows(np.array([0]))
        r[0, 0] = 123.0
        assert s.matrix[0, 0] != 123.0


class TestCacheCoupling:
    def test_put_invalidates_resident_rows(self):
        cache = FeatureCache(capacity_rows=8)
        s = _store(cache=cache)
        cache.gather(np.array([1, 2]), 8)
        s.put(np.array([2, 3]), np.zeros((2, 3)))
        # 2 was resident (invalidated); 3 was not (nothing to do).
        assert cache.invalidations == 1
        split = cache.gather(np.array([1, 2, 3]), 8)
        assert split.hit_rows == 1
        assert split.invalidated_rows == 1
        assert split.miss_rows == 1

    def test_growth_needs_no_invalidation(self):
        cache = FeatureCache(capacity_rows=8)
        s = _store(cache=cache)
        cache.gather(np.arange(6), 8)
        s.add_vertices(np.zeros((2, 3)))
        assert cache.invalidations == 0

    def test_uncoupled_store_works(self):
        s = _store(cache=None)
        s.put(np.array([0]), np.zeros((1, 3)))  # no cache, no error
        assert s.version == 1


class TestStorageDtypes:
    """The declared dtype shrinks the write ledger and rounds rows to
    what the storage format can actually hold."""

    def test_default_is_float64_reference(self):
        s = _store(dim=3)
        assert s.dtype == "float64"
        assert s.row_bytes == 3 * 8

    def test_float16_halves_the_put_ledger(self):
        full = _store(dim=4)
        half = _store(dim=4, dtype="float16")
        assert half.row_bytes * 4 == full.row_bytes
        rows = np.full((2, 4), 0.5)
        full.put(np.array([0, 1]), rows)
        half.put(np.array([0, 1]), rows)
        assert half.put_bytes * 4 == full.put_bytes

    def test_float16_rows_are_stored_at_half(self):
        s = _store(dim=3, dtype="float16")
        x = np.array([[1.0, 1.0 + 2.0 ** -12, -2.0]])
        s.put(np.array([2]), x)
        got = s.rows(np.array([2]))
        np.testing.assert_array_equal(
            got, x.astype(np.float16).astype(got.dtype)
        )

    def test_qint8_rows_carry_scale_bytes(self):
        s = _store(dim=6, dtype="qint8")
        assert s.row_bytes == 6 + 4
        s.put(np.array([0]), np.ones((1, 6)))
        assert s.put_bytes == 10

    def test_qint8_round_trips_through_quantisation(self):
        from repro.ir.precision import quantize_dequantize

        s = _store(dim=4, dtype="qint8")
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4))
        s.put(np.array([0, 1]), x)
        np.testing.assert_array_equal(
            s.rows(np.array([0, 1])),
            quantize_dequantize(x.astype(np.float32)),
        )

    def test_grow_ledger_charges_storage_width(self):
        s = _store(n=4, dim=2, dtype="float16")
        s.add_vertices(np.ones((3, 2)))
        assert s.grow_bytes == 3 * 2 * 2

    def test_snapshot_is_bit_exact_under_quantisation(self):
        # The log records *stored* rows, so the replayed snapshot equals
        # the live matrix bit for bit even though puts are lossy.
        s = _store(n=5, dim=3, dtype="qint8")
        rng = np.random.default_rng(4)
        s.put(np.array([0, 2]), rng.normal(size=(2, 3)))
        s.add_vertices(rng.normal(size=(2, 3)))
        s.put(np.array([5]), rng.normal(size=(1, 3)))
        np.testing.assert_array_equal(s.snapshot_at(), s.matrix)

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError, match="unknown dtype"):
            _store(dtype="floatX")
