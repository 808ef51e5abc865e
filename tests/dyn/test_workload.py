"""Tests for the seeded update/read mixed-workload generator."""

import numpy as np
import pytest

from repro.dyn import UpdateEvent, GraphDelta, mixed_workload


def _gen(**kw):
    base = dict(
        qps=1000.0, num_vertices=50, feature_dim=4, update_frac=0.3, seed=0
    )
    base.update(kw)
    return mixed_workload(64, **base)


class TestUpdateEvent:
    def test_validation(self):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="write something"):
            UpdateEvent(0, 0.0, empty, np.zeros((0, 4)))
        with pytest.raises(ValueError, match="one row per feature vertex"):
            UpdateEvent(0, 0.0, np.array([1]), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="non-negative"):
            UpdateEvent(0, -1.0, np.array([1]), np.zeros((1, 4)))
        delta = GraphDelta(src=[0], dst=[1], num_new_vertices=2)
        with pytest.raises(ValueError, match="new_vertex_rows"):
            UpdateEvent(0, 0.0, empty, np.zeros((0, 4)), delta=delta)
        with pytest.raises(ValueError, match="one row per inserted vertex"):
            UpdateEvent(
                0, 0.0, empty, np.zeros((0, 4)),
                delta=delta, new_vertex_rows=np.zeros((1, 4)),
            )

    def test_counters(self):
        delta = GraphDelta(src=[0, 1], dst=[1, 2], num_new_vertices=1)
        ev = UpdateEvent(
            0, 1.0, np.array([], dtype=np.int64), np.zeros((0, 4)),
            delta=delta, new_vertex_rows=np.zeros((1, 4)),
        )
        assert ev.num_edges == 2 and ev.num_new_vertices == 1
        assert ev.num_feature_rows == 0


class TestMixedWorkload:
    def test_deterministic_in_the_seed(self):
        r1, u1 = _gen()
        r2, u2 = _gen()
        assert len(r1) == len(r2) == 64
        assert len(u1) == len(u2)
        for a, b in zip(r1, r2):
            assert a.arrival_s == b.arrival_s
            np.testing.assert_array_equal(a.seeds, b.seeds)
        for a, b in zip(u1, u2):
            assert a.arrival_s == b.arrival_s
            np.testing.assert_array_equal(a.feature_vertices, b.feature_vertices)
            np.testing.assert_array_equal(a.feature_rows, b.feature_rows)
            assert (a.delta is None) == (b.delta is None)
            if a.delta is not None:
                np.testing.assert_array_equal(a.delta.src, b.delta.src)
                np.testing.assert_array_equal(a.delta.dst, b.delta.dst)
        r3, _ = _gen(seed=1)
        assert any(
            a.arrival_s != b.arrival_s for a, b in zip(r1, r3)
        )

    def test_zero_update_frac_is_read_only(self):
        requests, updates = _gen(update_frac=0.0)
        assert updates == [] and len(requests) == 64

    def test_arrivals_sorted_and_interleaved(self):
        requests, updates = _gen()
        times = [r.arrival_s for r in requests]
        assert times == sorted(times)
        utimes = [u.arrival_s for u in updates]
        assert utimes == sorted(utimes)
        assert [u.update_id for u in updates] == list(range(len(updates)))
        # One event process: writes land inside the read time span.
        assert updates and min(utimes) < max(times)

    def test_update_frac_moves_the_write_share(self):
        _, few = _gen(update_frac=0.1)
        _, many = _gen(update_frac=0.5)
        assert len(many) > len(few) > 0

    def test_edge_frac_splits_event_kinds(self):
        _, only_features = _gen(edge_frac=0.0)
        assert all(u.delta is None for u in only_features)
        _, only_edges = _gen(edge_frac=1.0)
        assert all(u.delta is not None for u in only_edges)
        assert all(u.num_feature_rows == 0 for u in only_edges)

    def test_zipf_skews_hot_vertices(self):
        _, updates = _gen(edge_frac=0.0, zipf_alpha=1.2, update_frac=0.5)
        touched = np.concatenate([u.feature_vertices for u in updates])
        lo = np.mean(touched < 10)
        assert lo > 0.5  # hot head dominates under skew

    def test_new_vertices_grow_the_space(self):
        _, updates = _gen(
            edge_frac=1.0, new_vertex_prob=1.0, update_frac=0.5
        )
        assert all(u.num_new_vertices == 2 for u in updates)
        assert all(u.new_vertex_rows.shape == (2, 4) for u in updates)
        # Later batches may reference the grown id space.
        grown = 50 + 2 * len(updates)
        hi = max(int(max(u.delta.src.max(), u.delta.dst.max())) for u in updates)
        assert 50 <= hi < grown

    def test_reads_stay_in_the_initial_space(self):
        requests, _ = _gen(
            edge_frac=1.0, new_vertex_prob=1.0, update_frac=0.5
        )
        assert max(int(r.seeds.max()) for r in requests) < 50

    def test_validation(self):
        with pytest.raises(ValueError, match="num_requests"):
            mixed_workload(0, qps=1.0, num_vertices=5, feature_dim=2)
        with pytest.raises(ValueError, match="qps"):
            mixed_workload(1, qps=0.0, num_vertices=5, feature_dim=2)
        for qps in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"got {qps}"):
                mixed_workload(1, qps=qps, num_vertices=5, feature_dim=2)
        with pytest.raises(ValueError, match="update_frac"):
            _gen(update_frac=1.0)
        with pytest.raises(ValueError, match="edge_frac"):
            _gen(edge_frac=1.5)
        with pytest.raises(ValueError, match="new_vertex_prob"):
            _gen(new_vertex_prob=-0.1)


def _naive_mixed(
    num_requests, *, qps, num_vertices, feature_dim, update_frac,
    seeds_per_request, zipf_alpha, new_vertex_prob, seed,
    edge_frac=0.5, feature_vertices=8, edges=16, new_vertices=2,
):
    """`mixed_workload` as a plain loop whose every draw is the
    per-call `Generator.choice` the shared CDF replaced."""
    from repro.serve.request import zipf_seed_probabilities

    rng = np.random.default_rng(seed)

    def draw(n, size):
        if zipf_alpha == 0.0:
            return rng.integers(0, n, size=size, dtype=np.int64)
        p = zipf_seed_probabilities(n, zipf_alpha)
        return rng.choice(n, size=size, replace=True, p=p)

    rate = qps / (1.0 - update_frac)
    reads, writes = [], []
    live, clock = num_vertices, 0.0
    while len(reads) < num_requests:
        clock += float(rng.exponential(1.0 / rate))
        if not (update_frac and rng.random() < update_frac):
            reads.append((clock, draw(num_vertices, seeds_per_request)))
        elif rng.random() >= edge_frac:
            vertices = np.unique(draw(live, min(feature_vertices, live)))
            rows = rng.normal(size=(vertices.size, feature_dim))
            writes.append((clock, vertices, rows, None, None, 0))
        else:
            grow = (
                new_vertices
                if new_vertex_prob and rng.random() < new_vertex_prob
                else 0
            )
            src = draw(live, edges)
            dst = rng.integers(0, live + grow, size=edges, dtype=np.int64)
            if grow:
                rng.normal(size=(grow, feature_dim))
            writes.append((clock, None, None, src, dst, grow))
            live += grow
    return reads, writes


@pytest.mark.parametrize("zipf_alpha", [0.0, 1.1])
@pytest.mark.parametrize("new_vertex_prob", [0.0, 0.6])
def test_mixed_workload_equals_naive_per_draw_choice(zipf_alpha, new_vertex_prob):
    kw = dict(
        qps=1000.0, num_vertices=120, feature_dim=4, update_frac=0.4,
        seeds_per_request=3, zipf_alpha=zipf_alpha,
        new_vertex_prob=new_vertex_prob, seed=9,
    )
    requests, updates = mixed_workload(80, **kw)
    reads, writes = _naive_mixed(80, **kw)
    assert len(requests) == len(reads) and len(updates) == len(writes)
    assert any(u.num_new_vertices for u in updates) == bool(new_vertex_prob)
    for r, (clock, seeds) in zip(requests, reads):
        assert r.arrival_s == clock
        np.testing.assert_array_equal(r.seeds, seeds)
    for u, (clock, vertices, rows, src, dst, grow) in zip(updates, writes):
        assert u.arrival_s == clock
        if vertices is not None:
            np.testing.assert_array_equal(u.feature_vertices, vertices)
            np.testing.assert_array_equal(u.feature_rows, rows)
        else:
            np.testing.assert_array_equal(u.delta.src, src)
            np.testing.assert_array_equal(u.delta.dst, dst)
            assert u.num_new_vertices == grow
