"""Tests for synthetic topology generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    batch_point_clouds,
    chung_lu,
    disjoint_union,
    erdos_renyi,
    knn_graph,
    sample_point_cloud,
)
from repro.graph.generators import POINT_CLOUD_SHAPES


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = erdos_renyi(50, 123, seed=0)
        assert g.num_edges == 123
        assert g.num_vertices == 50

    def test_deterministic(self):
        a, b = erdos_renyi(30, 60, seed=5), erdos_renyi(30, 60, seed=5)
        assert (a.src == b.src).all() and (a.dst == b.dst).all()

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            erdos_renyi(0, 5)


class TestChungLu:
    def test_exact_edge_count(self):
        g = chung_lu(100, 500, seed=1)
        assert g.num_edges == 500

    def test_heavier_tail_than_uniform(self):
        heavy = chung_lu(2000, 20_000, alpha=1.5, seed=2)
        uniform = erdos_renyi(2000, 20_000, seed=2)
        assert heavy.in_degrees.max() > 2 * uniform.in_degrees.max()

    @settings(max_examples=10, deadline=None)
    @given(alpha=st.floats(min_value=1.2, max_value=3.0))
    def test_alpha_variations_valid(self, alpha):
        g = chung_lu(200, 1000, alpha=alpha, seed=3)
        assert g.num_edges == 1000
        assert int(g.in_degrees.sum()) == 1000


class TestPointClouds:
    @pytest.mark.parametrize("shape", sorted(POINT_CLOUD_SHAPES))
    def test_shapes_produce_3d_points(self, shape):
        pts = sample_point_cloud(shape, 128, seed=4)
        assert pts.shape == (128, 3)
        assert np.isfinite(pts).all()

    def test_unknown_shape_raises(self):
        with pytest.raises(KeyError, match="unknown shape"):
            sample_point_cloud("dodecahedron", 10)

    def test_jitter_zero_is_on_surface(self):
        pts = sample_point_cloud("sphere", 256, jitter=0.0, seed=0)
        radii = np.linalg.norm(pts, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-9)


class TestKnnGraph:
    def test_regular_in_degree(self):
        pts = sample_point_cloud("sphere", 100, seed=1)
        g = knn_graph(pts, 7)
        assert (g.in_degrees == 7).all()
        assert g.num_edges == 700

    def test_no_self_loops(self):
        pts = sample_point_cloud("torus", 64, seed=2)
        g = knn_graph(pts, 5)
        assert (g.src != g.dst).all()

    def test_neighbours_are_actually_near(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3))
        g = knn_graph(pts, 3)
        # Every edge's length must be within the 3 smallest distances.
        d = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        np.fill_diagonal(d, np.inf)
        kth = np.sort(d, axis=1)[:, 2]
        lengths = np.linalg.norm(pts[g.src] - pts[g.dst], axis=1)
        assert (lengths <= kth[g.dst] + 1e-9).all()

    def test_coincident_points_are_neighbours_not_self_loops(self):
        pts = np.array([[0, 0], [0, 0], [1, 0], [2, 0], [0, 0]], dtype=float)
        g = knn_graph(pts, 2)
        assert (g.src != g.dst).all()
        assert (g.in_degrees == 2).all()
        in_of = {v: sorted(g.src[g.dst == v].tolist()) for v in (0, 1, 4)}
        assert in_of == {0: [1, 4], 1: [0, 4], 4: [0, 1]}

    def test_more_copies_than_k_plus_one(self):
        # Five copies, k=2: a copy's k+1 nearest may all be other copies.
        pts = np.zeros((5, 3))
        g = knn_graph(pts, 2)
        assert (g.src != g.dst).all()
        assert (g.in_degrees == 2).all()

    def test_rejects_bad_k(self):
        pts = sample_point_cloud("cube", 10, seed=0)
        with pytest.raises(ValueError):
            knn_graph(pts, 0)
        with pytest.raises(ValueError):
            knn_graph(pts, 10)


class TestBatching:
    def test_disjoint_union_offsets(self):
        a = erdos_renyi(5, 8, seed=0)
        b = erdos_renyi(7, 9, seed=1)
        u = disjoint_union([a, b])
        assert u.num_vertices == 12
        assert u.num_edges == 17
        # Second graph's edges shifted beyond the first graph's ids.
        assert (u.src[8:] >= 5).all() and (u.dst[8:] >= 5).all()

    def test_disjoint_union_empty_list(self):
        with pytest.raises(ValueError):
            disjoint_union([])

    def test_batch_point_clouds(self):
        g, pts = batch_point_clouds(3, 50, 4, seed=0)
        assert g.num_vertices == 150
        assert pts.shape == (150, 3)
        assert (g.in_degrees == 4).all()
        # No cross-cloud edges: each block of 50 self-contained.
        blocks_src = g.src // 50
        blocks_dst = g.dst // 50
        assert (blocks_src == blocks_dst).all()
