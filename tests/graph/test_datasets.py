"""Tests for the named dataset registry."""

import mmap
import tracemalloc

import numpy as np
import pytest

from repro.graph import get_dataset, list_datasets


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            get_dataset("ogbn-papers100M")

    def test_all_listed_names_buildable_metadata(self):
        for name in list_datasets():
            if name.startswith("modelnet40-b64") or name == "modelnet40-b32-k40":
                continue  # big k-NN builds exercised elsewhere
            ds = get_dataset(name)
            assert ds.stats.num_vertices > 0

    def test_cached(self):
        assert get_dataset("cora") is get_dataset("cora")
        assert get_dataset("cora", fresh=True) is not get_dataset("cora")


class TestPublishedShapes:
    @pytest.mark.parametrize(
        "name,v,e,f,c",
        [
            ("cora", 2708, 10556, 1433, 7),
            ("citeseer", 3327, 9104, 3703, 6),
            ("pubmed", 19717, 88648, 500, 3),
        ],
    )
    def test_citation_graphs(self, name, v, e, f, c):
        ds = get_dataset(name)
        assert ds.stats.num_vertices == v
        assert ds.stats.num_edges == e
        assert ds.feature_dim == f
        assert ds.num_classes == c
        assert ds.has_concrete_graph
        g = ds.graph()
        assert g.num_edges == e

    def test_reddit_lite_scale(self):
        ds = get_dataset("reddit-lite")
        assert ds.stats.num_vertices == 23_297
        assert ds.stats.num_edges == 1_146_158
        # Heavy tail preserved.
        assert ds.stats.degree_imbalance() > 20

    def test_reddit_full_is_stats_only(self):
        ds = get_dataset("reddit-full")
        assert ds.stats.num_vertices == 232_965
        assert ds.stats.num_edges == 114_615_892
        assert not ds.has_concrete_graph
        with pytest.raises(RuntimeError, match="stats-only"):
            ds.graph()


class TestDataGeneration:
    def test_features_shape_and_determinism(self):
        ds = get_dataset("cora")
        f1 = ds.features(dim=32, seed=1)
        f2 = ds.features(dim=32, seed=1)
        assert f1.shape == (2708, 32)
        assert (f1 == f2).all()

    def test_default_feature_dim(self):
        ds = get_dataset("citeseer")
        assert ds.features(seed=0).shape == (3327, 3703)

    def test_labels_in_range(self):
        ds = get_dataset("pubmed")
        y = ds.labels(seed=0)
        assert y.shape == (19717,)
        assert y.min() >= 0 and y.max() < 3

    def test_ground_truth_labels_fixed(self):
        ds = get_dataset("cora")
        assert ds.has_labels
        assert (ds.labels() == ds.labels(seed=99)).all()

    def test_labels_are_mutation_safe(self):
        ds = get_dataset("cora")
        y = ds.labels()
        y[:10] = -1
        assert (ds.labels()[:10] >= 0).all()

    def test_reregistered_builder_invalidates_cache(self):
        from repro.registry import DATASETS, register_dataset

        first = get_dataset("cora")
        original = DATASETS.get("cora")
        try:
            register_dataset("cora", replace=True)(lambda: first)
            # New builder registered: the cache must not serve a
            # dataset built by the old one.
            assert get_dataset("cora") is first
        finally:
            DATASETS.add("cora", original, replace=True)

    def test_stats_only_has_no_labels(self):
        ds = get_dataset("reddit-full")
        assert not ds.has_labels
        # Fallback random labels remain available and seed-dependent.
        assert ds.labels(seed=0).shape == (232_965,)

    def test_labeled_features_stay_seed_dependent_and_full_rank(self):
        import numpy as np

        from repro.graph.datasets import Dataset, _plant_labels
        from repro.graph.generators import chung_lu

        g = chung_lu(30, 120, seed=2)
        ds = _plant_labels(
            Dataset(
                name="tiny", feature_dim=6, num_classes=3,
                stats=g.stats(), _graph=g,
            ),
            seed=5,
        )
        # Seeds must still matter at any width (only the leading label
        # columns are deterministic).
        assert not (ds.features(dim=2, seed=1) == ds.features(dim=2, seed=2)).all()
        # Widths above the published dim must not collapse in rank.
        wide = ds.features(dim=12, seed=1)
        assert np.linalg.matrix_rank(wide) == 12

    def test_reduced_width_features_carry_label_signal(self):
        import numpy as np

        ds = get_dataset("cora")
        X = ds.features(dim=32, seed=1)
        y = ds.labels()
        onehot = np.eye(ds.num_classes)[y]
        w, *_ = np.linalg.lstsq(X, onehot, rcond=None)
        accuracy = ((X @ w).argmax(axis=1) == y).mean()
        # A linear probe must beat chance (1/7) by a wide margin.
        assert accuracy > 0.5

    def test_modelnet_batch(self):
        ds = get_dataset("modelnet40-b32-k20")
        assert ds.stats.num_vertices == 32 * 1024
        assert (ds.stats.in_degrees == 20).all()
        assert ds.points is not None
        assert ds.points.shape == (32 * 1024, 3)


class TestFeaturesReadCachedScores:
    """`features()` reads the |V| × classes score matrix kept from label
    planting; the oracle is the regenerating formula it replaced."""

    @pytest.mark.parametrize("name", ["cora", "citeseer", "pubmed"])
    def test_bit_identical_to_regenerating_the_canonical_matrix(self, name):
        ds = get_dataset(name)
        n = ds.stats.num_vertices
        scores = ds._label_scores
        for dim, seed in ((ds.feature_dim, 0), (32, 5), (5, 2)):
            want = np.random.default_rng(seed).normal(
                scale=1.0 / np.sqrt(dim), size=(n, dim)
            )
            if (dim, seed) != (ds.feature_dim, 0):
                keep = min(scores.shape[1], max(1, dim // 2))
                want[:, :keep] = scores[:, :keep] / np.sqrt(dim)
            got = ds.features(dim, seed=seed)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_returned_array_is_fresh_writable_and_caller_owned(self):
        ds = get_dataset("cora")
        reduced = ds.features(16, seed=3)
        canonical = ds.features()
        labels = ds.labels()
        for dim, seed in ((16, 3), (ds.feature_dim, 0)):
            scratch = ds.features(dim, seed=seed)
            assert scratch.flags.writeable and scratch.base is None
            scratch[:] = 7.0  # what the perf serve oracle does with puts
        assert np.array_equal(ds.features(16, seed=3), reduced)
        assert np.array_equal(ds.features(), canonical)
        assert np.array_equal(ds.labels(), labels)


# ----------------------------------------------------------------------
# Label planting in row chunks
# ----------------------------------------------------------------------
#: Each planted dataset's weight seed (its builder's ``seed``).
_PLANT_SEEDS = {"cora": 11, "citeseer": 13, "pubmed": 17, "reddit-lite": 7,
                "modelnet40-b32-k20": 3}


def _scores_equal_the_whole_product(name: str) -> None:
    ds = get_dataset(name)
    w = np.random.default_rng(_PLANT_SEEDS[name]).normal(
        size=(ds.feature_dim, ds.num_classes)
    )
    want = ds.features(seed=0) @ w
    assert np.array_equal(ds._label_scores.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(ds._labels, want.argmax(axis=1))
    assert ds._labels.dtype == np.int64


def _chunks_are_near_equal_and_large(name: str) -> None:
    from repro.graph.datasets import _PLANT_CHUNK_BYTES, _plant_chunks

    # pubmed's 19717 rows do not split evenly into 3, nor reddit-lite's
    # into 4, nor 4097 rows of 8 KiB into 2.
    for rows, dim, classes in ((19_717, 500, 3), (23_297, 602, 41), (4_097, 1_024, 2)):
        chunks = _plant_chunks(rows, dim)
        assert len(chunks) == -(-rows * dim * 8 // _PLANT_CHUNK_BYTES)
        assert [a for a, _ in chunks] == [0] + [b for _, b in chunks[:-1]]
        assert chunks[-1][1] == rows
        sizes = [b - a for a, b in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert len(set(sizes)) == 2  # a shape that does not divide evenly
        assert all(r * dim * 8 <= _PLANT_CHUNK_BYTES for r in sizes)
        assert all(r * dim * classes >= 2_000_000 * classes for r in sizes)
    # cora's 29.6 MiB and a matrix of exactly the bound are one chunk.
    assert _plant_chunks(2_708, 1_433) == [(0, 2_708)]
    assert _plant_chunks(4_096, 1_024) == [(0, 4_096)]
    assert _plant_chunks(0, 500) == [(0, 0)]


def _fresh_build_peaks_one_chunk_above_what_it_keeps(name: str) -> None:
    # tracemalloc sees NumPy's allocations; the chunks' anonymous
    # mapping is outside malloc, so its size is counted on top.
    mapped = []
    real = mmap.mmap

    def spy(fileno, length, *args, **kwargs):
        mapped.append(length)
        return real(fileno, length, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mmap, "mmap", spy)
        tracemalloc.start()
        try:
            ds = get_dataset(name, fresh=True)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert ds.has_labels
    transient = peak - retained + sum(mapped)
    assert transient <= 33 << 20, (peak / 2**20, retained / 2**20, mapped)
    assert len(mapped) == 1


_PLANTING = {
    "scores": (_scores_equal_the_whole_product,
               ("cora", "citeseer", "pubmed", "reddit-lite", "modelnet40-b32-k20")),
    "chunks": (_chunks_are_near_equal_and_large, ("shapes",)),
    "peak": (_fresh_build_peaks_one_chunk_above_what_it_keeps,
             ("pubmed", "citeseer", "reddit-lite")),
}


@pytest.mark.parametrize(
    "check,name",
    [(check, name) for check, (_, names) in _PLANTING.items() for name in names],
)
def test_label_planting_in_row_chunks(check, name):
    _PLANTING[check][0](name)
