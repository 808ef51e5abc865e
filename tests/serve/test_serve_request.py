"""Tests for inference requests and the seeded workload generators."""

import numpy as np
import pytest

from repro.serve.request import (
    InferenceRequest,
    SeedCDF,
    bursty_workload,
    draw_seeds,
    poisson_workload,
    zipf_seed_probabilities,
)


class TestInferenceRequest:
    def test_basic_fields(self):
        r = InferenceRequest(3, "t", np.array([1, 2]), 0.5, 0.01)
        assert r.num_seeds == 2
        assert r.deadline_s == pytest.approx(0.51)
        assert r.seeds.dtype == np.int64

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceRequest(0, "t", np.array([], dtype=np.int64), 0.0, 0.01)
        with pytest.raises(ValueError):
            InferenceRequest(0, "t", np.array([[1]]), 0.0, 0.01)
        with pytest.raises(ValueError):
            InferenceRequest(0, "t", np.array([1]), 0.0, 0.0)
        with pytest.raises(ValueError):
            InferenceRequest(0, "t", np.array([1]), -1.0, 0.01)


class TestZipf:
    def test_normalised_and_monotone(self):
        p = zipf_seed_probabilities(100, 1.2)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(np.diff(p) <= 0)

    def test_alpha_zero_is_uniform(self):
        p = zipf_seed_probabilities(10, 0.0)
        assert np.allclose(p, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            zipf_seed_probabilities(0, 1.0)
        with pytest.raises(ValueError):
            zipf_seed_probabilities(10, -1.0)

    def test_skew_concentrates_on_low_ids(self):
        rng = np.random.default_rng(0)
        seeds = draw_seeds(1000, 4000, rng=rng, zipf_alpha=1.5)
        assert (seeds < 10).mean() > 0.5


class TestPoissonWorkload:
    def test_shape_and_ordering(self):
        reqs = poisson_workload(
            50, qps=1000.0, num_vertices=100, seeds_per_request=3, seed=1
        )
        assert len(reqs) == 50
        arrivals = [r.arrival_s for r in reqs]
        assert arrivals == sorted(arrivals)
        assert all(r.num_seeds == 3 for r in reqs)
        assert all(0 <= r.seeds.min() and r.seeds.max() < 100 for r in reqs)
        assert [r.request_id for r in reqs] == list(range(50))

    def test_mean_rate_roughly_qps(self):
        reqs = poisson_workload(2000, qps=500.0, num_vertices=10, seed=0)
        span = reqs[-1].arrival_s
        assert 2000 / span == pytest.approx(500.0, rel=0.15)

    def test_same_seed_reproduces_identically(self):
        a = poisson_workload(30, qps=100.0, num_vertices=50, seed=7)
        b = poisson_workload(30, qps=100.0, num_vertices=50, seed=7)
        for ra, rb in zip(a, b):
            assert ra.arrival_s == rb.arrival_s
            assert np.array_equal(ra.seeds, rb.seeds)

    def test_different_seeds_differ(self):
        a = poisson_workload(30, qps=100.0, num_vertices=50, seed=7)
        b = poisson_workload(30, qps=100.0, num_vertices=50, seed=8)
        assert any(ra.arrival_s != rb.arrival_s for ra, rb in zip(a, b))

    def test_ignores_module_global_random_state(self):
        # The generators must never read np.random's global stream.
        np.random.seed(0)
        a = poisson_workload(10, qps=100.0, num_vertices=50, seed=3)
        np.random.seed(999)
        np.random.random(1234)
        b = poisson_workload(10, qps=100.0, num_vertices=50, seed=3)
        for ra, rb in zip(a, b):
            assert ra.arrival_s == rb.arrival_s
            assert np.array_equal(ra.seeds, rb.seeds)

    def test_explicit_generator_advances_one_stream(self):
        rng = np.random.default_rng(5)
        a = poisson_workload(10, qps=100.0, num_vertices=50, rng=rng)
        b = poisson_workload(10, qps=100.0, num_vertices=50, rng=rng)
        assert any(
            ra.arrival_s != rb.arrival_s for ra, rb in zip(a, b)
        ), "a shared Generator must keep drawing, not reset"

    def test_rejects_legacy_random_state(self):
        with pytest.raises(TypeError):
            poisson_workload(
                5, qps=10.0, num_vertices=10, rng=np.random.RandomState(0)
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_workload(0, qps=10.0, num_vertices=10)
        with pytest.raises(ValueError):
            poisson_workload(5, qps=0.0, num_vertices=10)

    @pytest.mark.parametrize("make", [poisson_workload, bursty_workload])
    @pytest.mark.parametrize("qps", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_qps(self, make, qps):
        with pytest.raises(ValueError, match=f"qps .*got {qps}"):
            make(5, qps=qps, num_vertices=10)

    def test_start_id_offsets_request_ids(self):
        reqs = poisson_workload(
            5, qps=10.0, num_vertices=10, seed=0, start_id=100
        )
        assert [r.request_id for r in reqs] == [100, 101, 102, 103, 104]


class TestBurstyWorkload:
    def test_requests_arrive_in_bursts(self):
        reqs = bursty_workload(
            40, qps=1000.0, num_vertices=100, burst=8, seed=2
        )
        assert len(reqs) == 40
        arrivals = np.array([r.arrival_s for r in reqs])
        # Whole bursts share one arrival instant.
        for i in range(0, 40, 8):
            assert np.all(arrivals[i:i + 8] == arrivals[i])
        assert len(np.unique(arrivals)) == 5

    def test_mean_rate_matches_qps(self):
        reqs = bursty_workload(
            4000, qps=800.0, num_vertices=10, burst=16, seed=0
        )
        span = reqs[-1].arrival_s
        assert 4000 / span == pytest.approx(800.0, rel=0.2)

    def test_truncates_final_burst(self):
        reqs = bursty_workload(10, qps=100.0, num_vertices=10, burst=4, seed=0)
        assert len(reqs) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            bursty_workload(5, qps=10.0, num_vertices=10, burst=0)


class TestSeedCDF:
    """Validation moved from every `Generator.choice` call to the one
    place a stream builds its CDF; the messages are `choice`'s."""

    @pytest.mark.parametrize(
        "p",
        [
            np.full(10, 0.2),  # sums to 2
            np.array([0.5, 0.5, np.nan]),
            np.array([1.5, -0.5]),
            np.full((2, 2), 0.25),
        ],
    )
    def test_rejects_what_generator_choice_rejects(self, p):
        with pytest.raises(ValueError) as ours:
            SeedCDF(p)
        with pytest.raises(ValueError) as numpys:
            np.random.default_rng(0).choice(p.shape[0], size=2, p=p)
        assert str(numpys.value).lower().startswith(str(ours.value).lower())

    def test_draw_seeds_validates_a_raw_probability_vector(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="do not sum to 1"):
            draw_seeds(10, 3, rng=rng, zipf_alpha=1.0, p=np.full(10, 0.2))

    def test_draw_seeds_rejects_a_cdf_for_another_vertex_count(self):
        cdf = SeedCDF(zipf_seed_probabilities(10, 1.0))
        with pytest.raises(ValueError, match="same size"):
            draw_seeds(11, 3, rng=np.random.default_rng(0), zipf_alpha=1.0, p=cdf)

    def test_rebuilding_per_call_draws_the_same_seeds(self):
        p = zipf_seed_probabilities(300, 1.1)
        draws = [
            draw_seeds(300, 9, rng=np.random.default_rng(4), zipf_alpha=1.1, p=q)
            for q in (None, p, SeedCDF(p))
        ]
        assert np.array_equal(draws[0], draws[1])
        assert np.array_equal(draws[0], draws[2])


def _naive_seeds(rng, num_vertices, size, alpha):
    """The per-request sampler the streams used before the shared CDF."""
    if alpha == 0.0:
        return rng.integers(0, num_vertices, size=size, dtype=np.int64)
    p = zipf_seed_probabilities(num_vertices, alpha)
    return rng.choice(num_vertices, size=size, replace=True, p=p)


@pytest.mark.parametrize("alpha", [0.0, 0.9, 1.6])
@pytest.mark.parametrize("seeds_per_request", [1, 4])
class TestStreamsEqualNaivePerRequestChoice:
    def test_poisson(self, alpha, seeds_per_request):
        reqs = poisson_workload(
            60, qps=500.0, num_vertices=700,
            seeds_per_request=seeds_per_request, zipf_alpha=alpha, seed=11,
        )
        rng = np.random.default_rng(11)
        arrivals = np.cumsum(rng.exponential(1.0 / 500.0, size=60))
        for r, t in zip(reqs, arrivals):
            assert r.arrival_s == float(t)
            assert np.array_equal(
                r.seeds, _naive_seeds(rng, 700, seeds_per_request, alpha)
            )

    def test_bursty(self, alpha, seeds_per_request):
        reqs = bursty_workload(
            60, qps=500.0, num_vertices=700, burst=8,
            seeds_per_request=seeds_per_request, zipf_alpha=alpha, seed=12,
        )
        rng = np.random.default_rng(12)
        bursts = np.cumsum(rng.exponential(8 / 500.0, size=8))
        arrivals = np.repeat(bursts, 8)[:60]
        for r, t in zip(reqs, arrivals):
            assert r.arrival_s == float(t)
            assert np.array_equal(
                r.seeds, _naive_seeds(rng, 700, seeds_per_request, alpha)
            )
