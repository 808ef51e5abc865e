"""Online serving latency — the inference-serving extension.

Not a figure from the paper: the paper's coordinated analysis is
framed around training steps, while serving replays the same compiled
plans under an open-loop request stream — micro-batching, Zipf-skewed
feature caching, and SLO-aware placement on a virtual clock built from
the existing cost model.

Qualitative shape asserted here (the PR's acceptance contract):

- tail percentiles are positive and ordered (p50 ≤ p95 ≤ p99) at every
  operating point,
- offered load moves the operating point: batches fill better as qps
  grows (fewer, fuller batches), and the overload point saturates the
  GPU and blows the SLO (positive violation share, utilization near 1),
- the feature cache is an accounting transform: hit + miss bytes
  reconcile exactly with the uncached gather bill, the Zipf stream
  produces a genuinely positive hit rate, and caching never makes any
  operating point slower.
"""

import pytest



@pytest.fixture(scope="module")
def figure(figures):
    return figures["fig_serving_latency"]


def _by_cache(figure):
    out = {}
    for row in figure.normalized:
        out.setdefault(row["cache_rows"], []).append(row)
    return out


class TestServingLatencyFigure:
    def test_covers_the_grid(self, figure):
        grouped = _by_cache(figure)
        assert len(grouped) == 2
        sizes = {len(rows) for rows in grouped.values()}
        assert sizes == {4}

    def test_percentiles_positive_and_ordered(self, figure):
        for r in figure.normalized:
            assert (
                0
                < r["p50_latency_s"]
                <= r["p95_latency_s"]
                <= r["p99_latency_s"]
            ), r

    def test_batches_fill_with_offered_load(self, figure):
        for rows in _by_cache(figure).values():
            fill = [r["mean_batch_requests"] for r in rows]
            assert fill == sorted(fill), "req/batch must grow with qps"
            assert fill[-1] > 2 * fill[0]

    def test_overload_point_blows_the_slo(self, figure):
        for rows in _by_cache(figure).values():
            assert all(r["slo_violation_rate"] == 0.0 for r in rows[:-1])
            assert rows[-1]["slo_violation_rate"] > 0.2
            assert rows[-1]["utilization"] > 0.9

    def test_cache_hits_only_when_enabled(self, figure):
        grouped = _by_cache(figure)
        assert all(r["cache_hit_rate"] == 0.0 for r in grouped[0])
        assert all(0.0 < r["cache_hit_rate"] < 1.0 for r in grouped[8192])

    def test_gather_bytes_reconcile(self, figure):
        # hit + miss == uncached, i.e. miss == uncached − hit-share.
        for r in figure.normalized:
            paid = r["gather_miss_bytes"]
            total = r["uncached_gather_bytes"]
            assert 0 <= paid <= total
            if r["cache_rows"] == 0:
                assert paid == total

    def test_caching_never_slows_an_operating_point(self, figure):
        grouped = _by_cache(figure)
        for off, on in zip(grouped[0], grouped[8192]):
            assert on["qps"] == off["qps"]
            for q in ("p50_latency_s", "p95_latency_s", "p99_latency_s"):
                assert on[q] <= off[q] + 1e-12, (q, on["qps"])
