"""Dynamic serving — the update-aware serving extension.

Not a figure from the paper: the paper analyses static graphs, while
online deployments mutate them (edge insertions from new interactions,
feature drift from upstream trainers).  This table sweeps the write
share of a mixed read/write event stream against the delta-overlay
compaction period, on top of the PR 5 serving subsystem.

Qualitative shape asserted here (the PR's acceptance contract):

- the static row (update fraction 0) has zero staleness, zero
  invalidated bytes, and version 0/0,
- a higher update fraction invalidates more cached rows — the
  invalidated-bytes column grows monotonically with the write share,
- answers are exact at every cell: latency percentiles depend only on
  the update fraction, never on the compaction period (the overlay is
  an IO transform, not an approximation),
- the mutation ledger reconciles: eager compaction (period 1) folds
  more often and bills strictly more compaction IO than lazy
  (period 16), while the delta-apply bill is period-independent,
- gather accounting stays exact: hit + miss + invalidated bytes equal
  the uncached gather bill in every cell.
"""

import pytest



@pytest.fixture(scope="module")
def figure(figures):
    return figures["fig_dynamic_serving"]


def _by_frac(figure):
    out = {}
    for row in figure.normalized:
        out.setdefault(row["update_frac"], []).append(row)
    return out


class TestDynamicServingFigure:
    def test_covers_the_grid(self, figure):
        grouped = _by_frac(figure)
        assert set(grouped) == {0.0, 0.2, 0.4}
        assert len(grouped[0.0]) == 1
        assert all(len(grouped[f]) == 3 for f in (0.2, 0.4))

    def test_static_row_is_the_baseline(self, figure):
        (row,) = _by_frac(figure)[0.0]
        assert row["compact_every"] is None
        assert row["mean_staleness_s"] == 0.0
        assert row["gather_invalidated_bytes"] == 0
        assert row["graph_version"] == row["feature_version"] == 0
        assert row["compactions"] == 0
        assert row["delta_apply_bytes"] == row["compact_bytes"] == 0

    def test_write_share_drives_invalidation(self, figure):
        grouped = _by_frac(figure)
        inval = [
            grouped[f][0]["gather_invalidated_bytes"]
            for f in (0.0, 0.2, 0.4)
        ]
        assert inval == sorted(inval)
        assert inval[-1] > inval[0] == 0

    def test_latency_is_compaction_period_invariant(self, figure):
        # The overlay is exact — the answer (and so the modelled service
        # time) cannot depend on when deltas are folded into the CSR.
        for frac, rows in _by_frac(figure).items():
            if frac == 0.0:
                continue
            for q in ("p50_latency_s", "p99_latency_s", "cache_hit_rate",
                      "mean_staleness_s", "graph_version",
                      "feature_version", "delta_apply_bytes"):
                vals = {r[q] for r in rows}
                assert len(vals) == 1, (frac, q, vals)

    def test_eager_compaction_bills_more_io(self, figure):
        for frac, rows in _by_frac(figure).items():
            if frac == 0.0:
                continue
            by_period = {r["compact_every"]: r for r in rows}
            assert (
                by_period[1]["compactions"]
                > by_period[4]["compactions"]
                >= by_period[16]["compactions"]
            )
            assert (
                by_period[1]["compact_bytes"]
                > by_period[4]["compact_bytes"]
                >= by_period[16]["compact_bytes"]
            )

    def test_dynamic_rows_observe_updates(self, figure):
        for frac, rows in _by_frac(figure).items():
            if frac == 0.0:
                continue
            for r in rows:
                assert r["mean_staleness_s"] > 0.0
                assert r["graph_version"] > 0
                assert r["feature_version"] > 0
                assert r["delta_apply_bytes"] > 0
                assert r["feature_put_bytes"] > 0
