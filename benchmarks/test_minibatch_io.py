"""Mini-batch IO — the sampled-training extension.

Not a figure from the paper: the paper trains full-graph, where feature
rows are pinned and IO counters never include gathers.  Sampled
training (GraphSAGE / Cluster-GCN style) inverts the ledger — per batch
it gathers the receptive field's feature rows, so epoch IO grows with
field overlap while the per-batch footprint (the device-fit quantity)
shrinks with the batch size.

Qualitative shape asserted here, per §6 strategy:

- per-batch peak memory decreases **monotonically** as batches shrink,
  and every sampled point sits below the full-graph footprint,
- epoch feature-gather bytes and the field expansion factor increase
  monotonically as batches shrink (receptive-field overlap),
- epoch IO always exceeds the full-graph step's IO — the price paid
  for the smaller footprint,
- the full-batch row reproduces the full-graph counters exactly (the
  analytic twin of the trainer's bit-consistency contract).
"""

import pytest



@pytest.fixture(scope="module")
def figure(figures):
    return figures["minibatch_io"]


def _series(figure, strategy):
    """Rows of one strategy, full-graph first then shrinking batches."""
    return [r for r in figure.normalized if r["strategy"] == strategy]


STRATEGIES = ("ours-stash", "ours")


class TestMinibatchIO:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_peak_memory_shrinks_with_batch(self, figure, strategy):
        series = _series(figure, strategy)
        peaks = [r["peak_memory_bytes"] for r in series]
        assert all(a >= b for a, b in zip(peaks, peaks[1:])), (
            f"{strategy}: per-batch peak not monotone in batch size: {peaks}"
        )
        assert peaks[-1] < peaks[0], (
            f"{strategy}: smallest batch shows no memory win over full-graph"
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_gather_and_expansion_grow_as_batches_shrink(
        self, figure, strategy
    ):
        series = _series(figure, strategy)
        gathers = [r["gather_bytes"] for r in series]
        expansions = [r["expansion"] for r in series]
        assert all(a < b for a, b in zip(gathers, gathers[1:])), gathers
        assert all(a < b for a, b in zip(expansions, expansions[1:])), (
            expansions
        )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_sampling_pays_io_for_memory(self, figure, strategy):
        series = _series(figure, strategy)
        full = series[0]
        for r in series[1:]:
            assert r["io_bytes"] > full["io_bytes"], (
                f"{strategy} batch {r['batch']}: epoch IO not above "
                "the full-graph step"
            )

    def test_full_batch_row_matches_full_graph_counters(self):
        # The full-graph row of the figure comes straight from the
        # full-graph walker; a schedule covering every vertex must
        # reproduce it exactly.
        from repro.graph.datasets import get_dataset
        from repro.session import Session

        ds = get_dataset("pubmed")
        sess = (
            Session()
            .model("sage").dataset("pubmed").strategy("ours")
            .minibatch(ds.stats.num_vertices + 1)
        )
        full = sess.counters()
        mc = sess.report().minibatch
        assert mc.num_batches == 1
        batch = mc.batches[0]
        assert batch.field == ds.stats.num_vertices
        assert batch.compute.flops == full.flops
        assert batch.compute.io_bytes == full.io_bytes
        assert batch.compute.peak_memory_bytes == full.peak_memory_bytes
        assert batch.compute.stash_bytes == full.stash_bytes
