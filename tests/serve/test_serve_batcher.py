"""Tests for the micro-batcher and receptive-field construction."""

import numpy as np
import pytest

from repro.graph.sampling import induced_subgraph, khop_neighborhood
from repro.serve.batcher import (
    BatchPolicy,
    MicroBatch,
    coalesce,
    receptive_field,
)
from repro.serve.request import InferenceRequest


def req(rid, arrival, *, seeds=(0,), tenant="t", slo=1.0):
    return InferenceRequest(
        rid, tenant, np.array(seeds, dtype=np.int64), arrival, slo
    )


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1.0)


class TestMicroBatch:
    def test_seed_union_sorted_unique(self):
        b = MicroBatch(
            "t",
            (req(0, 0.0, seeds=(3, 1)), req(1, 0.0, seeds=(1, 7))),
            0.0,
        )
        assert np.array_equal(b.seeds, [1, 3, 7])
        assert b.num_requests == 2

    def test_deadline_is_earliest_member(self):
        b = MicroBatch(
            "t", (req(0, 0.0, slo=0.5), req(1, 0.1, slo=0.1)), 0.1
        )
        assert b.deadline_s == pytest.approx(0.2)
        assert b.oldest_arrival_s == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MicroBatch("t", (), 0.0)


class TestCoalesce:
    def test_fill_dispatches_at_filling_arrival(self):
        policy = BatchPolicy(max_batch=2, max_wait_s=1.0)
        batches = coalesce(
            [req(0, 0.00), req(1, 0.01), req(2, 0.02)], policy
        )
        assert [b.num_requests for b in batches] == [2, 1]
        # Filled batch leaves when its second request arrives ...
        assert batches[0].dispatch_s == pytest.approx(0.01)
        # ... the unfilled straggler waits out the timeout.
        assert batches[1].dispatch_s == pytest.approx(1.02)

    def test_timeout_dispatches_at_close(self):
        policy = BatchPolicy(max_batch=10, max_wait_s=0.05)
        batches = coalesce([req(0, 0.0), req(1, 0.2)], policy)
        assert [b.num_requests for b in batches] == [1, 1]
        assert batches[0].dispatch_s == pytest.approx(0.05)
        assert batches[1].dispatch_s == pytest.approx(0.25)

    def test_partitions_in_arrival_order(self):
        policy = BatchPolicy(max_batch=3, max_wait_s=0.01)
        reqs = [req(i, 0.001 * i) for i in range(10)]
        batches = coalesce(reqs, policy)
        flattened = [r.request_id for b in batches for r in b.requests]
        assert flattened == list(range(10))
        assert all(b.num_requests <= 3 for b in batches)

    def test_zero_wait_batches_simultaneous_arrivals(self):
        policy = BatchPolicy(max_batch=8, max_wait_s=0.0)
        batches = coalesce(
            [req(0, 0.1), req(1, 0.1), req(2, 0.2)], policy
        )
        assert [b.num_requests for b in batches] == [2, 1]

    def test_rejects_mixed_tenants(self):
        with pytest.raises(ValueError):
            coalesce(
                [req(0, 0.0, tenant="a"), req(1, 0.0, tenant="b")],
                BatchPolicy(),
            )

    def test_empty_stream(self):
        assert coalesce([], BatchPolicy()) == []


class TestReceptiveField:
    def test_matches_direct_construction(self, small_graph):
        seeds = np.array([5, 2, 5, 9])
        mb = receptive_field(small_graph, seeds, hops=2)
        # The field laid out hop by hop: each ring's new vertices, sorted.
        rings, inner = [], np.array([], dtype=np.int64)
        for hops in range(3):
            field = khop_neighborhood(small_graph, np.unique(seeds), hops)
            rings.append(np.setdiff1d(field, inner))
            inner = field
        sub, kept, eids = induced_subgraph(small_graph, np.concatenate(rings))
        assert np.array_equal(mb.vertices, kept)
        assert np.array_equal(np.sort(kept), field)
        assert np.array_equal(mb.edge_ids, eids)
        assert np.array_equal(mb.subgraph.src, sub.src)
        assert np.array_equal(mb.subgraph.dst, sub.dst)

    def test_seed_index_positions(self, small_graph):
        mb = receptive_field(small_graph, np.array([7, 3]), hops=1)
        assert np.array_equal(mb.vertices[mb.seed_index], [3, 7])

    def test_full_seed_set_reproduces_graph(self, small_graph):
        all_v = np.arange(small_graph.num_vertices)
        mb = receptive_field(small_graph, all_v, hops=2)
        assert mb.subgraph.num_vertices == small_graph.num_vertices
        assert mb.subgraph.num_edges == small_graph.num_edges

    def test_zero_hops_keeps_only_seeds(self, small_graph):
        mb = receptive_field(small_graph, np.array([4, 1]), hops=0)
        assert np.array_equal(mb.vertices, [1, 4])
