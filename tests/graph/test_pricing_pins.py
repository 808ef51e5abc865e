"""Digests that pin partition summaries and multi-GPU sweep rows.

The sweep goldens under ``benchmarks/results/`` cover ``num_gpus=1``
only, and ``scaling_multi_gpu.txt`` rounds to one decimal, so a change
to how partitions are summarised or priced could move a multi-GPU
number unseen.  These SHA-256 digests were computed before the
sort-free partition summary, the cached degree maxima and the one-pass
roofline landed; every one of those is an accounting rewrite that must
leave each array, count and float exactly as it was.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import repro
from repro.graph.datasets import get_dataset
from repro.graph.partition import PartitionStats, partition_graph


def _partition_digest(ps: PartitionStats) -> str:
    h = hashlib.sha256()
    h.update(repr((ps.num_parts, ps.owned_vertices, ps.halo_in_rows,
                   ps.halo_out_rows, ps.cut_edges, ps.total_vertices,
                   ps.total_edges)).encode())
    for part in ps.parts:
        h.update(repr((part.num_vertices, part.num_edges)).encode())
        h.update(np.ascontiguousarray(part.in_degrees, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(part.out_degrees, dtype=np.int64).tobytes())
    return h.hexdigest()


FROM_STATS = {
    2: "316ecdcc2a551161a6da50f1757e1fa1a5d7132adfb87d83eec1f20c2f8d9f60",
    3: "30ddb4c66ce623694f05709c3e968fd48c3d9dff6388910adb897b4e611a4e1e",
    4: "4791878b1d652b15bcd789ebf67ce6534de0999bfa1a91f19ee84c7ce61d7361",
    8: "7844b5415759382bd5b2141e6f9913a6af466d600922219e20a82018d4582031",
}

FROM_PARTITION = {
    ("cora", "hash"):
        "0f8864d5e16465d8d5bf899ac1f88789bccdcd5dd494ef0cf6291f177cdab452",
    ("cora", "range"):
        "8db827759921d6aab7e4d8e011081e2a10ce9cbaeba87a84d300556b27f4145a",
    ("cora", "greedy"):
        "d4c6e9d2fd875c4dd7ee4c1b27a6764d0f545bdb5b9b40d455f8e956be4e46d3",
    ("pubmed", "hash"):
        "efa7e25462d170031aebee918179c0a66f4ea370846751e380735539c0ba6a64",
    ("pubmed", "range"):
        "97697e80a8612718fb1ec6c1b4d99167eebe6c7349753f274a21a5006cf0cfc5",
    ("pubmed", "greedy"):
        "b4c011b852cc466ea16daac17df01f2dbe988644816dda4355dd1a0ae999200d",
}

#: ``sweep-analytic``'s axes (perf/workloads.py) at one and four GPUs.
#: Out-edge aggregations billed as vertex rows (``halo_dst``) moved the
#: four-GPU rows' communication, and only that: ``SWEEP_BUT_COMM``, the
#: same rows without ``comm_bytes``, ``comm_fraction`` and
#: ``latency_s``, was computed before that change.  Both were retaken
#: when rows lost their ``schedule`` and ``arena_bytes`` keys, and again
#: when they lost the nine serving keys (``serve_qps`` … ``invalidated_bytes``):
#: each time they are the digests of the earlier rows with those keys dropped.
SWEEP = "8d7f23d75121370696f0efe174c9430fd1238f86e4f05545e38d3c362c0a38fd"
SWEEP_BUT_COMM = "fdd743aa00ab50fb20d6591dfb4c3fa1d18a3397c873e4e213dc1d6664a5c81e"


@pytest.mark.parametrize("num_parts", sorted(FROM_STATS))
def test_expected_partition_of_reddit_full(num_parts):
    stats = get_dataset("reddit-full").stats
    ps = PartitionStats.from_stats(stats, num_parts)
    assert _partition_digest(ps) == FROM_STATS[num_parts]


@pytest.mark.parametrize("dataset,method", sorted(FROM_PARTITION))
def test_concrete_partition_summary(dataset, method):
    graph = get_dataset(dataset).graph()
    ps = partition_graph(graph, 4, method=method).stats()
    assert _partition_digest(ps) == FROM_PARTITION[(dataset, method)]


def test_sweep_rows_at_one_and_four_gpus():
    report = repro.run_sweep(
        ["gat", "gcn", "sage", "gin"], ["cora", "pubmed", "reddit-full"],
        ["dgl-like", "fusegnn-like", "ours", "ours-stash"], ["V100"],
        num_gpus=(1, 4), cache=repro.PlanCache(),
    )
    rows = sorted(
        (row.to_dict() for row in report.rows),
        key=lambda r: (r["model"], r["dataset"], r["strategy"], r["num_gpus"]),
    )
    assert len(rows) == 96
    blob = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SWEEP
    comm = ("comm_bytes", "comm_fraction", "latency_s")
    rest = [{k: v for k, v in row.items() if k not in comm} for row in rows]
    blob = json.dumps(rest, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == SWEEP_BUT_COMM
