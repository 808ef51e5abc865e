"""Graph substrate: topology containers, statistics, generators, datasets.

This subpackage provides everything the rest of the library needs to know
about graph *structure*:

- :class:`~repro.graph.csr.Graph` — an immutable directed graph stored in
  COO form with lazily built CSR (grouped by source) and CSC (grouped by
  destination) views.  Edge-feature tensors everywhere in the library are
  stored in COO edge-id order; the CSR/CSC views carry the permutations
  needed by segment kernels.
- :class:`~repro.graph.stats.GraphStats` — the degree-level summary
  (``|V|``, ``|E|``, in/out degree arrays) that analytic cost counters and
  the GPU cost model consume.  Stats can be derived from a concrete
  :class:`Graph` or sampled directly at scales too large to materialise
  (e.g. the full 115M-edge Reddit topology).
- :mod:`~repro.graph.generators` — synthetic topology generators
  (Erdős–Rényi, Chung–Lu power law, k-NN point clouds, disjoint unions).
- :mod:`~repro.graph.datasets` — a named registry of the evaluation
  workloads used by the paper (Cora / Citeseer / Pubmed / Reddit /
  ModelNet40), rebuilt synthetically with the published shape parameters.
"""

from repro.graph.csr import Graph
from repro.graph.stats import GraphStats, expected_field_stats
from repro.graph.generators import (
    erdos_renyi,
    chung_lu,
    knn_graph,
    sample_point_cloud,
    batch_point_clouds,
    disjoint_union,
)
from repro.graph.datasets import get_dataset, list_datasets, Dataset
from repro.graph.sampling import (
    MiniBatch,
    induced_subgraph,
    khop_neighborhood,
    plan_minibatches,
    random_vertex_batches,
)
from repro.graph.partition import (
    GraphPartition,
    PartitionStats,
    partition_graph,
)

__all__ = [
    "Graph",
    "GraphStats",
    "expected_field_stats",
    "erdos_renyi",
    "chung_lu",
    "knn_graph",
    "sample_point_cloud",
    "batch_point_clouds",
    "disjoint_union",
    "get_dataset",
    "list_datasets",
    "Dataset",
    "induced_subgraph",
    "khop_neighborhood",
    "random_vertex_batches",
    "MiniBatch",
    "plan_minibatches",
    "GraphPartition",
    "PartitionStats",
    "partition_graph",
]
