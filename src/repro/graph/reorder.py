"""Runtime graph reordering utilities (§8.1's GNNAdvisor/Rabbit family).

The paper's related-work section describes a complementary class of
optimizations — *GNN runtime optimization* — that preprocess the graph
to balance workloads and improve locality (GNNAdvisor's neighbor
grouping, Rabbit reordering).  This module implements the two
vertex-relabeling primitives those systems build on:

- :func:`degree_sorted_relabel` — renumber vertices by descending
  in-degree, clustering heavy hubs (a locality proxy for Rabbit
  ordering),
- :func:`relabel` — apply an arbitrary permutation.

Relabeling is a pure renaming: any GNN in this library is equivariant
to it (permuting input features with the same permutation permutes the
outputs), which the property suite verifies.  The workload-balancing
effect of GNNAdvisor's *neighbor grouping* is modelled on the cost
side — see ``CostModel(neighbor_group_size=...)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import Graph

__all__ = ["relabel", "degree_sorted_relabel"]


def relabel(graph: Graph, perm: np.ndarray) -> Graph:
    """Renumber vertices: new id of vertex ``v`` is ``perm[v]``.

    ``perm`` must be a permutation of ``range(num_vertices)``.  Edge ids
    (and therefore edge-feature alignment) are preserved.
    """
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (graph.num_vertices,):
        raise ValueError(
            f"perm must have shape ({graph.num_vertices},), got {perm.shape}"
        )
    if np.bincount(perm, minlength=graph.num_vertices).max(initial=0) > 1 or (
        perm.size and (perm.min() < 0 or perm.max() >= graph.num_vertices)
    ):
        raise ValueError("perm is not a permutation of the vertex ids")
    return Graph(perm[graph.src], perm[graph.dst], graph.num_vertices)


def degree_sorted_relabel(graph: Graph) -> Tuple[Graph, np.ndarray]:
    """Renumber vertices by descending in-degree.

    Returns ``(relabeled_graph, perm)`` with ``perm[old_id] = new_id``.
    Heavy hubs receive the smallest ids, clustering their edge segments
    at the front of the CSC layout — the access-locality effect Rabbit
    ordering pursues.  Apply the same ``perm`` to vertex features:
    ``new_feats[perm] = old_feats`` (i.e. ``new_feats = old_feats[inv]``
    with ``inv = np.argsort(perm)``).
    """
    order = _degree_order(graph.in_degrees)
    perm = np.empty(graph.num_vertices, dtype=np.int64)
    perm[order] = np.arange(graph.num_vertices)
    return relabel(graph, perm), perm


def _degree_order(degrees: np.ndarray) -> np.ndarray:
    """Vertex ids by descending degree, ties by ascending id."""
    return np.argsort(-degrees, kind="stable")
