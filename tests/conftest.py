"""Shared fixtures: small deterministic graphs and reference helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import Graph, chung_lu, erdos_renyi


@pytest.fixture
def tiny_graph() -> Graph:
    """Hand-written 4-vertex graph covering the interesting cases.

    Edges: 0→1, 0→2, 1→2, 2→0, 2→2 (self-loop), 0→1 (parallel).
    Vertex 3 is isolated (zero in- and out-degree).
    """
    src = np.array([0, 0, 1, 2, 2, 0])
    dst = np.array([1, 2, 2, 0, 2, 1])
    return Graph(src, dst, 4)


@pytest.fixture
def small_graph() -> Graph:
    """Random heavy-tailed graph, 60 vertices / 300 edges."""
    return chung_lu(60, 300, seed=7)


@pytest.fixture
def medium_graph() -> Graph:
    """Random graph big enough for meaningful counters."""
    return erdos_renyi(300, 2400, seed=11)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def products(monkeypatch):
    """Every chain an ``Engine`` ran as one step during the test — one
    product, or one dot step — as ``(layout, chain)``: the whole graph
    or one block of a walk, and the :class:`AggregationChain`.  Every
    bound step runs through ``Engine._dispatch``, so that is the spy."""
    from repro.exec import Engine

    calls = []
    dispatch = Engine._dispatch

    def spy(self, step, values, ins, graph, out=None):
        if step.chain is not None:
            calls.append((graph, step.chain))
        return dispatch(self, step, values, ins, graph, out)

    monkeypatch.setattr(Engine, "_dispatch", spy)
    return calls


def segment_reduce_reference(values, keys, num_segments, reduce):
    """O(n·segments) reference implementation of segmented reduction."""
    out_shape = (num_segments,) + values.shape[1:]
    if reduce == "sum":
        out = np.zeros(out_shape, dtype=values.dtype)
        for i, k in enumerate(keys):
            out[k] = out[k] + values[i]
        return out
    if reduce == "mean":
        total = segment_reduce_reference(values, keys, num_segments, "sum")
        counts = np.bincount(keys, minlength=num_segments).astype(values.dtype)
        counts = np.maximum(counts, 1).reshape((-1,) + (1,) * (values.ndim - 1))
        return total / counts
    if reduce == "max":
        out = np.zeros(out_shape, dtype=values.dtype)
        seen = np.zeros(num_segments, dtype=bool)
        for i, k in enumerate(keys):
            if not seen[k]:
                out[k] = values[i]
                seen[k] = True
            else:
                out[k] = np.maximum(out[k], values[i])
        return out
    raise ValueError(reduce)
