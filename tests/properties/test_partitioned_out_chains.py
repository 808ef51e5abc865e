"""Partitioned out-edge aggregations against one ``Engine``, under hypothesis.

An out-edge aggregation ``copy_v(x) (× w) → sum | mean`` over out-edges
runs on each part's out-graph: its far rows are the part's owned rows
followed by its ghost destinations (``halo_dst``), its weight is laid
out in the part's out-edge order (``halo_out``).  Out-graph segments
keep ascending global edge ids, so every owned row reduces its
out-edges in the single-graph order and the partitioned run is the
single ``Engine``'s bit for bit (README clause 1d's weighted exception
aside).  Each case draws a random multigraph (self-loops, parallel
edges, isolated vertices), a partition of 1–5 parts (empty parts when
there are more parts than vertices) and a chain — unweighted, weighted
per edge or per edge and head, ``sum`` or ``mean``, optionally sharing
its copy with a dot step — and checks:

- values against the single ``Engine`` and against shards that run
  every node (:func:`tests.helpers.per_node_multi_engine`);
- the exchange log against :func:`plan_comm_records`, record for
  record, and the halo checker clean on that schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.halo import check_comm_records  # noqa: E402
from repro.exec import Engine, MultiEngine, plan_module  # noqa: E402
from repro.exec.analytic import plan_comm_records  # noqa: E402
from repro.graph import Graph  # noqa: E402
from repro.graph.partition import PartitionStats, partition_graph  # noqa: E402
from repro.ir import Builder, Domain  # noqa: E402

from tests.helpers import assert_same_values, per_node_multi_engine  # noqa: E402

HEADS, WIDTH = 2, 3
#: The weight's feature shape against ``(HEADS, WIDTH)`` messages.
WEIGHTS = {
    "unweighted": None,
    "per-edge": (),
    "per-edge-1": (1,),
    "per-head": (HEADS,),
    "per-head-1": (HEADS, 1),
}
SIZES = {"small": (1, 8), "medium": (20, 48)}


def _module(weight, reduce, weight_first, dot):
    """``y = -(out-edge reduce of copy_v(x) (× w))``; with ``dot``, GAT's
    backward in miniature: a dot step reads the same ``copy_v``."""
    b = Builder("out-chain")
    x = b.input("x", Domain.VERTEX, (HEADS, WIDTH))
    msg = b.scatter("copy_v", v=x, name="msg")
    out = msg
    if weight is not None:
        w = b.input("w", Domain.EDGE, weight)
        out = b.apply("mul", *((w, msg) if weight_first else (msg, w)), name="wmsg")
    agg = b.gather(reduce, out, orientation="out", name="agg")
    b.output(b.apply("neg", agg, name="y"))
    if dot:
        u = b.input("u", Domain.VERTEX, (HEADS, WIDTH))
        prod = b.apply("mul", msg, b.scatter("copy_u", u=u, name="cu"), name="prod")
        b.output(b.apply(
            "reduce_to_shape", prod, name="dot", attrs={"target_shape": (HEADS,)},
        ))
    return b.build()


def check_against_engine(graph, partition, module, arrays, dtype, ctx):
    """The single-engine, per-node and analytic differentials of one case."""
    plan = plan_module(module, mode="unified")
    chains = {c.head.name: c for c in plan.chains(0).values()}
    assert set(chains) == {"agg", "dot"} & {n.name for n in module.nodes}, ctx
    assert chains["agg"].head.orientation == "out" and chains["agg"].scatter is None, ctx
    single = Engine(graph, precision=dtype)
    want = single.run_plan(plan, single.bind(module, arrays), unwrap=False)
    pstats = PartitionStats.from_partition(partition)
    schedule = plan_comm_records(plan, pstats)
    assert check_comm_records(plan, pstats, schedule) == [], ctx
    logs = []
    for multi in (
        MultiEngine(graph, partition, precision=dtype),
        per_node_multi_engine(graph, partition, precision=dtype),
    ):
        got = multi.run_plan(plan, multi.bind(module, arrays), unwrap=False)
        assert_same_values(got, want, plan, ctx)
        logs.append(multi.exchanges)
        assert [
            (r.label, r.kind, r.bytes_per_gpu) for r in multi.exchanges
        ] == [
            (recs[0].label.split(":")[-1], recs[0].kind, tuple(r.bytes for r in recs))
            for recs in zip(*schedule)
        ], ctx
    assert logs[0] == logs[1], ctx


def _arrays(graph, module, rng, dtype):
    specs = module.specs
    return {
        name: rng.normal(size=(
            graph.num_vertices if specs[name].domain is Domain.VERTEX else graph.num_edges,
        ) + specs[name].feat_shape).astype(dtype)
        for name in module.inputs
    }


@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_out_chains_match_one_engine(dtype, size, data):
    lo, hi = SIZES[size]
    n = data.draw(st.integers(lo, hi), label="V")
    m = data.draw(st.integers(0, 4 * n), label="E")
    endpoint = st.integers(0, n - 1)
    src = data.draw(st.lists(endpoint, min_size=m, max_size=m), label="src")
    dst = data.draw(st.lists(endpoint, min_size=m, max_size=m), label="dst")
    graph = Graph(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), n)
    partition = partition_graph(
        graph, data.draw(st.integers(1, 5), label="P"),
        method=data.draw(st.sampled_from(["hash", "range", "greedy"]), label="method"),
    )
    weight = data.draw(st.sampled_from(sorted(WEIGHTS)), label="weight")
    module = _module(
        WEIGHTS[weight],
        data.draw(st.sampled_from(["sum", "mean"]), label="reduce"),
        data.draw(st.booleans(), label="weight first"),
        data.draw(st.booleans(), label="dot step"),
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    check_against_engine(
        graph, partition, module, _arrays(graph, module, rng, dtype), dtype,
        f"{dtype}/{size}/{weight}",
    )


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
def test_empty_parts_and_parts_without_ghost_destinations(weight):
    """Five parts over four vertices: one part is empty, one owns a
    vertex whose out-edges stay home, the rest fetch ghost rows."""
    graph = Graph(np.array([0, 1, 2, 3, 3, 0]), np.array([1, 2, 1, 3, 3, 0]), 4)
    partition = partition_graph(graph, 5, method="range")
    parts = partition.parts
    assert any(p.num_owned == 0 for p in parts)
    assert any(p.num_owned and p.ghost_dst.size == 0 for p in parts)
    assert any(p.ghost_dst.size for p in parts)
    for dot in (False, True):
        module = _module(WEIGHTS[weight], "mean", False, dot)
        arrays = _arrays(graph, module, np.random.default_rng(0), "float32")
        check_against_engine(graph, partition, module, arrays, "float32", weight)
