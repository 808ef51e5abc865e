#!/usr/bin/env python
"""Dynamic-graph serving: incremental deltas, versioned features.

Production graphs do not hold still while they are served: new edges
arrive (interactions, transactions), new vertices appear (users,
items), and feature rows drift as upstream trainers refresh
embeddings.  The dynamic-graph subsystem (`repro.dyn`) extends the
serving stack to that read/write mix without giving up a single
exactness contract — each batch observes the graph/feature snapshot
current at its *dispatch* time, bit-identically to a from-scratch
rebuild at the same version.

This script walks the subsystem end to end:

1. dynamic serving through the fluent `Session.serve(update_frac=...)`,
2. the update-fraction sweep, one `Session.serve` per write share:
   staleness and invalidation traffic across it,
3. the overlay machinery directly: `GraphDelta` batches applied to a
   `DynamicGraph`, the compaction-period IO trade-off, and the
   versioned `FeatureStore` invalidating the serve cache,
4. the differential contract: serving on the mutated overlay equals
   rebuilding graph + features from scratch at the same version.

Run:  python examples/dynamic_serving.py [--dataset pubmed]
"""

import argparse

import numpy as np

import repro
from repro.bench import format_table
from repro.dyn import DynamicGraph, FeatureStore, GraphDelta, mixed_workload
from repro.frameworks import compile_forward, get_strategy
from repro.graph import get_dataset
from repro.registry import MODELS
from repro.serve import InferenceServer, receptive_field
from repro.serve.cache import FeatureCache


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="pubmed")
    parser.add_argument("--feature-dim", type=int, default=32)
    parser.add_argument("--requests", type=int, default=96)
    args = parser.parse_args()

    ds = get_dataset(args.dataset)
    graph = ds.graph()

    # ------------------------------------------------------------------
    # 1. One dynamic serving run through the Session: 30% of the event
    #    stream is writes, the overlay compacts every 4 delta batches.
    print(f"=== Session.serve with updates (gat on {args.dataset}) ===")
    s = (
        repro.session()
        .model("gat").dataset(args.dataset).strategy("ours").gpu("RTX3090")
        .feature_dim(args.feature_dim)
    )
    report = s.serve(
        num_requests=args.requests,
        qps=4000.0,
        seeds_per_request=4,
        zipf_alpha=0.9,
        cache_rows=4096,
        seed=0,
        update_frac=0.3,
        compact_every=4,
        new_vertex_prob=0.25,
    )
    print(report.summary())

    # ------------------------------------------------------------------
    # 2. Sweep the write share: staleness and invalidation traffic grow
    #    with the update fraction; the static row is the baseline.
    rows = []
    for update_frac in (0.0, 0.2, 0.4):
        rep = s.serve(
            num_requests=args.requests, qps=4000.0, seeds_per_request=4,
            cache_rows=4096, zipf_alpha=0.9, compact_every=4,
            update_frac=update_frac, execute=False,
        )
        rows.append([
            f"{update_frac:.2f}", f"{rep.p99_latency_s * 1e3:.2f}",
            f"{rep.cache_hit_rate:.0%}", f"{rep.mean_staleness_s * 1e3:.2f}",
            f"{rep.gather_invalidated_bytes / 2**20:.3f}",
        ])
    print()
    print(format_table(
        ["upd", "p99 ms", "hit", "stale ms", "inval MiB"], rows,
        title="=== update_frac sweep (one Session.serve per write share) ===",
    ))

    # ------------------------------------------------------------------
    # 3. The machinery directly: deltas, compaction IO, invalidation.
    print("\n=== DynamicGraph + FeatureStore ===")
    rng = np.random.default_rng(0)
    dyn = DynamicGraph(graph)
    for _ in range(8):
        dyn.apply(GraphDelta(
            src=rng.integers(0, dyn.num_vertices, size=64),
            dst=rng.integers(0, dyn.num_vertices, size=64),
        ))
    print(f"applied {dyn.version} deltas: {dyn.pending_edges} pending "
          f"edges over a {dyn.csr.num_edges}-edge CSR, "
          f"append IO {dyn.apply_bytes / 2**10:.1f} KiB")
    dyn.compact()
    print(f"compacted into a {dyn.csr.num_edges}-edge CSR "
          f"(rebuild IO {dyn.compact_bytes / 2**20:.1f} MiB) — eager "
          "compaction trades pending-overlay size for exactly this bill")

    cache = FeatureCache(capacity_rows=4096)
    store = FeatureStore(
        ds.features(dim=args.feature_dim, seed=0), cache=cache
    )
    hot = np.arange(64)
    cache.gather(hot, store.row_bytes)          # warm the cache
    store.put(hot[:16], rng.normal(size=(16, args.feature_dim)))
    split = cache.gather(hot, store.row_bytes)  # re-gather after drift
    print(f"feature drift on 16 hot rows: re-gather split = "
          f"{split.hit_rows} hit / {split.invalidated_rows} invalidated "
          f"/ {split.miss_rows} cold — hit + miss + invalidated bytes "
          "reconcile exactly with the uncached bill")

    # ------------------------------------------------------------------
    # 4. The differential contract: serve a mixed stream on the overlay,
    #    then rebuild state from scratch at one batch's dispatch time
    #    and check the delivered rows bit for bit.
    print("\n=== differential: overlay serving == from-scratch rebuild ===")
    feats = ds.features(dim=args.feature_dim, seed=0)
    compiled = compile_forward(
        MODELS.get("gat")(args.feature_dim, ds.num_classes),
        get_strategy("ours"),
    )
    server = InferenceServer(graph, feats, {"gat": compiled})
    requests, updates = mixed_workload(
        48, qps=4000.0, num_vertices=graph.num_vertices,
        feature_dim=args.feature_dim, update_frac=0.35,
        seeds_per_request=2, tenant="gat", zipf_alpha=0.9,
        new_vertex_prob=0.5, seed=0,
    )
    rep = server.serve(requests, updates=updates, compact_every=2)
    trace = rep.batches[-1]

    # Rebuild graph + features from scratch at the batch's snapshot.
    ref_feats = np.asarray(feats, dtype=np.float64).copy()
    src, dst, grown = [], [], 0
    for u in updates:
        if u.arrival_s > trace.dispatch_s:
            break
        if u.num_feature_rows:
            ref_feats[u.feature_vertices] = u.feature_rows
        if u.delta is not None:
            src.append(u.delta.src)
            dst.append(u.delta.dst)
            grown += u.delta.num_new_vertices
            if u.new_vertex_rows is not None:
                ref_feats = np.concatenate([ref_feats, u.new_vertex_rows])
    empty = np.array([], dtype=np.int64)
    ref_graph = graph.with_edges(
        np.concatenate(src) if src else empty,
        np.concatenate(dst) if dst else empty,
        num_new_vertices=grown,
    )

    runtime = server.tenants["gat"]
    seeds_by_id = {r.request_id: r.seeds for r in requests}
    seeds = np.unique(
        np.concatenate([seeds_by_id[r] for r in trace.request_ids])
    )
    mb = receptive_field(ref_graph, seeds, runtime.hops)
    engine = repro.Engine(mb.subgraph, precision="float32")
    arrays = runtime.compiled.model.make_inputs(
        mb.subgraph, ref_feats[mb.vertices]
    )
    arrays.update(runtime.params)
    env = engine.bind(runtime.compiled.forward, arrays)
    direct = engine.run_plan(runtime.compiled.plan, env, unwrap=True)
    for rid in trace.request_ids:
        # The field starts with its seeds, ascending (ring 0).
        rows = np.searchsorted(mb.vertices[: mb.num_seeds], seeds_by_id[rid])
        assert np.array_equal(
            rep.outputs[rid], direct[runtime.output_name][rows]
        )
    assert (
        rep.gather_hit_bytes + rep.gather_miss_bytes
        + rep.gather_invalidated_bytes
        == rep.uncached_gather_bytes
    )
    print(
        f"batch at t={trace.dispatch_s * 1e3:.2f} ms (graph v"
        f"{trace.graph_version}, features v{trace.feature_version}): "
        "served rows are bit-identical to the from-scratch rebuild, and "
        "hit + miss + invalidated bytes reconcile exactly"
    )
    print("done.")


if __name__ == "__main__":
    main()
