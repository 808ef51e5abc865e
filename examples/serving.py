#!/usr/bin/env python
"""Online GNN inference serving: batching, caching, SLO scheduling.

Serving inverts the training-time picture once more: the unit of work
is a *request* (a few seed vertices with a deadline), and the dominant
cost is the per-request receptive-field gather.  The server coalesces
queued requests into micro-batches, fronts host feature storage with a
bounded LRU cache, and places batches from multiple tenant queues onto
a GPU pool under an earliest-deadline-first policy — all on a virtual
clock built from the existing cost model, while outputs execute
bit-identically through the ordinary engine.

This script walks the subsystem end to end:

1. single-tenant serving through the fluent `Session.serve(...)`,
2. the offered-load sweep (`run_sweep(serve_qps=[...])`): tail latency
   and SLO violations across qps, with and without the feature cache,
3. multi-tenant serving on a GPU pool via `InferenceServer` directly,
   with EDF vs FIFO placement compared on the same workload,
4. the exactness contracts: delivered outputs match a direct engine
   run on the same induced subgraph, and cache hit + miss bytes
   reconcile with the uncached gather bill.

Run:  python examples/serving.py [--dataset pubmed]
"""

import argparse

import numpy as np

import repro
from repro.frameworks import compile_forward, get_strategy
from repro.graph import get_dataset
from repro.registry import MODELS
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    bursty_workload,
    receptive_field,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="pubmed")
    parser.add_argument("--feature-dim", type=int, default=32)
    parser.add_argument("--requests", type=int, default=128)
    args = parser.parse_args()

    ds = get_dataset(args.dataset)
    graph = ds.graph()

    # ------------------------------------------------------------------
    # 1. One serving run through the Session.
    print(f"=== Session.serve (gat on {args.dataset}, RTX3090) ===")
    report = (
        repro.session()
        .model("gat").dataset(args.dataset).strategy("ours").gpu("RTX3090")
        .feature_dim(args.feature_dim)
        .serve(
            num_requests=args.requests,
            qps=4000.0,
            seeds_per_request=4,
            zipf_alpha=0.9,
            cache_rows=4096,
            seed=0,
        )
    )
    print(report.summary())

    # ------------------------------------------------------------------
    # 2. Offered-load sweep: latency percentiles vs qps, cache on/off.
    print("\n=== serve_qps sweep ===")
    for cache_rows in (0, 4096):
        sweep = repro.run_sweep(
            models=["gat"],
            datasets=[args.dataset],
            strategies=["ours"],
            serve_qps=[500.0, 4000.0, 16000.0],
            serve=dict(
                num_requests=args.requests, seeds_per_request=4,
                cache_rows=cache_rows, zipf_alpha=0.9,
            ),
            feature_dim=args.feature_dim,
        )
        print(f"--- cache_rows={cache_rows} ---")
        print(sweep.table())

    # ------------------------------------------------------------------
    # 3. Multi-tenant pool: two models share four GPUs, EDF vs FIFO.
    print("\n=== multi-tenant pool (gat + sage on V100x4) ===")
    feats = ds.features(dim=args.feature_dim, seed=0)
    tenants = {
        name: compile_forward(
            MODELS.get(name)(args.feature_dim, ds.num_classes),
            get_strategy("ours"),
        )
        for name in ("gat", "sage")
    }
    rng = np.random.default_rng(42)
    workload = bursty_workload(
        args.requests, qps=20000.0, num_vertices=graph.num_vertices,
        burst=16, seeds_per_request=2, slo_s=0.01, tenant="gat",
        zipf_alpha=0.9, rng=rng,
    ) + bursty_workload(
        args.requests, qps=20000.0, num_vertices=graph.num_vertices,
        burst=16, seeds_per_request=2, slo_s=0.02, tenant="sage",
        zipf_alpha=0.9, rng=rng, start_id=10_000,
    )
    cluster = repro.make_cluster("V100", 4)
    for policy in ("edf", "fifo"):
        server = InferenceServer(
            graph, feats, tenants,
            gpu=cluster,
            batch_policy=BatchPolicy(max_batch=16, max_wait_s=0.002),
            scheduler_policy=policy,
            cache_rows=4096,
        )
        rep = server.serve(workload)
        print(f"--- {policy} ---")
        print(rep.summary())
        print(f"    violations by tenant: {rep.violations_by_tenant}")

    # ------------------------------------------------------------------
    # 4. Exactness: server outputs == direct engine run on the field.
    trace = rep.batches[0]
    runtime = server.tenants[trace.tenant]
    first_req = next(
        r for r in workload if r.request_id == trace.request_ids[0]
    )
    batch_seeds = np.unique(np.concatenate([
        r.seeds for r in workload if r.request_id in trace.request_ids
    ]))
    mb = receptive_field(graph, batch_seeds, runtime.hops)
    engine = repro.Engine(mb.subgraph, precision="float32")
    arrays = runtime.compiled.model.make_inputs(
        mb.subgraph, feats[mb.vertices]
    )
    arrays.update(runtime.params)
    env = engine.bind(runtime.compiled.forward, arrays)
    direct = engine.run_plan(runtime.compiled.plan, env, unwrap=True)
    # The field starts with its seeds, ascending (ring 0).
    rows = np.searchsorted(mb.vertices[: mb.num_seeds], first_req.seeds)
    assert np.array_equal(
        rep.outputs[first_req.request_id],
        direct[runtime.output_name][rows],
    )
    assert (
        rep.gather_hit_bytes + rep.gather_miss_bytes
        == rep.uncached_gather_bytes
    )
    print(
        "\nserver outputs are bit-identical to the direct engine run, and "
        "cache bytes reconcile exactly "
        f"({rep.gather_hit_bytes} hit + {rep.gather_miss_bytes} miss "
        f"= {rep.uncached_gather_bytes} uncached)"
    )


if __name__ == "__main__":
    main()
