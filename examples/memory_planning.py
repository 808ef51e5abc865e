#!/usr/bin/env python
"""Arena memory planning: slab reuse under the §6 ledger.

The paper's §6 ledger prices a plan's peak footprint analytically; a
runtime delivers it only if boundary values reuse each other's storage
once dead.  This script drives the arena through the Session API:

1. the memory-plan table — ledger peak (fusion order, fresh storage) vs
   the best-fit arena, per model: planned (pinned + arena) equals the
   ledger within slab alignment,
2. `.memory_plan()` — the slab map of one configuration,
3. the reconciliation the test suite enforces: executing through the
   arena-backed engine is bit-identical to fresh storage, and the
   measured live-byte high-watermark equals the analytic ledger exactly.

Run:  python examples/memory_planning.py [--dataset pubmed]
(the zoo table is always pubmed's; --dataset picks the workload of
steps 2 and 3)
"""

import argparse

import numpy as np

import repro
from repro.exec import Engine
from repro.exec.analytic import analyze_plan
from repro.graph import get_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="pubmed")
    parser.add_argument("--model", default="gin")
    parser.add_argument("--feature-dim", type=int, default=32)
    args = parser.parse_args()

    # ------------------------------------------------------------------
    # 1. The deliverable-vs-analytic peak across the model zoo.
    from repro.bench.figures import FIGURES

    print("=== model zoo memory plans (pubmed, ours) ===")
    print(FIGURES["fig_memory_plan"]().table)

    # ------------------------------------------------------------------
    # 2. One configuration in detail: the slab map.
    session = (
        repro.session()
        .model(args.model).dataset(args.dataset).strategy("ours")
        .feature_dim(args.feature_dim)
    )
    smp = session.memory_plan()
    print(f"=== {args.model} arena plan ===")
    print(smp.summary())
    biggest = sorted(
        smp.backward.slabs.values(), key=lambda s: -s.size
    )[:5]
    print("largest backward slabs (offset, size, lifetime):")
    for slab in biggest:
        print(
            f"  {slab.name:28s} @{slab.offset:>10d}  {slab.size:>9d} B"
            f"  [{slab.birth}, {slab.death}]"
        )
    report = session.report()
    print(report.summary())

    # ------------------------------------------------------------------
    # 3. Reconcile the measured watermark against the analytic ledger.
    ds = get_dataset(args.dataset)
    graph = ds.graph()
    stats = ds.stats
    compiled = session.compile()
    mp_f = compiled.memory_plan(stats).forward
    rng = np.random.default_rng(0)
    feats = rng.normal(
        size=(graph.num_vertices, args.feature_dim)
    ).astype(np.float32)
    arrays = compiled.model.make_inputs(graph, feats)
    arrays.update(compiled.model.init_params(0))

    plain = Engine(graph, precision="float32")
    fresh = plain.run_plan(
        compiled.fwd_plan, plain.bind(compiled.forward, arrays), unwrap=False
    )
    arena = Engine(graph, precision="float32", memory_plan=mp_f)
    pooled = arena.run_plan(
        compiled.fwd_plan, arena.bind(compiled.forward, arrays), unwrap=False
    )
    for name in fresh:
        assert np.array_equal(np.asarray(fresh[name]), np.asarray(pooled[name]))
    want = analyze_plan(compiled.fwd_plan, stats, pinned=compiled.pinned)
    print("=== measured vs analytic forward ledger ===")
    print(f"measured high-watermark  {arena.measured_peak_bytes:>12d} B")
    print(f"analytic ledger peak     {want.peak_memory_bytes:>12d} B")
    assert arena.measured_peak_bytes == want.peak_memory_bytes
    print(
        "arena execution is bit-identical to fresh storage; "
        f"arena holds {mp_f.arena_bytes} B for "
        f"{mp_f.naive_bytes} B of values (reuse {mp_f.reuse_factor:.2f}x)"
    )


if __name__ == "__main__":
    main()
