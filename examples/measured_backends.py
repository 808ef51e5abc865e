#!/usr/bin/env python
"""Kernel backends and measured execution.

The execution substrate dispatches every kernel through a per-op
backend registry (`repro.exec.kernel_registry`).  `reference` is the
always-available NumPy oracle (segment sums are one CSR product);
`blocked` re-runs `max` gathers in cache-sized edge chunks
(bit-identical, usually faster on large graphs); a further backend
registers through `declare_backend` / `register_backend`.  This script
drives the whole surface:

1. the registry — what is available here, aliases, fallback,
2. a differential check — `blocked` is bit-identical to `reference`
   on a full GAT training step,
3. measured execution — per-kernel wall-clock (warmup + median of
   repeats) paired with the analytic roofline prediction, aggregated
   into the per-class calibration table,
4. the session surface — `Session.backend(...)` and
   `run_sweep(backend=[...])`.

Run:  python examples/measured_backends.py [--vertices 4000]
"""

import argparse

import numpy as np

import repro
from repro.exec import Engine, available_backends, measure_plan
from repro.exec.kernel_registry import backend_info, get_backend
from repro.frameworks import compile_training, get_strategy
from repro.graph import chung_lu
from repro.models import GAT
from repro.session import run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=4000)
    parser.add_argument("--edges", type=int, default=40000)
    parser.add_argument("--feature-dim", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    # ------------------------------------------------------------------
    # 1. The registry: what this host can dispatch to.
    print("=== registered backends ===")
    for name in available_backends():
        info = backend_info(name)
        tag = "bit-identical" if info.bit_identical else "≤1e-5 rel tol"
        print(f"  {name:<10} [{tag}]  {info.description}")
    print(f'  ("numpy" is an alias: {get_backend("numpy").name})')
    blocked = get_backend("blocked")
    print(
        "  blocked overrides gather:max "
        f"({blocked.overrides('gather', 'max')}) and falls back to "
        f"reference for gather:sum "
        f"({not blocked.overrides('gather', 'sum')})"
    )

    # ------------------------------------------------------------------
    # 2. Differential: identical training-step results per backend.
    graph = chung_lu(args.vertices, args.edges, seed=0)
    model = GAT(args.feature_dim, (args.feature_dim,), heads=1)
    compiled = compile_training(model, get_strategy("dgl-like"))
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(graph.num_vertices, args.feature_dim))
    arrays = dict(model.make_inputs(graph, feats))
    arrays.update(model.init_params(0))

    outputs = {}
    for backend in available_backends():
        engine = Engine(graph, precision="float32", backend=backend)
        env = engine.bind(compiled.forward, arrays)
        outputs[backend] = engine.run_plan(compiled.fwd_plan, env)
    name = compiled.forward.outputs[0]
    for backend, out in outputs.items():
        if backend == "reference":
            continue
        same = np.array_equal(out[name], outputs["reference"][name])
        print(f"\nforward under {backend!r} bit-identical to reference: {same}")
        assert same or not backend_info(backend).bit_identical

    # ------------------------------------------------------------------
    # 3. Measured execution: wall-clock vs the analytic roofline.
    print("\n=== measured execution (forward plan) ===")
    runs = [
        measure_plan(
            graph, compiled.fwd_plan, arrays,
            backend=backend, repeats=args.repeats,
        )
        for backend in available_backends()
    ]
    for run in runs:
        gather = run.class_seconds().get("gather", 0.0)
        print(
            f"  {run.backend:<10} total {run.total_measured_s * 1e3:8.2f} ms"
            f"   gather-class {gather * 1e3:8.2f} ms"
            f"   (analytic {run.total_analytic_s * 1e3:.3f} ms on {run.gpu})"
        )
    ref = {r.backend: r for r in runs}["reference"]
    blk = {r.backend: r for r in runs}["blocked"]
    speedup = (
        ref.class_seconds()["gather"] / blk.class_seconds()["gather"]
    )
    print(f"  blocked speedup on the gather class: {speedup:.2f}x")

    # The full per-(backend, class) calibration table.
    from repro.bench.figures import fig_backend_calibration

    print("\n=== calibration table ===")
    fig = fig_backend_calibration(
        num_vertices=args.vertices, num_edges=args.edges,
        feat=args.feature_dim, repeats=args.repeats,
    )
    print(fig.table)

    # ------------------------------------------------------------------
    # 4. The session surface: Session.backend and the sweep axis.
    counters = (
        repro.session()
        .model("gat").dataset("cora").strategy("ours")
        .backend("blocked")
        .counters()
    )
    print(
        "Session.backend('blocked') counters are backend-independent: "
        f"{counters.flops / 1e9:.2f} GFLOPs"
    )
    sweep = run_sweep(
        models=["gat"],
        datasets=["cora"],
        strategies=["ours"],
        backend=[None, "blocked"],
        feature_dim=16,
    )
    print(sweep.table())
    print("done.")


if __name__ == "__main__":
    main()
