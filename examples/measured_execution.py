#!/usr/bin/env python
"""Measured execution: per-kernel wall-clock against the analytic model.

Every kernel is dispatched through one `(kind, fn)` table
(`repro.exec.kernels`).  This script executes a GAT forward plan with
per-kernel timing (warmup + median of repeats) through
`repro.exec.measure_plan`, pairs each kernel with its analytic roofline
prediction, and prints the per-class calibration table of a whole
training step.

Run:  python examples/measured_execution.py [--vertices 4000]
"""

import argparse

import numpy as np

from repro.exec import measure_plan
from repro.frameworks import compile_training, get_strategy
from repro.graph import chung_lu
from repro.models import GAT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=4000)
    parser.add_argument("--edges", type=int, default=40000)
    parser.add_argument("--feature-dim", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    graph = chung_lu(args.vertices, args.edges, seed=0)
    model = GAT(args.feature_dim, (args.feature_dim,), heads=1)
    compiled = compile_training(model, get_strategy("dgl-like"))
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(graph.num_vertices, args.feature_dim))
    arrays = dict(model.make_inputs(graph, feats))
    arrays.update(model.init_params(0))

    # ------------------------------------------------------------------
    # 1. Measured execution: wall-clock vs the analytic roofline.
    print("=== measured execution (forward plan) ===")
    run = measure_plan(graph, compiled.fwd_plan, arrays, repeats=args.repeats)
    for cls, seconds in run.class_seconds().items():
        print(
            f"  {cls:<10} {seconds * 1e3:8.2f} ms"
            f"   (analytic {run.class_analytic_seconds()[cls] * 1e3:.3f} ms)"
        )
    print(
        f"  total      {run.total_measured_s * 1e3:8.2f} ms"
        f"   (analytic {run.total_analytic_s * 1e3:.3f} ms on {run.gpu})"
    )

    # ------------------------------------------------------------------
    # 2. The per-class calibration table of a training step.
    from repro.bench.figures import fig_backend_calibration

    print("\n=== calibration table ===")
    fig = fig_backend_calibration(
        num_vertices=args.vertices, num_edges=args.edges,
        feat=args.feature_dim, repeats=args.repeats,
    )
    print(fig.table)
    print("done.")


if __name__ == "__main__":
    main()
