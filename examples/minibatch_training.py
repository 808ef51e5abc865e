#!/usr/bin/env python
"""Sampled mini-batch training with coordinated IO/memory accounting.

The paper's full-graph counters pin every feature row in device memory,
so feature *gathers* never show up in the IO term.  Sampled training
(GraphSAGE / Cluster-GCN style) inverts that: every step gathers its
receptive field's feature rows, and because neighbouring fields
overlap, an epoch re-fetches the same rows many times — IO inflates
exactly as the per-batch footprint deflates.

This script drives the whole subsystem through the fluent Session API:

1. analytic per-batch accounting (`.minibatch(batch).report()`) across
   batch sizes — the memory-footprint/IO tradeoff table,
2. concrete training with `MiniBatchTrainer`, including the measured
   per-batch feature-gather bytes,
3. the reconciliation the test suite enforces: analytic gather bytes
   == engine-measured gather bytes, batch by batch, exactly.

Run:  python examples/minibatch_training.py [--dataset pubmed]
"""

import argparse

import numpy as np

import repro
from repro.graph import get_dataset
from repro.train import Adam, MiniBatchTrainer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="pubmed")
    parser.add_argument("--feature-dim", type=int, default=32)
    parser.add_argument("--batch", type=int, default=1024)
    parser.add_argument("--epochs", type=int, default=3)
    args = parser.parse_args()

    ds = get_dataset(args.dataset)
    graph = ds.graph()

    # ------------------------------------------------------------------
    # 1. The analytic tradeoff: epoch IO vs per-batch peak memory.
    print(f"=== analytic batch-size sweep ({args.dataset}, sage) ===")
    sweep = repro.run_sweep(
        models=["sage"],
        datasets=[args.dataset],
        strategies=["ours"],
        batch_size=[None, args.batch * 4, args.batch],
        feature_dim=args.feature_dim,
    )
    print(sweep.table())

    # ------------------------------------------------------------------
    # 2. Concrete sampled training through the Session.
    print(f"=== sampled training, batch={args.batch} ===")
    session = (
        repro.session()
        .model("sage").dataset(args.dataset).strategy("ours")
        .feature_dim(args.feature_dim)
        .minibatch(args.batch, seed=7)
    )
    report = session.report(train_steps=args.epochs)
    print(report.summary())

    # ------------------------------------------------------------------
    # 3. Reconcile analytic gathers against the engine, batch by batch.
    mc = report.minibatch
    compiled = session.compile()
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(graph.num_vertices, args.feature_dim))
    labels = ds.labels() if ds.has_labels else rng.integers(
        0, ds.num_classes, size=graph.num_vertices
    )
    trainer = MiniBatchTrainer(
        compiled, graph,
        batch_size=args.batch,
        precision="float32",   # the accounting dtype: exact reconciliation
        sampler_seed=7,        # same schedule as the analytic walker
    )
    epoch = trainer.train_epoch(feats, labels, Adam(lr=0.01))
    print("=== analytic vs measured feature gathers (first epoch) ===")
    print("batch  field   analytic-B  measured-B")
    for analytic, measured in zip(mc.batches, epoch.records):
        tick = "ok" if analytic.gather_bytes == measured.gather_bytes else "MISMATCH"
        print(
            f"{analytic.seeds:5d}  {analytic.field:6d}  "
            f"{analytic.gather_bytes:10d}  {measured.gather_bytes:10d}  {tick}"
        )
    assert mc.gather_bytes == epoch.gather_bytes
    print(
        f"epoch totals reconcile exactly: {mc.gather_bytes} bytes gathered, "
        f"field expansion {mc.expansion:.2f}x over |V|"
    )


if __name__ == "__main__":
    main()
