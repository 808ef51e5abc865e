"""Multi-GPU partitioned execution: scaling curves + a correctness check.

Walkthrough of the partition/cluster API:

1. configure a cluster fluently (``.cluster("V100", 4)``) and read the
   per-GPU counters, halo-exchange traffic, and comm/compute split,
2. sweep the GPU count to see the speedup against the comm share,
3. run the **concrete** MultiEngine against the single-GPU Engine on
   the same graph — partitioned execution with explicit NumPy halo
   exchange reproduces the unpartitioned results (the differential
   contract: optimizations, including partitioning, are accounting
   transforms — values never change).

Run:  PYTHONPATH=src python examples/multi_gpu_scaling.py
"""

import numpy as np

import repro
from repro.exec import Engine, MultiEngine
from repro.frameworks import compile_training, get_strategy
from repro.graph import get_dataset, partition_graph
from repro.registry import MODELS

# ----------------------------------------------------------------------
# 1. One cluster configuration, fluently.
# ----------------------------------------------------------------------
report = (
    repro.session()
    .model("gat").dataset("cora")
    .strategy("ours")
    .cluster("V100", 4)
    .report()
)
print(report.summary())
print()

# ----------------------------------------------------------------------
# 2. Sweep the GPU count: speedup vs comm share.
# ----------------------------------------------------------------------
sweep = repro.run_sweep(
    models=["gat", "gcn"],
    datasets=["cora"],
    strategies=["ours"],
    gpus=["V100"],
    num_gpus=(1, 2, 4, 8),
    feature_dim=64,
)
print(sweep.table())
print()
for model in ("gat", "gcn"):
    rows = sorted(sweep.by(model=model), key=lambda r: r.num_gpus)
    base = rows[0].latency_s
    print(f"{model}: ", end="")
    print(", ".join(
        f"{r.num_gpus} GPU{'s' if r.num_gpus > 1 else ''} -> "
        f"{base / r.latency_s:.2f}x, comm {r.comm_fraction * 100:.0f}%"
        for r in rows
    ))
print()

# ----------------------------------------------------------------------
# 3. Concrete partitioned execution == single-GPU execution.
# ----------------------------------------------------------------------
dataset = get_dataset("cora")
graph = dataset.graph()
model = MODELS.get("gat")(dataset.feature_dim, dataset.num_classes)
compiled = compile_training(model, get_strategy("ours"))

rng = np.random.default_rng(0)
features = dataset.features()
arrays = model.make_inputs(graph, features)
arrays.update(model.init_params(0))

single = Engine(graph, precision="float32")
want = single.run_plan(
    compiled.fwd_plan, single.bind(compiled.forward, arrays)
)

partition = partition_graph(graph, 4, method="greedy")
multi = MultiEngine(graph, partition, precision="float32")
got = multi.run_plan(
    compiled.fwd_plan, multi.bind(compiled.forward, arrays)
)

out = compiled.forward.outputs[0]
max_diff = float(np.abs(got[out] - want[out]).max())
print(f"greedy 4-way partition: cut {partition.cut_edges} of "
      f"{graph.num_edges} edges, replication factor "
      f"{partition.replication_factor:.2f}")
print(f"halo exchange moved {multi.comm_bytes / 2**20:.2f} MiB in "
      f"{len(multi.exchanges)} exchanges")
print(f"max |MultiEngine - Engine| on {out!r}: {max_diff:.2e}")
assert max_diff < 1e-5
print("partitioned execution matches single-GPU execution")
