"""repro — reproduction of "Understanding GNN Computational Graph: A
Coordinated Computation, IO, and Memory Perspective" (MLSys 2022).

The library implements the paper's operator abstraction, its three
optimization passes (propagation-postponed reorganization, unified
thread-mapping fusion, intermediate-data recomputation) as a
composable pass pipeline, a numerically exact NumPy execution engine,
an analytic counter/latency substrate that stands in for the paper's
GPUs, and the baseline systems the paper compares against — all over
one shared IR.  Models, strategies, passes, GPUs and datasets live in
unified registries (:mod:`repro.registry`) that user code extends with
decorators.

Quick start — the fluent Session API::

    import repro

    report = (
        repro.session()
        .model("gat").dataset("cora")
        .strategy("ours").gpu("RTX3090")
        .report(train_steps=5)
    )
    print(report.summary())            # exact FLOPs/IO/memory + latency

Sweep the design space (plans are compiled once per model × strategy
and reused across datasets, GPUs, and GPU counts)::

    sweep = repro.run_sweep(
        models=["gat", "gcn"], datasets=["cora", "pubmed"],
        strategies=["dgl-like", "ours"], feature_dim=64,
    )
    print(sweep.table())

Scale out to a partitioned multi-GPU cluster — per-GPU counters,
halo-exchange traffic, and the comm/compute split::

    report = (
        repro.session()
        .model("gat").dataset("cora").strategy("ours")
        .cluster("V100", 4)
        .report()
    )
    print(report.summary())

The concrete twin, :class:`repro.exec.MultiEngine`, executes the same
plans per-partition with explicit NumPy halo exchange — a driver over
one ``Engine`` per part — and reproduces single-GPU results (graph
operators bit for bit, row-sharded dense ops to float tolerance; see
README, "differential-testing contract").

Sampled mini-batch training (GraphSAGE / Cluster-GCN style) — per-batch
receptive-field accounting where feature gathers dominate the IO term::

    report = (
        repro.session()
        .model("sage").dataset("pubmed").strategy("ours")
        .minibatch(batch_size=1024)
        .report(train_steps=2)        # one step = one sampled epoch
    )
    print(report.summary())           # epoch IO incl. gathers, per-batch peak

The concrete twin, :class:`repro.train.MiniBatchTrainer`, reproduces
the full-graph :class:`repro.train.Trainer` bit for bit in the
full-batch limit.

Online inference serving — micro-batched requests, LRU feature caching,
and SLO-aware scheduling on a virtual clock::

    report = (
        repro.session()
        .model("gat").dataset("pubmed").strategy("ours").gpu("RTX3090")
        .serve(num_requests=256, qps=4000.0, cache_rows=8192, seed=0)
    )
    print(report.summary())           # p50/p95/p99, SLO violations, hit rate

The served outputs are bit-identical to direct :class:`repro.Engine`
runs on each batch's induced subgraph, and the same seed reproduces the
identical :class:`repro.ServeReport`.

Extend without touching library source::

    from repro.registry import register_strategy, register_pass
    from repro.frameworks.strategy import ExecutionStrategy

    register_strategy(ExecutionStrategy(
        name="mine", fusion_mode="edge_chains", recompute_policy="boundary",
    ))
    repro.session().model("gat").dataset("cora").strategy("mine").counters()

The lower-level entry points (``compile_training``, ``get_strategy``)
remain available.  See ``examples/`` for runnable
end-to-end scripts and ``benchmarks/`` for the per-figure reproduction
harness.
"""

from repro.graph import (
    Graph,
    GraphPartition,
    GraphStats,
    PartitionStats,
    get_dataset,
    list_datasets,
    partition_graph,
)
from repro.frameworks import (
    compile_forward,
    compile_training,
    get_strategy,
    list_strategies,
)
from repro.gpu import (
    RTX2080,
    RTX3090,
    V100,
    Cluster,
    ClusterCostModel,
    CostModel,
    SimulatedOOM,
    get_gpu,
    make_cluster,
)
from repro.exec import Engine, MultiEngine
from repro.dyn import (
    DynamicGraph,
    FeatureStore,
    GraphDelta,
    UpdateEvent,
    mixed_workload,
)
from repro.serve import (
    BatchPolicy,
    InferenceRequest,
    InferenceServer,
    ServeReport,
    bursty_workload,
    poisson_workload,
)
from repro.train import Adam, MiniBatchTrainer, SGD, Trainer
from repro.session import (
    PlanCache,
    Session,
    SweepReport,
    run_sweep,
    session,
)
from repro.registry import (
    register_dataset,
    register_gpu,
    register_model,
    register_pass,
    register_strategy,
)

__version__ = "1.1.0"

__all__ = [
    "Graph",
    "GraphStats",
    "GraphPartition",
    "PartitionStats",
    "partition_graph",
    "get_dataset",
    "list_datasets",
    "compile_forward",
    "compile_training",
    "get_strategy",
    "list_strategies",
    "RTX2080",
    "RTX3090",
    "V100",
    "Cluster",
    "ClusterCostModel",
    "make_cluster",
    "CostModel",
    "SimulatedOOM",
    "get_gpu",
    "Engine",
    "MultiEngine",
    "BatchPolicy",
    "InferenceRequest",
    "InferenceServer",
    "ServeReport",
    "poisson_workload",
    "bursty_workload",
    "DynamicGraph",
    "GraphDelta",
    "FeatureStore",
    "UpdateEvent",
    "mixed_workload",
    "Adam",
    "SGD",
    "Trainer",
    "MiniBatchTrainer",
    "Session",
    "session",
    "PlanCache",
    "SweepReport",
    "run_sweep",
    "register_model",
    "register_strategy",
    "register_pass",
    "register_gpu",
    "register_dataset",
    "__version__",
]
