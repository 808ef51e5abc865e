"""Per-figure experiment definitions (paper §7 settings).

Each builder runs one experiment at the paper's published scale (via
:class:`~repro.graph.stats.GraphStats` — including the full 115M-edge
Reddit degree model) and returns a :class:`FigureResult`: the raw
:class:`~repro.session.SweepRow` rows, each priced by
``Session._price`` like every sweep row, the normalised rows and the
rendered table.  :data:`FIGURES`, at the bottom of this module, is
the one catalogue of them: ``python -m repro.bench`` writes each entry
to ``benchmarks/results/<name>.txt``, ``benchmarks/`` asserts the
paper's qualitative shapes on the same builders, and the golden test
compares their output with the committed files.

Paper settings reproduced here:

- **Fig 7** — end-to-end training, normalised to DGL.
  GAT: 2 layers, hidden 128, 1 head (the fuseGNN-compatible setting);
  EdgeConv: 4 layers {64,64,128,256}, k ∈ {20,40}, batch ∈ {32,64};
  MoNet: 2 layers hidden 16, (k,r) per dataset as §7.2.
- **Fig 8** — reorganization ablation, forward only: GAT on Pubmed,
  EdgeConv 1 layer f=64 k=40.
- **Fig 9** — fusion ablation, forward only: GAT h=4 f=64 on Reddit,
  EdgeConv k=40 b=64 f=64, MoNet k=2 r=1 f=16 on Reddit.
- **Fig 10** — recomputation ablation, training: GAT and MoNet in the
  §7.3 settings, three variants (w/o fusion, fusion+stash,
  fusion+recompute).
- **Fig 11** — ours on RTX 2080 vs DGL on RTX 3090, all three models.
- **Inline §1** — 92.4 % redundant FLOPs (EdgeConv), 91.9 %
  intermediate-data memory share (GAT).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.harness import normalized_rows
from repro.bench.report import format_table
from repro.frameworks import compile_forward, compile_training, get_strategy
from repro.session import PlanCache, Session, SweepRow
from repro.gpu.cost_model import CostModel
from repro.gpu.spec import GPUSpec, RTX2080, RTX3090
from repro.graph.datasets import get_dataset
from repro.graph.stats import GraphStats
from repro.models import GAT, GCN, EdgeConv, GraphSAGE, MoNet

__all__ = ["FIGURES", "WALL_CLOCK", "FigureResult", "ANALYSIS_STRATEGIES"]


# ----------------------------------------------------------------------
# Workload catalogues
# ----------------------------------------------------------------------
_CITATIONS = ("cora", "citeseer", "pubmed")


def _dataset_stats(name: str) -> GraphStats:
    return get_dataset(name).stats


def _modelnet_stats(batch: int, k: int) -> GraphStats:
    # 1024-point clouds; the k-NN topology is exactly k-regular.
    return GraphStats.regular(batch * 1024, k)


def _gat_for(name: str) -> GAT:
    ds = get_dataset(name)
    return GAT(ds.feature_dim, (128, ds.num_classes), heads=1)


def _monet_for(name: str) -> MoNet:
    ds = get_dataset(name)
    k, r = {"cora": (3, 2), "citeseer": (3, 3), "pubmed": (3, 3)}.get(
        name, (2, 1)
    )
    return MoNet(
        ds.feature_dim, (16, ds.num_classes), num_kernels=k, pseudo_dim=r
    )


# The §7.3 ablation settings.
def _gat_ablation(training: bool) -> GAT:
    ds = get_dataset("reddit-full")
    dims = (64, ds.num_classes) if training else (64,)
    return GAT(ds.feature_dim, dims, heads=4)


def _monet_ablation(training: bool) -> MoNet:
    ds = get_dataset("reddit-full")
    dims = (16, ds.num_classes) if training else (16,)
    return MoNet(ds.feature_dim, dims, num_kernels=2, pseudo_dim=1)


def _edgeconv_ablation(training: bool) -> EdgeConv:
    return EdgeConv(3, (64, 64, 128, 256) if training else (64,))


@dataclass
class FigureResult:
    """Raw rows plus the rendered table for one figure."""

    results: List[SweepRow]
    table: str
    normalized: List[Dict[str, object]]

    def by(self, **match) -> List[SweepRow]:
        out = []
        for r in self.results:
            if all(getattr(r, k) == v for k, v in match.items()):
                out.append(r)
        return out

    def norm(self, workload: str, strategy: str) -> Dict[str, object]:
        for row in self.normalized:
            if row["workload"] == workload and row["strategy"] == strategy:
                return row
        raise KeyError((workload, strategy))


def _measure_grid(
    runs: Sequence[Tuple[object, str, GraphStats]],
    variants: Sequence[Tuple[str, GPUSpec]],
    *,
    training: bool = True,
) -> List[SweepRow]:
    """Every run under every ``(strategy, gpu)`` variant, run-major: one
    training step (``training=False``: one inference pass) per row, the
    run's name in its ``dataset`` column.

    One plan cache per grid: the device only enters at latency-model
    time, so workloads sharing a model instance, every repeated strategy
    and both GPUs of a pair reuse one compilation.
    """
    cache = PlanCache()
    return [
        SweepRow.from_report(
            Session(cache=cache)
            .model(model).stats(stats, workload).strategy(strategy).gpu(gpu)
            .report(training=training)
        )
        for model, workload, stats in runs
        for strategy, gpu in variants
    ]


def _run_grid(
    name: str,
    runs: Sequence[Tuple[object, str, GraphStats]],
    strategies: Sequence[str],
    *,
    gpu: GPUSpec = RTX3090,
    training: bool = True,
    baseline: str = "dgl-like",
) -> FigureResult:
    results = _measure_grid(
        runs, [(strategy, gpu) for strategy in strategies], training=training
    )
    normalized = normalized_rows(results, baseline=baseline)
    rows = [
        [
            r["workload"], r["strategy"],
            f"{r['speedup']:.2f}x", f"{r['io_saving']:.2f}x",
            f"{r['memory_saving']:.2f}x",
        ]
        for r in normalized
    ]
    table = format_table(
        ["workload", "strategy", "speedup", "io-saving", "mem-saving"],
        rows,
        title=f"{name} (normalised to {baseline}, {gpu.name})",
    )
    return FigureResult(results, table, normalized)


# ======================================================================
# Figure 7 — end-to-end training vs DGL (and fuseGNN for GAT)
# ======================================================================
def fig7_gat() -> FigureResult:
    runs = [
        (_gat_for(n), n, _dataset_stats(n)) for n in _CITATIONS
    ] + [(_gat_for("reddit-full"), "reddit", _dataset_stats("reddit-full"))]
    return _run_grid(
        "fig7-gat",
        runs,
        strategies=("dgl-like", "fusegnn-like", "ours"),
    )


def fig7_edgeconv() -> FigureResult:
    model = EdgeConv(3, (64, 64, 128, 256))
    runs = [
        (model, f"modelnet-k{k}-b{b}", _modelnet_stats(b, k))
        for k in (20, 40)
        for b in (32, 64)
    ]
    return _run_grid("fig7-edgeconv", runs, strategies=("dgl-like", "ours"))


def fig7_monet() -> FigureResult:
    runs = [
        (_monet_for(n), n, _dataset_stats(n)) for n in _CITATIONS
    ] + [(_monet_for("reddit-full"), "reddit", _dataset_stats("reddit-full"))]
    return _run_grid("fig7-monet", runs, strategies=("dgl-like", "ours"))


# ======================================================================
# Figure 8 — reorganization ablation (forward only)
# ======================================================================
def fig8_reorganization() -> FigureResult:
    runs = [
        (GAT(get_dataset("pubmed").feature_dim, (64,), heads=4),
         "gat-pubmed", _dataset_stats("pubmed")),
        (_edgeconv_ablation(training=False),
         "edgeconv-k40-b64", _modelnet_stats(64, 40)),
    ]
    return _run_grid(
        "fig8-reorganization",
        runs,
        strategies=("ours-noreorg", "ours"),
        training=False,
        baseline="ours-noreorg",
    )


# ======================================================================
# Figure 9 — fusion ablation (forward only)
# ======================================================================
def fig9_fusion() -> FigureResult:
    runs = [
        (_gat_ablation(training=False), "gat-reddit",
         _dataset_stats("reddit-full")),
        (_edgeconv_ablation(training=False), "edgeconv-k40-b64",
         _modelnet_stats(64, 40)),
        (_monet_ablation(training=False), "monet-reddit",
         _dataset_stats("reddit-full")),
    ]
    return _run_grid(
        "fig9-fusion",
        runs,
        strategies=("ours-nofusion", "ours"),
        training=False,
        baseline="ours-nofusion",
    )


# ======================================================================
# Figure 10 — recomputation ablation (training)
# ======================================================================
def fig10_recomputation() -> FigureResult:
    runs = [
        (_gat_ablation(training=True), "gat-reddit",
         _dataset_stats("reddit-full")),
        (_monet_ablation(training=True), "monet-reddit",
         _dataset_stats("reddit-full")),
    ]
    results = _measure_grid(
        runs,
        [(s, RTX3090) for s in ("ours-nofusion", "ours-stash", "ours")],
    )
    rows = [
        [
            r.dataset,
            {"ours-nofusion": "w/o fusion",
             "ours-stash": "fusion+stash",
             "ours": "fusion+recompute"}[r.strategy],
            f"{r.peak_memory_bytes / 2**30:.2f}",
            f"{r.latency_s * 1e3:.2f}",
            f"{r.stash_bytes / 2**30:.2f}",
        ]
        for r in results
    ]
    table = format_table(
        ["workload", "variant", "memory (GiB)", "latency (ms)", "stash (GiB)"],
        rows,
        title="fig10-recomputation (RTX3090, one training step)",
    )
    normalized = normalized_rows(results, baseline="ours-stash")
    return FigureResult(results, table, normalized)


# ======================================================================
# Figure 11 — small-memory GPU (RTX 2080) vs DGL on RTX 3090
# ======================================================================
def fig11_small_gpu() -> FigureResult:
    runs = [
        (GAT(get_dataset("reddit-full").feature_dim,
             (64, get_dataset("reddit-full").num_classes), heads=4),
         "gat-reddit", _dataset_stats("reddit-full")),
        (_edgeconv_ablation(training=True), "edgeconv-k40-b64",
         _modelnet_stats(64, 40)),
        (_monet_ablation(training=True), "monet-reddit",
         _dataset_stats("reddit-full")),
    ]
    results = _measure_grid(
        runs,
        [
            (strategy, gpu)
            for gpu in (RTX3090, RTX2080)
            for strategy in ("dgl-like", "ours")
        ],
    )
    rows = [
        [
            r.dataset, r.strategy, r.gpu,
            "OOM" if not r.fits_device else f"{r.latency_s * 1e3:.2f}",
            f"{r.peak_memory_bytes / 2**30:.2f}",
        ]
        for r in results
    ]
    table = format_table(
        ["workload", "strategy", "gpu", "latency (ms)", "memory (GiB)"],
        rows,
        title="fig11-small-gpu (one training step; OOM = exceeds DRAM)",
    )
    return FigureResult(results, table, [])


# ======================================================================
# Multi-GPU scaling (partitioned execution extension)
# ======================================================================
def fig_multi_gpu_scaling() -> FigureResult:
    """Training-step scaling of GAT and MoNet across V100 clusters.

    For each GPU count the same compiled plan runs on a hash-partitioned
    Reddit workload (expected-partition model at the published 115M-edge
    scale): per-GPU compute shrinks roughly as ``1/P`` while halo
    exchange grows with the ghost rows each part fetches, so the comm
    share of off-chip traffic rises monotonically with the GPU count.
    Halos are vertex rows per ghost (an out-edge aggregation fetches its
    ghost destinations' rows, not its edge messages), so on Reddit
    every point stays compute-bound.
    Rows land in ``normalized`` as dicts keyed by (workload, gpus);
    speedups are relative to the one-GPU row.
    """
    stats = _dataset_stats("reddit-full")
    runs = [
        (_gat_ablation(training=True), "gat-reddit"),
        (_monet_ablation(training=True), "monet-reddit"),
    ]
    cache = PlanCache()
    normalized: List[Dict[str, object]] = []
    for model, workload in runs:
        base_latency: Optional[float] = None
        for n in (1, 2, 4, 8):
            sess = (
                Session(cache=cache)
                .model(model).stats(stats, workload).strategy("ours")
            )
            if n <= 1:
                sess.gpu("V100")
            else:
                sess.cluster("V100", n)
            report = sess.report()
            row = SweepRow.from_report(report)
            if base_latency is None:
                base_latency = report.latency_s
            normalized.append(
                {
                    "workload": workload,
                    "strategy": "ours",
                    "gpus": n,
                    "latency_s": report.latency_s,
                    "speedup": base_latency / report.latency_s,
                    "comm_bytes": row.comm_bytes,
                    "comm_fraction": row.comm_fraction,
                    "compute_s": report.compute_seconds,
                    "comm_s": report.comm_seconds,
                    "peak_memory_bytes": row.peak_memory_bytes,
                    "comm_bound": report.comm_seconds > report.compute_seconds,
                }
            )
    table_rows = [
        [
            r["workload"], r["gpus"],
            f"{r['latency_s'] * 1e3:.1f}",
            f"{r['speedup']:.2f}x",
            f"{r['comm_bytes'] / 2**30:.2f}",
            f"{r['comm_fraction'] * 100:.1f}%",
            f"{r['compute_s'] * 1e3:.1f}",
            f"{r['comm_s'] * 1e3:.1f}",
            "comm" if r["comm_bound"] else "compute",
        ]
        for r in normalized
    ]
    table = format_table(
        ["workload", "gpus", "ms/step", "speedup", "halo GiB",
         "comm share", "compute ms", "comm ms", "bound"],
        table_rows,
        title=(
            "multi-gpu-scaling (V100 clusters, one training step, "
            "hash partition)"
        ),
    )
    return FigureResult([], table, normalized)


# ======================================================================
# Mini-batch IO (sampled-training extension)
# ======================================================================
def fig_minibatch_io() -> FigureResult:
    """Feature-gather IO vs per-batch memory of sampled training.

    GraphSAGE, full-graph versus sampled mini-batch epochs, under both
    §6 recomputation policies.  The sampler is seeded, so the *same
    exact schedule* of batches prices every strategy and rows differ
    only in the compiled plans.  Qualitative shape:
    shrinking the batch shrinks the per-batch receptive field and with
    it the peak footprint (the device-fit quantity) but inflates epoch
    IO — overlapping fields re-gather shared feature rows — the
    coordinated-tradeoff story of the paper carried into the sampled
    regime, orthogonal to the stash-vs-recompute axis.  Pubmed is the
    workload because its mean degree (~4.5) leaves 2-hop
    fields genuinely partial; on Reddit-degree graphs the fields
    saturate the whole graph (neighbour explosion) and sampling pays
    the IO tax without any memory win.  Rows land in ``normalized`` as
    dicts keyed by (strategy, batch).
    """
    ds = get_dataset("pubmed")
    model = GraphSAGE(ds.feature_dim, (128, ds.num_classes))
    gpu = RTX3090
    cache = PlanCache()
    normalized: List[Dict[str, object]] = []
    for strategy in ("ours-stash", "ours"):
        sess = (
            Session(cache=cache)
            .model(model).dataset("pubmed").strategy(strategy).gpu(gpu)
        )
        for bs in (None, 4096, 1024, 256):
            report = sess.minibatch(bs).report()
            row = SweepRow.from_report(report)
            epoch = report.minibatch  # None on the full-graph row
            normalized.append(
                {
                    "strategy": strategy,
                    "batch": bs,
                    "num_batches": epoch.num_batches if epoch else 1,
                    "expansion": epoch.expansion if epoch else 1.0,
                    "gather_bytes": row.gather_bytes,
                    "io_bytes": row.io_bytes,
                    "peak_memory_bytes": row.peak_memory_bytes,
                    "stash_bytes": row.stash_bytes,
                    "latency_s": row.latency_s,
                }
            )
    table_rows = [
        [
            r["strategy"],
            "full" if r["batch"] is None else str(r["batch"]),
            r["num_batches"],
            f"{r['expansion']:.2f}x",
            f"{r['gather_bytes'] / 2**20:.1f}",
            f"{r['io_bytes'] / 2**20:.1f}",
            f"{r['peak_memory_bytes'] / 2**20:.1f}",
            f"{r['stash_bytes'] / 2**20:.1f}",
            f"{r['latency_s'] * 1e3:.2f}",
        ]
        for r in normalized
    ]
    table = format_table(
        ["strategy", "batch", "batches", "field", "gather MiB",
         "epoch IO MiB", "peak MiB", "stash MiB", "epoch ms"],
        table_rows,
        title=(
            "minibatch-io (sage on pubmed, 2-hop fields, "
            f"{gpu.name}; epoch totals, per-batch peak)"
        ),
    )
    return FigureResult([], table, normalized)


# ======================================================================
# Online serving latency (inference-serving extension)
# ======================================================================
def fig_serving_latency() -> FigureResult:
    """Tail latency of online serving across offered load and caching.

    One model served from a fixed-seed Poisson stream (Zipf-skewed seed
    popularity) at several offered loads, with the LRU feature cache
    off and on.  Qualitative shape: at low qps requests eat the
    batcher's ``max_wait`` timeout, at high qps batches fill instantly
    but queueing pushes the tail out; the cache strictly removes
    gather bytes (hit + miss reconcile with the uncached bill exactly)
    and so never makes a batch slower.  The virtual clock is fully
    analytic — ``execute=False`` skips concrete engine runs without
    changing a single metric — which keeps the golden table cheap.
    Rows land in ``normalized`` keyed by (cache_rows, qps).
    """
    cache = PlanCache()
    normalized: List[Dict[str, object]] = []
    for cache_rows in (0, 8192):
        for qps in (500.0, 2000.0, 8000.0, 32000.0):
            rep = (
                Session(cache=cache)
                .model("gat").dataset("pubmed").strategy("ours").gpu(RTX3090)
                .serve(
                    num_requests=192, qps=qps, seeds_per_request=4,
                    slo_s=0.01, zipf_alpha=0.9, cache_rows=cache_rows,
                    execute=False,
                )
            )
            normalized.append(
                {
                    "cache_rows": cache_rows,
                    "qps": qps,
                    "num_batches": rep.num_batches,
                    "mean_batch_requests": rep.mean_batch_requests,
                    "p50_latency_s": rep.p50_latency_s,
                    "p95_latency_s": rep.p95_latency_s,
                    "p99_latency_s": rep.p99_latency_s,
                    "throughput_rps": rep.throughput_rps,
                    "cache_hit_rate": rep.cache_hit_rate,
                    "gather_miss_bytes": rep.gather_miss_bytes,
                    "uncached_gather_bytes": rep.uncached_gather_bytes,
                    "slo_violation_rate": rep.slo_violation_rate,
                    "utilization": rep.gpu_utilization[0],
                }
            )
    table_rows = [
        [
            str(r["cache_rows"]),
            f"{r['qps']:.0f}",
            r["num_batches"],
            f"{r['mean_batch_requests']:.1f}",
            f"{r['p50_latency_s'] * 1e3:.2f}",
            f"{r['p95_latency_s'] * 1e3:.2f}",
            f"{r['p99_latency_s'] * 1e3:.2f}",
            f"{r['cache_hit_rate'] * 100:.0f}%",
            f"{r['slo_violation_rate'] * 100:.0f}%",
            f"{r['utilization'] * 100:.0f}%",
        ]
        for r in normalized
    ]
    table = format_table(
        ["cache", "qps", "batches", "req/b", "p50 ms", "p95 ms",
         "p99 ms", "hit", "viol", "util"],
        table_rows,
        title=(
            "serving-latency (gat on pubmed, RTX3090, 192 Poisson "
            "requests, zipf 0.9, slo 10 ms, edf)"
        ),
    )
    return FigureResult([], table, normalized)


def fig_dynamic_serving() -> FigureResult:
    """Dynamic serving: the update-fraction × compaction-period curve.

    One model serves mixed read/write streams
    (:func:`repro.dyn.mixed_workload`) at a fixed offered load, sweeping
    the write share of the event stream against how often the delta
    overlay is folded into a fresh CSR.  Qualitative shape: a higher
    update fraction invalidates more cached rows (the ``inval`` column
    grows, the hit rate falls) and raises staleness pressure, while a
    shorter compaction period trades pending-overlay size for
    compaction IO — the ``compact`` column bills the full
    read-old + write-new rebuild, so eager compaction dominates the
    mutation ledger.  Answers are exact at every cell: each batch
    observes its dispatch-time snapshot bit-identically to a
    from-scratch rebuild, so only the IO economics move.  The ``0.00``
    row is the static baseline (no updates, compaction moot).
    Rows land in ``normalized`` keyed by (update_frac, compact_every).
    """
    cache = PlanCache()
    normalized: List[Dict[str, object]] = []
    for update_frac in (0.0, 0.2, 0.4):
        periods: Sequence[Optional[int]] = (
            [None] if update_frac == 0.0 else [1, 4, 16]
        )
        for compact_every in periods:
            rep = (
                Session(cache=cache)
                .model("gat").dataset("pubmed").strategy("ours").gpu(RTX3090)
                .serve(
                    num_requests=128, qps=4000.0, seeds_per_request=4,
                    slo_s=0.01, zipf_alpha=0.9, cache_rows=8192,
                    execute=False, update_frac=update_frac,
                    compact_every=compact_every, new_vertex_prob=0.25,
                )
            )
            normalized.append(
                {
                    "update_frac": update_frac,
                    "compact_every": compact_every,
                    "num_batches": rep.num_batches,
                    "p50_latency_s": rep.p50_latency_s,
                    "p99_latency_s": rep.p99_latency_s,
                    "cache_hit_rate": rep.cache_hit_rate,
                    "invalidation_rate": rep.invalidation_rate,
                    "gather_invalidated_bytes": rep.gather_invalidated_bytes,
                    "mean_staleness_s": rep.mean_staleness_s,
                    "graph_version": rep.graph_version,
                    "feature_version": rep.feature_version,
                    "compactions": rep.compactions,
                    "delta_apply_bytes": rep.delta_apply_bytes,
                    "compact_bytes": rep.compact_bytes,
                    "feature_put_bytes": rep.feature_put_bytes,
                    "slo_violation_rate": rep.slo_violation_rate,
                }
            )
    table_rows = [
        [
            f"{r['update_frac']:.2f}",
            "-" if r["compact_every"] is None else str(r["compact_every"]),
            r["num_batches"],
            f"{r['p50_latency_s'] * 1e3:.2f}",
            f"{r['p99_latency_s'] * 1e3:.2f}",
            f"{r['cache_hit_rate'] * 100:.0f}%",
            f"{r['invalidation_rate'] * 100:.1f}%",
            f"{r['mean_staleness_s'] * 1e3:.2f}",
            f"{r['graph_version']}/{r['feature_version']}",
            str(r["compactions"]),
            f"{r['delta_apply_bytes'] / 2**10:.1f}",
            f"{r['compact_bytes'] / 2**20:.1f}",
        ]
        for r in normalized
    ]
    table = format_table(
        ["upd", "compact", "batches", "p50 ms", "p99 ms", "hit",
         "inval", "stale ms", "vG/vF", "folds", "\u0394 KiB", "cmp MiB"],
        table_rows,
        title=(
            "dynamic-serving (gat on pubmed, RTX3090, 128 reads at 4000 "
            "qps, zipf 0.9, 8192 cache rows, edf)"
        ),
    )
    return FigureResult([], table, normalized)


# ======================================================================
# Arena memory planning
# ======================================================================
def fig_memory_plan() -> FigureResult:
    """Deliverable vs analytic peak of every model under ``ours``.

    For each registered model, one training step on the workload under
    the full unified-fusion + recomputation strategy, its memory priced
    two ways in the fusion order:

    - **ledger** — the fresh-storage analytic peak (max over
      forward/backward phases),
    - **arena** — the best-fit slab packing of the plans' boundary
      values (pinned inputs/parameters live outside it).

    The qualitative shape pinned by the golden table: the arena never
    exceeds the ledger peak, and ``arena + pinned`` — what a runtime
    actually provisions — equals the ledger within slab alignment.
    Rows land in ``normalized`` keyed by model.
    """
    from repro.registry import MODELS

    cache = PlanCache()
    normalized: List[Dict[str, object]] = []
    for name in sorted(MODELS.names()):
        sess = (
            Session(cache=cache)
            .model(name).dataset("pubmed").strategy("ours")
        )
        smp = sess.memory_plan()
        normalized.append(
            {
                "workload": name,
                "strategy": "ours",
                "ledger_peak_bytes": sess.counters().peak_memory_bytes,
                "arena_bytes": smp.arena_bytes,
                "planned_peak_bytes": smp.planned_peak_bytes,
                "pinned_bytes": max(
                    p.pinned_bytes for p in smp.phases()
                ),
                "reuse_factor": smp.reuse_factor,
            }
        )
    rows = [
        [
            r["workload"],
            f"{r['ledger_peak_bytes'] / 2**20:.2f}",
            f"{r['arena_bytes'] / 2**20:.2f}",
            f"{r['planned_peak_bytes'] / 2**20:.2f}",
            f"{r['reuse_factor']:.2f}x",
        ]
        for r in normalized
    ]
    table = format_table(
        ["model", "ledger MiB", "arena MiB", "planned MiB", "reuse"],
        rows,
        title=(
            "memory-plan (model zoo on pubmed, ours, one training "
            "step; planned = pinned + arena)"
        ),
    )
    return FigureResult([], table, normalized)


# ======================================================================
# Static plan analysis (checker inventory extension)
# ======================================================================

#: Strategies swept per model in the static-analysis inventory: the
#: per-op baseline, the inference-only configuration, and ``ours``
#: (whose int8 precision variant rides along as a fourth target).
ANALYSIS_STRATEGIES = ("dgl-like", "huang-like", "ours")


def fig_static_analysis() -> FigureResult:
    """Checker × model inventory of the static plan analyzer.

    For every registered model, the compiled artifacts of the
    :data:`ANALYSIS_STRATEGIES` configurations (plus ``ours`` at int8
    storage precision) are run through the full
    :class:`~repro.analysis.Analyzer` stack — structure, races, arena,
    precision-flow, halo, partition and differential checkers — and the
    ERROR counts per checker are tabulated.  The golden contract is
    that every cell is zero: the zoo is clean, and any pass or planner
    change that introduces a race, an overlapping slab, a leaked
    logical dtype or a missing halo record flips a cell and fails the
    golden regression.  The target-independent determinism lint of the
    serve/dyn/bench trees is folded into the table title.

    The analyzer's *sensitivity* (that each checker actually kills its
    mutant class) is pinned separately by the ``--self-test`` mutation
    harness; this figure pins the zoo's *cleanliness*.
    """
    from repro.analysis import Analyzer, build_bundle, lint_paths
    from repro.analysis.determinism import default_lint_paths
    from repro.analysis.diagnostics import Severity
    from repro.registry import MODELS

    checker_cols = (
        "structure", "races", "arena", "precision",
        "halo", "partition", "differential",
    )
    cache = PlanCache()
    analyzer = Analyzer()
    normalized: List[Dict[str, object]] = []
    for name in sorted(MODELS.names()):
        counts = {c: 0 for c in checker_cols}
        targets = 0
        kernels = 0
        for strategy in ANALYSIS_STRATEGIES:
            sessions = [
                Session(cache=cache)
                .model(name).dataset("cora").strategy(strategy)
            ]
            if strategy == "ours":
                sessions.append(
                    Session(cache=cache)
                    .model(name).dataset("cora").strategy("ours")
                    .precision("int8")
                )
            for session in sessions:
                bundle = build_bundle(session, lint=False)
                report = analyzer.run(bundle)
                targets += 1
                kernels += sum(
                    len(a.plan.kernels) for a in bundle.plans
                )
                for diag in report.errors:
                    if diag.checker in counts:
                        counts[diag.checker] += 1
        row: Dict[str, object] = {
            "workload": name,
            "targets": targets,
            "kernels": kernels,
        }
        row.update(counts)
        row["clean"] = not any(counts.values())
        normalized.append(row)

    lint_errors = sum(
        1 for d in lint_paths(default_lint_paths())
        if d.severity is Severity.ERROR
    )
    rows = [
        [r["workload"], r["targets"], r["kernels"]]
        + [r[c] for c in checker_cols]
        + ["clean" if r["clean"] else "DIRTY"]
        for r in normalized
    ]
    table = format_table(
        ["model", "targets", "kernels"] + list(checker_cols) + ["status"],
        rows,
        title=(
            "static-analysis (model zoo on cora, "
            f"{'+'.join(ANALYSIS_STRATEGIES)} & ours+int8; ERROR "
            "diagnostics per checker; serve/dyn/bench determinism "
            f"lint: {lint_errors} error(s))"
        ),
    )
    return FigureResult([], table, normalized)


# ======================================================================
# Mixed-precision IO/memory (dtype-aware accounting extension)
# ======================================================================
def fig_precision_io() -> FigureResult:
    """Feature-gather IO and analytic peak per storage precision.

    For every registered model, the inference plan under ``ours`` is
    compiled at each precision policy and two byte counts are read off
    the analytic ledgers: the full-graph feature-gather bill (vertex
    data inputs at storage width,
    :func:`~repro.exec.analytic.feature_gather_row_bytes` × ``|V|``)
    and the peak resident bytes of the plan walk.  Ratios are against
    the fp32 oracle.

    The shape pinned by the golden table: fp16/bf16 cut both gather IO
    and peak to **exactly half** of fp32 on every model (every float32
    spec halves, and the per-row counts are even), while int8 cuts the
    gather further — ``(f + 4) / 4f`` of fp32, the per-row
    dequantisation scale riding along — but *rebounds* on peak, because
    quantisation compresses only the stored feature rows and every
    dequantised intermediate stays float32.
    """
    from repro.exec.analytic import feature_gather_row_bytes
    from repro.ir.precision import PRECISIONS
    from repro.registry import MODELS

    cache = PlanCache()
    normalized: List[Dict[str, object]] = []
    for name in sorted(MODELS.names()):
        base_gather = base_peak = None
        for prec in PRECISIONS:  # fp32 first: the ratio baseline
            s = (
                Session(cache=cache)
                .model(name).dataset("pubmed").strategy("ours")
                .precision(prec)
            )
            stats = s.resolve_stats()
            gather = (
                feature_gather_row_bytes(s.compile(training=False).plan)
                * stats.num_vertices
            )
            peak = s.counters(training=False).peak_memory_bytes
            if prec == "fp32":
                base_gather, base_peak = gather, peak
            normalized.append(
                {
                    "workload": name,
                    "precision": prec,
                    "gather_bytes": gather,
                    "gather_ratio": gather / base_gather,
                    "peak_bytes": peak,
                    "peak_ratio": peak / base_peak,
                }
            )
    rows = [
        [
            r["workload"],
            r["precision"],
            f"{r['gather_bytes'] / 2**20:.2f}",
            f"{r['gather_ratio']:.3f}x",
            f"{r['peak_bytes'] / 2**20:.2f}",
            f"{r['peak_ratio']:.3f}x",
        ]
        for r in normalized
    ]
    table = format_table(
        ["model", "prec", "gather MiB", "vs fp32", "peak MiB", "vs fp32"],
        rows,
        title=(
            "precision-io (model zoo on pubmed, ours, inference; "
            "feature gather at storage width, analytic peak)"
        ),
    )
    return FigureResult([], table, normalized)


# ======================================================================
# Kernel calibration (measured execution extension)
# ======================================================================
def fig_backend_calibration(
    *,
    num_vertices: int = 20000,
    num_edges: int = 400000,
    feat: int = 64,
    repeats: int = 3,
) -> FigureResult:
    """Measured vs analytic seconds per kernel class.

    One GAT training step (forward + backward plans) on a heavy-tailed
    Chung–Lu graph, compiled under ``dgl-like`` — the per-op macro
    strategy, so every gather is a pure segment reduction and all five
    kernel classes appear as separate launches.  Both plans execute
    through :func:`repro.exec.measure.measure_plan` (warmup + median of
    ``repeats``), and rows report per-class measured wall-clock next to
    the analytic roofline prediction and their ratio.

    The ratio column is a *calibration*, not a benchmark: the analytic
    model prices a GPU and the measurement prices this host's NumPy
    substrate, so ratios are large — but they are stable per class.
    The golden test pins the table's structure only.
    """
    from dataclasses import replace as _dc_replace

    from repro.exec.analytic import vertex_data_inputs
    from repro.exec.engine import Engine
    from repro.exec.measure import calibration_rows, measure_plan
    from repro.graph.generators import chung_lu
    from repro.ir.module import GRAPH_CONSTANTS

    graph = chung_lu(num_vertices, num_edges, seed=0)
    model = GAT(feat, (feat,), heads=1)
    compiled = compile_training(model, get_strategy("dgl-like"))

    rng = np.random.default_rng(0)
    # Materialise features in the compiled plan's declared storage
    # dtype rather than assuming float32.
    feat_name = vertex_data_inputs(compiled.forward)[0]
    features = rng.standard_normal((num_vertices, feat)).astype(
        compiled.forward.specs[feat_name].concrete_dtype
    )
    arrays = dict(model.make_inputs(graph, features))
    arrays.update(model.init_params(0))

    # One forward supplies the backward plan's stash and the all-ones
    # gradient seeds; both plans are then measured on those arrays.
    ref = Engine(graph, precision="float32")
    fwd = ref.run_plan(
        compiled.fwd_plan, ref.bind(compiled.forward, arrays), unwrap=False
    )
    bwd_module = compiled.bwd_plan.module
    bwd_arrays: Dict[str, np.ndarray] = {}
    for name in list(bwd_module.inputs) + list(bwd_module.params):
        if name.startswith("grad__"):
            bwd_arrays[name] = np.ones_like(fwd[name[len("grad__"):]])
        elif name in GRAPH_CONSTANTS:
            continue  # bind() synthesises these from the topology
        elif name in fwd:
            bwd_arrays[name] = fwd[name]
        else:
            bwd_arrays[name] = arrays[name]

    # The step is one run: backward kernels index after the forward's.
    run = measure_plan(graph, compiled.fwd_plan, arrays, repeats=repeats)
    bwd_run = measure_plan(graph, compiled.bwd_plan, bwd_arrays, repeats=repeats)
    offset = len(compiled.fwd_plan.kernels)
    run.timings += [_dc_replace(t, index=t.index + offset) for t in bwd_run.timings]

    normalized = calibration_rows(run)
    table = format_table(
        ["dtype", "class", "kernels", "measured s", "analytic s", "ratio"],
        [
            [
                row["dtype"], row["kernel_class"], str(row["kernels"]),
                f"{row['measured_s']:.6f}", f"{row['analytic_s']:.6f}",
                f"{row['ratio']:.2f}",
            ]
            for row in normalized
        ],
        title=(
            "kernel-calibration (gat training step, dgl-like plans, "
            f"V={num_vertices} E={num_edges} f={feat}, "
            f"median of {repeats}; analytic on {run.gpu})"
        ),
    )
    return FigureResult([], table, normalized)


# ======================================================================
# Thread-mapping ablation (§5, Figure 5)
# ======================================================================
def fig_mapping_ablation() -> FigureResult:
    """Vertex- vs edge-balanced mapping of a GCN aggregate kernel.

    §5 lets a fused kernel "select between vertex-balanced or
    edge-balanced mapping based on performance profiling": edge-balanced
    mapping balances perfectly but pays atomics for reductions
    (Fig. 5(d)); vertex-balanced mapping is atomic-free but serialises
    on hub vertices (Fig. 5(c)).  GCN's aggregate has no ReduceScatter,
    so the mapping is free to choose; the table prices both on a skewed
    (``reddit-lite``) and a degree-matched regular graph, next to
    GNNAdvisor-style neighbor grouping (§8.1) on the vertex mapping.
    Rows land in ``normalized`` keyed by workload, latencies in seconds.
    """
    skew = get_dataset("reddit-lite").stats
    regular = GraphStats.regular(skew.num_vertices, round(skew.mean_in_degree))
    model = GCN(64, (64,))
    compiled = compile_forward(model, get_strategy("ours"))
    normalized: List[Dict[str, object]] = []
    for workload, stats in (("skewed", skew), ("regular", regular)):
        vertex, edge = _measure_grid(
            [(model, workload, stats)],
            [("ours", RTX3090), ("ours-edgemap", RTX3090)],
            training=False,
        )
        grouped = CostModel(RTX3090, neighbor_group_size=128).latency_seconds(
            compiled.counters(stats), stats
        )
        normalized.append(
            {
                "workload": workload,
                "vertex": vertex.latency_s,
                "edge+atomics": edge.latency_s,
                "vertex+grouping": grouped,
            }
        )
    table = format_table(
        ["workload", "vertex-balanced (ms)", "edge-balanced (ms)",
         "vertex+grouping (ms)"],
        [
            [r["workload"], f"{r['vertex']*1e3:.3f}",
             f"{r['edge+atomics']*1e3:.3f}",
             f"{r['vertex+grouping']*1e3:.3f}"]
            for r in normalized
        ],
        title="mapping-ablation (GCN forward, RTX3090)",
    )
    return FigureResult([], table, normalized)


# ======================================================================
# Inline §1 statistics
# ======================================================================
def _inline_share(
    title: str, quantity: str, paper: str, share: float
) -> FigureResult:
    table = format_table(
        ["quantity", "paper", "measured"],
        [[quantity, paper, f"{share * 100:.1f}%"]],
        title=title,
    )
    return FigureResult([], table, [{"quantity": quantity, "share": share}])


def inline_redundant_computation() -> FigureResult:
    """Share of EdgeConv operator FLOPs that §4 identifies as redundant.

    Paper: 92.4 % of total operators in the EdgeConv (k=40) setting.
    Measured as (naive − reorganized) / naive forward FLOPs; the share
    is ``normalized[0]["share"]``.
    """
    stats = _modelnet_stats(64, 40)
    model = EdgeConv(3, (64, 64, 128, 256))
    naive, opt = _measure_grid(
        [(model, "modelnet", stats)],
        [("ours-noreorg", RTX3090), ("ours", RTX3090)],
        training=False,
    )
    return _inline_share(
        "inline-redundancy", "redundant FLOP share (EdgeConv k=40)", "92.4%",
        (naive.flops - opt.flops) / naive.flops,
    )


def inline_intermediate_memory_share() -> FigureResult:
    """Share of GAT training memory spent on stashed intermediates.

    Paper: 91.9 % of total memory in a GAT model.  Measured on the
    save-everything (DGL-like) configuration at the §7.3 GAT setting, as
    stashed bytes over everything resident when the forward pass hands
    over to backward (inputs + parameters + stash) — the residency that
    training memory is provisioned for; the share is
    ``normalized[0]["share"]``.
    """
    stats = _dataset_stats("reddit-full")
    model = _gat_ablation(training=True)
    counters = (
        Session().model(model).stats(stats, "gat-reddit")
        .strategy("dgl-like").counters()
    )
    return _inline_share(
        "inline-memory-share", "intermediate-data memory share (GAT)", "91.9%",
        counters.stash_bytes / counters.forward.end_resident_bytes,
    )


# ======================================================================
# The catalogue
# ======================================================================
#: Every table under ``benchmarks/results/``: file stem -> zero-argument
#: builder.  The CLI (the only writer of that directory), the per-figure
#: fixtures under ``benchmarks/`` and the golden test all read this.
FIGURES: Dict[str, Callable[[], FigureResult]] = {
    "fig7_gat": fig7_gat,
    "fig7_edgeconv": fig7_edgeconv,
    "fig7_monet": fig7_monet,
    "fig8_reorganization": fig8_reorganization,
    "fig9_fusion": fig9_fusion,
    "fig10_recomputation": fig10_recomputation,
    "fig11_small_gpu": fig11_small_gpu,
    "scaling_multi_gpu": fig_multi_gpu_scaling,
    "mapping_ablation": fig_mapping_ablation,
    "minibatch_io": fig_minibatch_io,
    "fig_memory_plan": fig_memory_plan,
    "fig_static_analysis": fig_static_analysis,
    "fig_precision_io": fig_precision_io,
    "fig_serving_latency": fig_serving_latency,
    "fig_dynamic_serving": fig_dynamic_serving,
    "backend_calibration_smoke": fig_backend_calibration,
    "inline_redundancy": inline_redundant_computation,
    "inline_memory_share": inline_intermediate_memory_share,
}

#: Entries whose cells are host wall-clock: regenerating them changes the
#: file, so the golden test pins their structure, never their bytes.
WALL_CLOCK = frozenset({"backend_calibration_smoke"})
