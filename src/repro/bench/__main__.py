"""Regenerate every paper-figure table: ``python -m repro.bench``.

Runs all Figure 7–11 experiments plus the §1 inline measurements at the
published workload scales, prints each table, and persists them under
``benchmarks/results/`` (the files EXPERIMENTS.md references).  A
registry-driven :func:`repro.run_sweep` over the model zoo is saved as
JSON alongside the tables so successive PRs can track the performance
trajectory.

Case flags (:data:`CASES`) select CI-sized subsets instead and combine:
every selected case runs, in the order listed here.
``python -m repro.bench --smoke`` runs one
small sweep, persisted to ``benchmarks/results/sweep_smoke.json``.
``--minibatch`` runs the sampled-training smoke case: a citation-scale
batch-size sweep (full-graph vs sampled epochs) persisted to
``benchmarks/results/sweep_minibatch_smoke.json``.  ``--memory`` runs
the arena-planning smoke case: the model-zoo memory-plan table plus its
invariants (arena below the ledger peak, reuse above one).  ``--serve``
runs the online-serving smoke case: a fixed-seed qps sweep persisted to
``benchmarks/results/sweep_serve_smoke.json`` plus the cache
reconciliation invariant.  ``--dynamic`` runs the dynamic-serving smoke
case: an update-fraction sweep persisted to
``benchmarks/results/sweep_dynamic_smoke.json`` plus the
hit + miss + invalidated reconciliation and the exact delta-apply
ledger recomputed from a same-seed regenerated update stream.
``--measured`` runs the measured-execution smoke case: the per-backend
kernel-class calibration table (measured wall-clock vs the analytic
roofline) plus its invariant — the ``blocked`` backend, which shares
the reference segment sum and chunks only ``max``, is no slower than
``reference`` on the gather class — and a small
``run_sweep(backend=...)`` exercising the backend axis end to end.
``--precision`` runs the mixed-precision smoke case: the model-zoo
precision-io table plus its exactness invariants (fp16/bf16 gather
bytes and analytic peak exactly half of fp32 on every model), a
concrete fp16-vs-fp32 differential execution within the documented
error bound, and a ``run_sweep(precision=...)`` exercising the
precision axis end to end.  ``--overlap`` runs the async-runtime smoke
case: the overlap-efficiency table plus its acceptance invariants
(overlapped makespan never above serialized, strictly below it on the
comm-bound narrow-link rows), a concrete overlapped MultiEngine
execution bit-identical to the serial oracle, and an overlapped serve
run persisted to ``benchmarks/results/sweep_overlap_smoke.json``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.figures import (
    fig7_edgeconv,
    fig7_gat,
    fig7_monet,
    fig8_reorganization,
    fig9_fusion,
    fig10_recomputation,
    fig11_small_gpu,
    fig_backend_calibration,
    fig_dynamic_serving,
    fig_memory_plan,
    fig_minibatch_io,
    fig_overlap_efficiency,
    fig_precision_io,
    fig_serving_latency,
    fig_static_analysis,
    inline_intermediate_memory_share,
    inline_redundant_computation,
)
from repro.bench.report import save_table
from repro.session import Session, run_sweep

FIGURES = (
    ("fig7_gat", fig7_gat),
    ("fig7_edgeconv", fig7_edgeconv),
    ("fig7_monet", fig7_monet),
    ("fig8_reorganization", fig8_reorganization),
    ("fig9_fusion", fig9_fusion),
    ("fig10_recomputation", fig10_recomputation),
    ("fig11_small_gpu", fig11_small_gpu),
    ("minibatch_io", fig_minibatch_io),
    ("fig_memory_plan", fig_memory_plan),
    ("fig_static_analysis", fig_static_analysis),
    ("fig_precision_io", fig_precision_io),
    ("fig_serving_latency", fig_serving_latency),
    ("fig_dynamic_serving", fig_dynamic_serving),
    ("fig_overlap_efficiency", fig_overlap_efficiency),
)

#: ``run_sweep`` keyword sets of the golden sweep JSONs, keyed by the
#: ``benchmarks/results/<name>.json`` each is saved as.  The commands
#: below and ``benchmarks/test_golden_regression.py`` both read this.
SWEEPS = {
    # CI-sized sanity sweep: small dims, citation-scale workloads.
    "sweep_smoke": dict(
        models=["gat", "gcn"],
        datasets=["cora", "pubmed"],
        strategies=["dgl-like", "ours"],
        feature_dim=32,
    ),
    "sweep_minibatch_smoke": dict(
        models=["sage"],
        datasets=["pubmed"],
        strategies=["ours"],
        batch_size=[None, 1024, 256],
        feature_dim=32,
    ),
    "sweep_memory_smoke": dict(
        models=["gat", "sage"],
        datasets=["cora"],
        strategies=["ours"],
        schedule=[None, "memory"],
        feature_dim=32,
    ),
    "sweep_serve_smoke": dict(
        models=["gat"],
        datasets=["pubmed"],
        strategies=["ours"],
        serve_qps=[500.0, 8000.0],
        serve_requests=96,
        serve_seeds=4,
        serve_cache_rows=4096,
        serve_zipf_alpha=0.9,
        feature_dim=32,
        training=False,
    ),
    "sweep_dynamic_smoke": dict(
        models=["gat"],
        datasets=["pubmed"],
        strategies=["ours"],
        serve_qps=[4000.0],
        update_frac=[0.0, 0.3],
        serve_requests=96,
        serve_seeds=4,
        serve_cache_rows=4096,
        serve_zipf_alpha=0.9,
        feature_dim=32,
        training=False,
    ),
    "sweep_backend_smoke": dict(
        models=["gat"],
        datasets=["cora"],
        strategies=["ours"],
        backend=[None, "blocked"],
        feature_dim=32,
    ),
    "sweep_precision_smoke": dict(
        models=["gat"],
        datasets=["cora"],
        strategies=["ours"],
        precision=[None, "fp16", "int8"],
        feature_dim=32,
    ),
    "sweep_main": dict(
        models=["gat", "gcn", "sage", "gin"],
        datasets=["cora", "pubmed", "reddit-full"],
        strategies=["dgl-like", "ours"],
        feature_dim=64,
    ),
}


def _golden_sweep(name: str):
    """Run one :data:`SWEEPS` entry, persist it, and print its table."""
    sweep = run_sweep(**SWEEPS[name], save_as=name)
    print(sweep.table())
    return sweep



def run_smoke() -> int:
    """CI-sized sanity sweep: small dims, citation-scale workloads."""
    t0 = time.time()  # repro: allow-wallclock
    sweep = _golden_sweep("sweep_smoke")
    print(f"smoke sweep done in {time.time() - t0:.1f}s "  # repro: allow-wallclock
          f"({sweep.cache_misses} compiles, {sweep.cache_hits} cache hits)")
    return 0


def run_minibatch_smoke() -> int:
    """CI-sized sampled-training case: full-graph vs mini-batch epochs.

    Sweeps GraphSAGE over batch sizes on a citation workload (exact
    sampled schedules through the concrete graph) and sanity-checks the
    qualitative shape — sampling must never *increase* the per-batch
    peak and must pay a positive feature-gather bill.
    """
    t0 = time.time()  # repro: allow-wallclock
    sweep = _golden_sweep("sweep_minibatch_smoke")
    full = sweep.by(batch_size=None)[0]
    sampled = [r for r in sweep.rows if r.batch_size is not None]
    assert sampled, "mini-batch sweep produced no sampled rows"
    assert all(r.gather_bytes > 0 for r in sampled)
    assert all(
        r.peak_memory_bytes <= full.peak_memory_bytes for r in sampled
    ), "sampled per-batch peak exceeded the full-graph footprint"
    print(
        f"minibatch smoke done in {time.time() - t0:.1f}s "  # repro: allow-wallclock
        f"({sweep.cache_misses} compiles, {sweep.cache_hits} cache hits)"
    )
    return 0


def run_memory_smoke() -> int:
    """CI-sized arena-planning case: model-zoo table + invariants.

    Regenerates the memory-plan figure and asserts the §6 contract the
    golden table pins: the packed arena never exceeds the analytic
    ledger peak — strictly below it on most models, since pinned
    inputs/parameters live outside the arena — and reordering never
    makes the ledger worse.
    """
    t0 = time.time()  # repro: allow-wallclock
    figure = fig_memory_plan()
    print(figure.table)
    strict = 0
    for row in figure.normalized:
        assert row["arena_bytes"] <= row["ledger_peak_bytes"], (
            f"{row['workload']}: arena exceeds the ledger peak"
        )
        assert row["sched_peak_bytes"] <= row["ledger_peak_bytes"], (
            f"{row['workload']}: scheduling worsened the ledger peak"
        )
        assert row["reuse_factor"] >= 1.0
        strict += row["arena_bytes"] < row["ledger_peak_bytes"]
    assert strict >= 6, f"arena beat the ledger on only {strict} models"
    _golden_sweep("sweep_memory_smoke")
    print(
        f"memory smoke done in {time.time() - t0:.1f}s "  # repro: allow-wallclock
        f"(arena strictly below the ledger peak on "
        f"{strict}/{len(figure.normalized)} models)"
    )
    return 0


def run_serve_smoke() -> int:
    """CI-sized online-serving case: a qps sweep with the cache on.

    Serves a fixed-seed Poisson stream (GAT on pubmed) at two offered
    loads through ``run_sweep(serve_qps=...)`` and sanity-checks the
    shape: positive tail latencies ordered p50 ≤ p95 ≤ p99, a cache
    that actually hits on the Zipf-skewed stream, and gather-byte
    accounting that reconciles exactly against the uncached bill.
    """
    t0 = time.time()  # repro: allow-wallclock
    sweep = _golden_sweep("sweep_serve_smoke")
    rows = sweep.rows
    assert rows and all(r.serve_qps is not None for r in rows)
    assert all(
        0 < r.p50_latency_s <= r.p95_latency_s <= r.p99_latency_s
        for r in rows
    ), "serving percentiles must be positive and ordered"
    assert all(0.0 < r.cache_hit_rate < 1.0 for r in rows), (
        "the Zipf stream must hit the bounded cache without saturating it"
    )
    rep = (
        Session()
        .model("gat").dataset("pubmed").strategy("ours")
        .feature_dim(32)
        .serve(
            num_requests=96, qps=8000.0, seeds_per_request=4,
            zipf_alpha=0.9, cache_rows=4096, execute=False,
        )
    )
    assert (
        rep.gather_hit_bytes + rep.gather_miss_bytes
        == rep.uncached_gather_bytes
    ), "cache hit/miss bytes must reconcile with the uncached gather bill"
    print(
        f"serve smoke done in {time.time() - t0:.1f}s "  # repro: allow-wallclock
        f"({sweep.cache_misses} compiles, {sweep.cache_hits} cache hits)"
    )
    return 0


def run_dynamic_smoke() -> int:
    """CI-sized dynamic-serving case: an update-fraction sweep.

    Serves mixed read/write streams (GAT on pubmed) through
    ``run_sweep(update_frac=...)`` and pins the exactness contracts:
    gather bytes reconcile as ``hit + miss + invalidated == uncached``,
    the delta-apply ledger equals 16 bytes per inserted edge recomputed
    from a same-seed regenerated update stream, and the dynamic rows
    actually observed updates (positive staleness).
    """
    t0 = time.time()  # repro: allow-wallclock
    sweep = _golden_sweep("sweep_dynamic_smoke")
    static = sweep.by(update_frac=0.0)
    dynamic = sweep.by(update_frac=0.3)
    assert static and dynamic, "sweep must emit both static and dynamic rows"
    assert all(r.staleness_s > 0 for r in dynamic), (
        "dynamic rows must observe a positive snapshot staleness"
    )
    assert all(r.staleness_s == 0.0 for r in static)
    rep = (
        Session()
        .model("gat").dataset("pubmed").strategy("ours")
        .feature_dim(32)
        .serve(
            num_requests=96, qps=4000.0, seeds_per_request=4,
            zipf_alpha=0.9, cache_rows=4096, execute=False,
            update_frac=0.3, compact_every=4,
        )
    )
    assert (
        rep.gather_hit_bytes + rep.gather_miss_bytes
        + rep.gather_invalidated_bytes
        == rep.uncached_gather_bytes
    ), "hit + miss + invalidated must reconcile with the uncached bill"
    # The delta ledger is exact: regenerate the same-seed update stream
    # and recompute the closed-form append bill.
    from repro.dyn import mixed_workload
    from repro.graph.datasets import get_dataset

    _, updates = mixed_workload(
        96,
        qps=4000.0,
        num_vertices=get_dataset("pubmed").graph().num_vertices,
        feature_dim=32,
        update_frac=0.3,
        seeds_per_request=4,
        slo_s=0.05,
        tenant="gat",
        zipf_alpha=0.9,
        seed=0,
    )
    expected = 16 * sum(u.num_edges for u in updates)
    assert rep.delta_apply_bytes == expected, (
        f"delta ledger {rep.delta_apply_bytes} != 16 B/edge bill {expected}"
    )
    print(
        f"dynamic smoke done in {time.time() - t0:.1f}s "  # repro: allow-wallclock
        f"({rep.num_updates} updates, graph v{rep.graph_version}, "
        f"{rep.compactions} compactions)"
    )
    return 0


def run_measured_smoke() -> int:
    """Measured-execution case: backend calibration + its invariant.

    Regenerates the backend-calibration figure at the segment-reduction
    scale (V=20k, E=400k, f=64 — edge data far beyond L2) and asserts
    the structural contract the golden test pins: every backend reports
    all five kernel classes with finite positive measured/analytic
    ratios.  ``blocked`` runs the reference segment sum (one CSR
    product) and chunks only ``max``, so on this GAT step — six sums,
    one E×1 max — it must land within noise (25%) of ``reference`` on
    the gather class, not ahead of it.  A small
    ``run_sweep(backend=...)`` then exercises the backend axis through
    the session layer.
    """
    t0 = time.time()  # repro: allow-wallclock
    figure = fig_backend_calibration()
    print(figure.table)
    path = save_table("backend_calibration_smoke", figure.table)
    by_backend: dict[str, dict[str, dict]] = {}
    for row in figure.normalized:
        assert row["measured_s"] > 0.0 and row["analytic_s"] > 0.0
        assert 0.0 < row["ratio"] < float("inf"), (
            f"{row['backend']}/{row['kernel_class']}: ratio must be finite"
        )
        by_backend.setdefault(row["backend"], {})[row["kernel_class"]] = row
    assert {"reference", "blocked"} <= set(by_backend), (
        "reference and blocked must both be registered"
    )
    ref_gather = by_backend["reference"]["gather"]["measured_s"]
    blk_gather = by_backend["blocked"]["gather"]["measured_s"]
    assert blk_gather <= 1.25 * ref_gather, (
        f"blocked gather ({blk_gather:.4f}s) must not trail reference "
        f"({ref_gather:.4f}s): they share every sum"
    )
    sweep = _golden_sweep("sweep_backend_smoke")
    assert {r.backend for r in sweep.rows} == {None, "blocked"}
    print(
        f"measured smoke done in {time.time() - t0:.1f}s "  # repro: allow-wallclock
        f"(blocked gather at {blk_gather / ref_gather:.2f}x of "
        f"reference; table -> {path})"
    )
    return 0


def run_precision_smoke() -> int:
    """Mixed-precision case: precision-io table + exactness invariants.

    Regenerates the precision-io figure and asserts the contracts the
    golden table pins — fp16/bf16 feature-gather bytes and analytic
    peak **exactly** half of fp32 on every registered model, int8
    gather strictly below fp16's — then executes one model concretely
    at fp16 against the fp32 oracle and checks the outputs stay within
    the documented error bound.  A small ``run_sweep(precision=...)``
    exercises the precision axis through the session layer.
    """
    import numpy as np

    from repro.exec.engine import Engine
    from repro.frameworks import compile_forward, get_strategy
    from repro.graph.generators import chung_lu
    from repro.ir.precision import precision_error_bound
    from repro.models import GAT

    t0 = time.time()  # repro: allow-wallclock
    figure = fig_precision_io()
    print(figure.table)
    path = save_table("fig_precision_io", figure.table)
    by_model: dict[str, dict[str, dict]] = {}
    for row in figure.normalized:
        by_model.setdefault(row["workload"], {})[row["precision"]] = row
    for name, rows in by_model.items():
        fp32 = rows["fp32"]
        for half in ("fp16", "bf16"):
            assert rows[half]["gather_bytes"] * 2 == fp32["gather_bytes"], (
                f"{name}: {half} gather bytes are not exactly half of fp32"
            )
            assert rows[half]["peak_bytes"] * 2 == fp32["peak_bytes"], (
                f"{name}: {half} analytic peak is not exactly half of fp32"
            )
        assert rows["int8"]["gather_bytes"] < rows["fp16"]["gather_bytes"], (
            f"{name}: int8 gather must undercut fp16"
        )

    # Concrete differential: fp16 outputs within the documented bound.
    graph = chung_lu(400, 3000, seed=0)
    model = GAT(16, (16,), heads=1)
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((graph.num_vertices, 16)).astype(np.float32)
    arrays = dict(model.make_inputs(graph, feats))
    arrays.update(model.init_params(0))

    def _outputs(precision: str) -> dict:
        from dataclasses import replace

        strat = replace(get_strategy("ours"), precision=precision)
        cf = compile_forward(model, strat)
        engine = Engine(graph, precision="float32")
        env = engine.bind(cf.forward, arrays)
        out = engine.run_plan(cf.plan, env, unwrap=True)
        return {k: out[k] for k in cf.forward.outputs}

    oracle = _outputs("fp32")
    half = _outputs("fp16")
    bound = precision_error_bound("fp16")
    for k, ref in oracle.items():
        denom = max(float(np.abs(ref).max()), 1e-12)
        rel = float(np.abs(half[k] - ref).max()) / denom
        assert rel <= bound, (
            f"fp16 output {k} drifted {rel:.2e} > bound {bound:g}"
        )

    sweep = _golden_sweep("sweep_precision_smoke")
    assert {r.precision for r in sweep.rows} == {None, "fp16", "int8"}
    fp32_row = sweep.by(precision=None)[0]
    fp16_row = sweep.by(precision="fp16")[0]
    assert fp16_row.peak_memory_bytes * 2 == fp32_row.peak_memory_bytes
    print(
        f"precision smoke done in {time.time() - t0:.1f}s "  # repro: allow-wallclock
        f"(fp16 halves gather IO and peak on "
        f"{len(by_model)} models; table -> {path})"
    )
    return 0


def run_overlap_smoke() -> int:
    """Async-runtime case: overlap-efficiency table + pipelining wins.

    Regenerates the overlap-efficiency figure and asserts the
    acceptance contract of the pipelined runtime — the overlapped
    makespan never exceeds the serialized one on any row, and strictly
    beats it on at least one comm-bound narrow-link configuration —
    then executes one model concretely through the overlapped
    ``MultiEngine`` (both ``events`` and ``threads`` modes) and checks
    the outputs stay **bit-identical** to the serial oracle.  An
    overlapped serve run exercises the channelled request placement and
    the whole case is persisted to ``sweep_overlap_smoke.json``.
    """
    import json
    import os

    import numpy as np

    from repro.bench.report import RESULTS_DIR
    from repro.exec.multi import MultiEngine
    from repro.frameworks import compile_forward, get_strategy
    from repro.graph.generators import chung_lu
    from repro.models import GAT
    from repro.session import PlanCache

    t0 = time.time()  # repro: allow-wallclock
    figure = fig_overlap_efficiency()
    print(figure.table)
    path = save_table("fig_overlap_efficiency", figure.table)
    for row in figure.normalized:
        assert row["overlapped_s"] <= row["serialized_s"] + 1e-12, (
            f"{row['workload']} x{row['gpus']} {row['phase']}: overlapped "
            f"makespan exceeds serialized"
        )
    narrow = [
        r for r in figure.normalized if r["interconnect_gbps"] is not None
    ]
    assert narrow and any(r["overlap_efficiency"] > 1.0 for r in narrow), (
        "no comm-bound row shows a strict pipelining win"
    )

    # Concrete differential: overlapped execution is bit-identical to
    # the serial plan-order oracle.
    graph = chung_lu(60, 300, seed=1)
    model = GAT(8, (8,), heads=1)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(graph.num_vertices, 8))
    arrays = dict(model.init_params(0))
    cf = compile_forward(model, get_strategy("ours"))

    def _outputs(overlap: str | None) -> dict:
        multi = MultiEngine(
            graph, 4, partitioner="hash", precision="float64",
            overlap=overlap,
        )
        env = dict(model.make_inputs(multi.graph, feats))
        env.update(arrays)
        bound = multi.bind(cf.forward, env)
        out = multi.run_plan(cf.plan, bound, unwrap=True)
        return {k: out[k] for k in cf.forward.outputs}

    oracle = _outputs(None)
    for mode in ("events", "threads"):
        got = _outputs(mode)
        for k, ref in oracle.items():
            assert np.array_equal(ref, got[k]), (
                f"overlap={mode}: output {k} diverged from serial oracle"
            )

    # Overlapped serving: same outputs, never a longer makespan.
    cache = PlanCache()

    def _serve(overlap: str | None):
        sess = Session(cache=cache).model("gat").dataset("cora").gpu("V100")
        if overlap is not None:
            sess = sess.overlap(overlap)
        return sess.serve(
            num_requests=64, qps=50000.0, seeds_per_request=2,
            cache_rows=64, seed=5,
        )

    serial = _serve(None)
    overlapped = _serve("events")
    assert overlapped.serialized_makespan_s == serial.makespan_s
    assert overlapped.makespan_s <= overlapped.serialized_makespan_s + 1e-12
    for rid in serial.outputs:
        assert np.array_equal(serial.outputs[rid], overlapped.outputs[rid])

    payload = {
        "rows": figure.normalized,
        "serve": {
            "overlap": overlapped.overlap,
            "serialized_makespan_s": overlapped.serialized_makespan_s,
            "overlapped_makespan_s": overlapped.makespan_s,
            "overlap_efficiency": overlapped.overlap_efficiency,
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    json_path = os.path.join(RESULTS_DIR, "sweep_overlap_smoke.json")
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    best = max(r["overlap_efficiency"] for r in figure.normalized)
    print(
        f"overlap smoke done in {time.time() - t0:.1f}s "  # repro: allow-wallclock
        f"(best pipelining win {best:.4f}x; bit-identical in both modes; "
        f"table -> {path}; sweep -> {json_path})"
    )
    return 0


def run_full() -> int:
    start = time.time()  # repro: allow-wallclock
    for name, fn in FIGURES:
        t0 = time.time()  # repro: allow-wallclock
        figure = fn()
        path = save_table(name, figure.table)
        print(figure.table)
        print(f"  -> {path}  [{time.time() - t0:.1f}s]\n")  # repro: allow-wallclock

    share, table = inline_redundant_computation()
    print(table)
    print(f"  -> {save_table('inline_redundancy', table)}\n")
    share, table = inline_intermediate_memory_share()
    print(table)
    print(f"  -> {save_table('inline_memory_share', table)}\n")

    _golden_sweep("sweep_main")
    print("  -> sweep_main.json\n")

    print(f"all figures regenerated in {time.time() - start:.1f}s")  # repro: allow-wallclock
    return 0


#: Command-line cases in run order: flag -> (runner, help text).  With no
#: flag the full figure regeneration runs.
CASES = {
    "smoke": (
        run_smoke,
        "run a quick CI-sized sweep instead of all paper figures",
    ),
    "minibatch": (
        run_minibatch_smoke,
        "run the CI-sized sampled mini-batch training smoke case",
    ),
    "memory": (
        run_memory_smoke,
        "run the CI-sized arena memory-planning smoke case",
    ),
    "serve": (
        run_serve_smoke,
        "run the CI-sized online inference-serving smoke case",
    ),
    "dynamic": (
        run_dynamic_smoke,
        "run the CI-sized dynamic-serving (graph/feature update) "
        "smoke case",
    ),
    "measured": (
        run_measured_smoke,
        "run the measured-execution smoke case: per-backend "
        "kernel-class calibration vs the analytic roofline",
    ),
    "precision": (
        run_precision_smoke,
        "run the mixed-precision smoke case: precision-io table, "
        "exact fp16 halving invariants, and a differential execution",
    ),
    "overlap": (
        run_overlap_smoke,
        "run the async-runtime smoke case: overlap-efficiency "
        "table, pipelining-win invariants, and a bit-identity "
        "differential execution",
    ),
}


def main(argv: list[str] | None = None) -> int:
    """Run every selected case in :data:`CASES` order (all figures when
    none is selected); the exit status is the first non-zero one."""
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    for flag, (_, help_text) in CASES.items():
        parser.add_argument(f"--{flag}", action="store_true", help=help_text)
    args = parser.parse_args(argv)
    selected = [
        runner for flag, (runner, _) in CASES.items() if getattr(args, flag)
    ]
    statuses = [runner() for runner in selected or [run_full]]
    return next((status for status in statuses if status), 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
