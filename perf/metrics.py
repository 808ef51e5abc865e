"""Metric tables: names, units, directions, and how each is read off a trace.

``BENCHMARK.json`` lists the same names; ``test_perf_smoke.py`` checks
the two stay in step.

Per-layer rows are ``(name, unit, better, kind, key)``:

=========  ===========================================================
kind       value
=========  ===========================================================
``s``      inclusive seconds of span ``key``
``self_s`` span seconds minus the part its child spans cover
``calls``  number of ``key`` spans
``count``  tracer counter ``key``
``value``  ``tracer.values[key]`` (maxima, ratios, model outputs)
``setup``  inclusive seconds of span ``key`` before the first iteration
=========  ===========================================================

All but ``value`` and ``setup`` follow one scope rule: a layer that ran
inside the timed iterations reports its mean per iteration; a layer
that ran only during set-up (compile on the training workloads, say)
reports that one-off total.  ``exact`` rows repeat exactly for one seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from perf.trace import KERNEL_CLASSES, PASS_NAMES, Tracer

#: (name, unit, better); ``failed_frac`` is reported beside these but is
#: not a bounded metric (it is 0 on a healthy run; its bound is 0).
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("iter_p50_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

_L = "lower"
_H = "higher"

PER_LAYER: List[Tuple[str, str, str, str, str]] = (
    [
        (f"exec.{cls}.busy_s", "s", _L, "count", f"exec.{cls}.busy_s")
        for cls in KERNEL_CLASSES
    ]
    + [
        ("exec.kernels_per_iter", "count", _L, "count", "exec.kernels"),
        ("exec.run_plan_s", "s", _L, "s", "exec.run_plan"),
        ("exec.run_plan_calls", "count", _L, "calls", "exec.run_plan"),
        ("exec.bind_s", "s", _L, "s", "exec.bind"),
        ("exec.interp_self_s", "s", _L, "derived", ""),
        ("exec.measured_peak_bytes", "B", _L, "value", "exec.measured_peak_bytes"),
        ("exec.multi.run_plan_s", "s", _L, "s", "exec.multi.run_plan"),
        ("exec.multi.over_single_ratio", "ratio", _L, "value", "exec.multi.over_single_ratio"),
        ("exec.multi.threads_over_serial_ratio", "ratio", _L, "value", "exec.multi.threads_over_serial_ratio"),
        ("exec.multi.comm_bytes", "B", _L, "count", "exec.multi.comm_bytes"),
        ("exec.multi.exchanges", "count", _L, "count", "exec.multi.exchanges"),
        ("exec.analytic_s", "s", _L, "s", "exec.analytic"),
        ("exec.analytic_calls", "count", _L, "calls", "exec.analytic"),
        ("exec.plan_memory_s", "s", _L, "s", "exec.plan_memory"),
        ("gpu.cost_model_s", "s", _L, "s", "gpu.cost_model"),
        ("gpu.model_iter_s", "s", _L, "value", "gpu.model_iter_s"),
    ]
    + [
        (f"gpu.{cls}.measured_over_model", "ratio", _L, "value",
         f"gpu.{cls}.measured_over_model")
        for cls in KERNEL_CLASSES
    ]
    + [
        (f"opt.{name}_s", "s", _L, "count", f"opt.{name}_s")
        for name in PASS_NAMES
    ]
    + [
        ("opt.ir_nodes_after", "count", _L, "count", "opt.ir_nodes_after"),
        ("opt.kernels", "count", _L, "count", "opt.kernels"),
        ("frameworks.compile_s", "s", _L, "s", "frameworks.compile"),
        ("frameworks.compile_calls", "count", _L, "calls", "frameworks.compile"),
        ("frameworks.plan_cache_hit_rate", "ratio", _H, "derived", ""),
        ("frameworks.ours_over_dgl_iter_ratio", "ratio", _L, "value", "frameworks.ours_over_dgl_iter_ratio"),
        ("models.build_module_s", "s", _L, "s", "models.build_module"),
        ("models.build_module_calls", "count", _L, "calls", "models.build_module"),
        ("models.make_inputs_s", "s", _L, "s", "models.make_inputs"),
        ("ir.validate_s", "s", _L, "s", "ir.validate"),
        ("ir.validate_calls", "count", _L, "calls", "ir.validate"),
        ("graph.dataset_build_s", "s", _L, "setup", "graph.dataset_build"),
        ("graph.features_s", "s", _L, "s", "graph.features"),
        ("graph.khop_s", "s", _L, "s", "graph.khop"),
        ("graph.induce_s", "s", _L, "s", "graph.induce"),
        ("graph.sample_calls", "count", _L, "calls", "graph.khop"),
        ("graph.partition_s", "s", _L, "s", "graph.partition"),
        ("graph.partition_calls", "count", _L, "calls", "graph.partition"),
        ("train.forward_s", "s", _L, "s", "train.forward"),
        ("train.backward_s", "s", _L, "s", "train.backward"),
        ("train.loss_s", "s", _L, "s", "train.loss"),
        ("train.optim_s", "s", _L, "s", "train.optim"),
        ("train.trainer_init_s", "s", _L, "s", "train.trainer_init"),
        ("train.plan_minibatches_s", "s", _L, "s", "train.plan_minibatches"),
        ("serve.coalesce_s", "s", _L, "s", "serve.coalesce"),
        ("serve.receptive_field_s", "s", _L, "s", "serve.receptive_field"),
        ("serve.cache_gather_s", "s", _L, "s", "serve.cache_gather"),
        ("serve.place_batches_s", "s", _L, "s", "serve.place_batches"),
        ("serve.workload_gen_s", "s", _L, "s", "serve.workload_gen"),
        ("serve.self_s", "s", _L, "self_s", "serve.serve"),
        ("serve.batches", "count", _L, "count", "serve.batches"),
        ("serve.mean_batch_size", "count", _H, "derived", ""),
        ("serve.cache_hit_rate", "ratio", _H, "value", "serve.cache_hit_rate"),
        ("serve.real_rps", "1/s", _H, "derived", ""),
        ("serve.virtual_rps", "1/s", _H, "value", "serve.virtual_rps"),
        ("serve.real_over_virtual", "ratio", _H, "derived", ""),
        ("serve.virtual_p99_ms", "ms", _L, "value", "serve.virtual_p99_ms"),
        ("serve.slo_violation_frac", "ratio", _L, "value", "serve.slo_violation_frac"),
        ("dyn.apply_s", "s", _L, "s", "dyn.apply"),
        ("dyn.apply_calls", "count", _L, "calls", "dyn.apply"),
        ("dyn.compact_s", "s", _L, "s", "dyn.compact"),
        ("dyn.compact_calls", "count", _L, "calls", "dyn.compact"),
        ("dyn.store_put_s", "s", _L, "s", "dyn.store_put"),
        ("dyn.receptive_field_s", "s", _L, "s", "dyn.receptive_field"),
        ("dyn.invalidated_bytes", "B", _L, "count", "dyn.invalidated_bytes"),
        ("runtime.eventloop_run_s", "s", _L, "s", "runtime.eventloop_run"),
        ("runtime.eventloop_tasks", "count", _L, "count", "runtime.eventloop_tasks"),
        ("runtime.tasks_per_s", "1/s", _H, "derived", ""),
        ("session.serve_self_s", "s", _L, "self_s", "session.serve"),
        ("session.sweep_self_s", "s", _L, "self_s", "session.sweep"),
        ("session.sweep_rows", "count", _H, "count", "session.sweep_rows"),
        ("session.rows_per_s", "1/s", _H, "derived", ""),
        ("harness.iter_p50_raw_s", "s", _L, "harness", ""),
        ("harness.iter_p90_raw_s", "s", _L, "harness", ""),
        ("harness.machine_speed", "ratio", _L, "harness", ""),
        ("harness.cpu_s_per_iter", "s", _L, "harness", ""),
        ("harness.minor_faults_per_iter", "count", _L, "harness", ""),
        ("harness.trace_overhead_frac", "ratio", _L, "harness", ""),
        ("harness.untraced_share", "ratio", _L, "derived", ""),
    ]
)

#: Counts that repeat exactly for one seed on one commit; ``compare.py
#: --same-code`` requires them equal.
EXACT = (
    "exec.kernels_per_iter",
    "exec.run_plan_calls",
    "exec.multi.comm_bytes",
    "exec.multi.exchanges",
    "opt.ir_nodes_after",
    "opt.kernels",
    "serve.batches",
    "serve.cache_hit_rate",
    "serve.virtual_rps",
    "serve.virtual_p99_ms",
    "serve.slo_violation_frac",
    "dyn.apply_calls",
    "dyn.compact_calls",
    "dyn.invalidated_bytes",
    "runtime.eventloop_tasks",
    "session.sweep_rows",
    "gpu.model_iter_s",
)


#: Counters and values are written by one wrapper's hook; when that
#: wrap target is gone they read ``None``, not a misleading 0.
#: First matching prefix wins.
_HOOK_OF = (
    ("opt.", "frameworks.compile"),
    ("frameworks.plan_cache", "frameworks.plan_cache"),
    ("exec.multi.comm_bytes", "exec.multi.run_plan"),
    ("exec.multi.exchanges", "exec.multi.run_plan"),
    ("exec.multi.", None),
    ("exec.", "exec.run_plan"),
    ("serve.", "serve.serve"),
    ("dyn.invalidated_bytes", "serve.serve"),
    ("runtime.", "runtime.eventloop_run"),
    ("session.", "session.sweep"),
)


def _ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, iterations: int, harness: Dict[str, Optional[float]]
) -> Dict[str, Optional[float]]:
    """Every per-layer metric by name; ``None`` where its wrap target is gone.

    ``harness`` carries the ``harness.*`` values, measured on the
    untraced half (real rates are taken against its raw wall-clock median).
    """
    totals = tracer.totals()
    n = max(iterations, 1)

    def hook_gone(key: str) -> bool:
        hook = next((h for prefix, h in _HOOK_OF if key.startswith(prefix)), None)
        return hook in tracer.missing

    def scoped(timed: Optional[float], setup: Optional[float]) -> float:
        """Mean per iteration if the layer ran in the timed iterations,
        else its one-off total during set-up."""
        return timed / n if timed is not None else (setup or 0.0)

    def span(key: str, field: str) -> Optional[float]:
        if key in tracer.missing:
            return None
        timed, setup = totals.get((key, True)), totals.get((key, False))
        return scoped(timed and timed[field], setup and setup[field])

    def counter(key: str) -> Optional[float]:
        if hook_gone(key):
            return None
        return scoped(tracer.counters[True].get(key), tracer.counters[False].get(key))

    out: Dict[str, Optional[float]] = {}
    for name, _unit, _better, kind, key in PER_LAYER:
        if kind in ("s", "self_s", "calls"):
            out[name] = span(key, kind)
        elif kind == "setup":
            setup = totals.get((key, False))
            out[name] = (
                None if key in tracer.missing else setup["s"] if setup else 0.0
            )
        elif kind == "count":
            out[name] = counter(key)
        elif kind == "value":
            out[name] = None if hook_gone(key) else tracer.values.get(key, 0.0)
        elif kind == "harness":
            out[name] = harness.get(name)

    # Iteration wall time under no layer span.
    out["harness.untraced_share"] = _ratio(
        span("harness.iteration", "self_s"), span("harness.iteration", "s")
    )
    kernel = counter("exec.kernel_s")
    out["exec.interp_self_s"] = (
        None if kernel is None else out["exec.run_plan_s"] - kernel
    )
    hits, misses = (counter(f"frameworks.plan_cache_{k}") for k in ("hits", "misses"))
    out["frameworks.plan_cache_hit_rate"] = (
        None if hits is None else _ratio(hits, hits + misses)
    )
    requests = counter("serve.requests")
    real_iter_s = harness.get("harness.iter_p50_raw_s")
    out["serve.mean_batch_size"] = _ratio(requests, out["serve.batches"])
    out["serve.real_rps"] = _ratio(requests, real_iter_s)
    out["serve.real_over_virtual"] = _ratio(
        out["serve.real_rps"], out["serve.virtual_rps"]
    )
    out["runtime.tasks_per_s"] = _ratio(
        out["runtime.eventloop_tasks"], out["runtime.eventloop_run_s"]
    )
    out["session.rows_per_s"] = _ratio(out["session.sweep_rows"], real_iter_s)
    return out
