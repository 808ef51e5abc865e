"""In-memory span/counter tracer and the outside-in wrappers around repro.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
the public entry points listed in :data:`WRAP_TARGETS` with timing
wrappers — every ``repro.*`` module attribute that *is* the original
function is rebound, because consumers bind names with ``from … import``
— and :func:`uninstall` puts the originals back, so one process can time
the same workload traced and untraced.

A span is ``[name, start, end, parent, iteration]``; counters are summed
at the same boundaries.  Spans live in memory and are written once, as
Chrome trace-event JSON, when the benchmark ends.  A wrap target that no
longer exists is skipped with a warning and its metrics read ``None``:
later changes may rename internals but may not edit ``perf/``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

SETUP = -1   # iteration id of spans recorded before the first timed iteration
EXTRA = -2   # … and of spans recorded after the last one (oracles, extras)

KERNEL_CLASSES = ("gather", "scatter", "apply", "param_grad", "dense")
PASS_NAMES = ("reorganize", "cse", "autodiff", "recompute", "fusion")


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.iteration = SETUP
        self.enabled = True
        #: counters[in_iteration][name] — summed; setup and timed
        #: iterations are kept apart so a one-off cost never reads as a
        #: per-iteration one.
        self.counters = {False: defaultdict(float), True: defaultdict(float)}
        #: Direct values (maxima, ratios, model outputs) set by hooks.
        self.values: Dict[str, float] = {}
        #: Wrap targets that could not be resolved, by span name.
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def begin(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None,
                 stack[-1] if stack else -1, self.iteration]
            )
        stack.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack().pop()
        return span[2] - span[1]

    def count(self, name: str, value: float = 1.0) -> None:
        if self.iteration != EXTRA:
            self.counters[self.iteration >= 0][name] += value

    def maximum(self, name: str, value: float) -> None:
        if self.iteration != EXTRA and value > self.values.get(name, float("-inf")):
            self.values[name] = value

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- reading -------------------------------------------------------
    def totals(self) -> Dict[Tuple[str, bool], Dict[str, float]]:
        """Per (span name, in timed iteration): calls, seconds, self seconds."""
        child_seconds = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if end is not None and parent >= 0:
                child_seconds[parent] += end - start
        out: Dict[Tuple[str, bool], Dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _, iteration) in enumerate(self.spans):
            if end is None or iteration == EXTRA:
                continue
            row = out[(name, iteration >= 0)]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_seconds[index]
        return out

    def write_chrome_trace(self, path: str, *, max_iterations: int = 20) -> None:
        """Complete ("X") events, microseconds; opens in Perfetto."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": index, "parent": parent, "iteration": iteration},
            }
            for index, (name, start, end, parent, iteration)
            in enumerate(self.spans)
            if end is not None and iteration < max_iterations
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# ----------------------------------------------------------------------
# Hooks: counters read where the work happens
# ----------------------------------------------------------------------
def _engine_run_plan(tracer: Tracer, fn: Callable) -> Callable:
    """``Engine.run_plan`` with per-kernel-class busy time.

    ``kernel_timings`` is the engine's own measured-execution hook:
    set to a list around the call, it receives one wall-clock sample
    per kernel, which ``exec.measure.kernel_class`` sorts into the five
    classes the cost model prices.
    """
    from repro.exec.measure import kernel_class

    @functools.wraps(fn)
    def wrapper(self, plan, env, **kwargs):
        if not tracer.enabled:
            return fn(self, plan, env, **kwargs)
        own = self.kernel_timings is None
        if own:
            self.kernel_timings = []
        mark = len(self.kernel_timings)
        index = tracer.begin("exec.run_plan")
        try:
            return fn(self, plan, env, **kwargs)
        finally:
            tracer.end(index)
            samples = self.kernel_timings[mark:]
            if own:
                self.kernel_timings = None
            for kernel_index, seconds in samples:
                cls = kernel_class(plan.kernels[kernel_index])
                tracer.count(f"exec.{cls}.busy_s", seconds)
                tracer.count("exec.kernel_s", seconds)
            tracer.count("exec.kernels", len(samples))
            tracer.maximum("exec.measured_peak_bytes", self.measured_peak_bytes)

    return wrapper


def _after_multi_run_plan(tracer: Tracer, args, kwargs, result) -> None:
    engine = args[0]
    tracer.count("exec.multi.comm_bytes", engine.comm_bytes)
    tracer.count("exec.multi.exchanges", len(engine.exchanges))


def _after_compile(tracer: Tracer, args, kwargs, result) -> None:
    for record in result.pass_records:
        if record.name in PASS_NAMES:
            tracer.count(f"opt.{record.name}_s", record.seconds)
    if result.pass_records:
        tracer.count("opt.ir_nodes_after", result.pass_records[-1].nodes_after)
    plans = [
        getattr(result, attr)
        for attr in ("plan", "fwd_plan", "bwd_plan")
        if hasattr(result, attr)
    ]
    tracer.count("opt.kernels", sum(len(p.kernels) for p in plans))


def _plan_cache_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not tracer.enabled:
            return fn(self, *args, **kwargs)
        hits, misses = self.hits, self.misses
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.count("frameworks.plan_cache_hits", self.hits - hits)
            tracer.count("frameworks.plan_cache_misses", self.misses - misses)

    return wrapper


def _before_eventloop_run(tracer: Tracer, args, kwargs) -> None:
    tasks = args[1] if len(args) > 1 else kwargs["tasks"]
    tracer.count("runtime.eventloop_tasks", len(tasks))


def _after_sweep(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("session.sweep_rows", len(result.rows))


def _after_server_serve(tracer: Tracer, args, kwargs, report) -> None:
    """The report's fields are exact, so they double as a determinism check."""
    tracer.count("serve.batches", report.num_batches)
    tracer.count("serve.requests", report.num_requests)
    tracer.count("dyn.invalidated_bytes", report.gather_invalidated_bytes)
    tracer.values["serve.cache_hit_rate"] = report.cache_hit_rate
    tracer.values["serve.virtual_rps"] = report.throughput_rps
    tracer.values["serve.virtual_p99_ms"] = report.p99_latency_s * 1e3
    tracer.values["serve.slo_violation_frac"] = report.slo_violation_rate
    tracer.values["serve.virtual_makespan_s"] = report.makespan_s


# ----------------------------------------------------------------------
# Wrap targets: span name -> ("module:qualname", hooks)
# ----------------------------------------------------------------------
#: ``custom`` builds the whole wrapper; ``before``/``after`` run inside
#: the span of the generic one.  ``subclasses`` also wraps every
#: override of an abstract method.
WRAP_TARGETS: List[Tuple[str, str, Dict[str, Any]]] = [
    ("exec.run_plan", "repro.exec.engine:Engine.run_plan", {"custom": _engine_run_plan}),
    ("exec.bind", "repro.exec.engine:Engine.bind", {}),
    ("exec.multi.run_plan", "repro.exec.multi:MultiEngine.run_plan", {"after": _after_multi_run_plan}),
    ("exec.analytic", "repro.exec.analytic:analyze_plan", {}),
    ("exec.analytic", "repro.exec.analytic:analyze_training", {}),
    ("exec.analytic", "repro.exec.analytic:analyze_minibatch", {}),
    ("exec.analytic", "repro.exec.analytic:analyze_plan_multi", {}),
    ("exec.analytic", "repro.exec.analytic:analyze_training_multi", {}),
    ("exec.plan_memory", "repro.exec.memory:plan_memory", {}),
    ("gpu.cost_model", "repro.gpu.cost_model:CostModel.latency_seconds", {}),
    ("gpu.cost_model", "repro.gpu.cluster:ClusterCostModel.breakdown", {}),
    ("frameworks.compile", "repro.frameworks.strategy:compile_training", {"after": _after_compile}),
    ("frameworks.compile", "repro.frameworks.strategy:compile_forward", {"after": _after_compile}),
    ("frameworks.plan_cache", "repro.session:PlanCache.get_or_compile", {"custom": _plan_cache_wrapper}),
    ("models.build_module", "repro.models.base:GNNModel.build_module", {"subclasses": True}),
    ("models.make_inputs", "repro.models.base:GNNModel.make_inputs", {"subclasses": True}),
    ("ir.validate", "repro.ir.validate:validate_module", {}),
    ("graph.dataset_build", "repro.graph.datasets:get_dataset", {}),
    ("graph.features", "repro.graph.datasets:Dataset.features", {}),
    ("graph.khop", "repro.graph.sampling:khop_neighborhood", {}),
    ("graph.induce", "repro.graph.sampling:induced_subgraph", {}),
    ("graph.partition", "repro.graph.partition:partition_graph", {}),
    ("graph.partition", "repro.graph.partition:PartitionStats.from_stats", {}),
    ("train.forward", "repro.train.loop:Trainer.forward", {}),
    ("train.backward", "repro.train.loop:Trainer.backward", {}),
    ("train.loss", "repro.train.loop:softmax_cross_entropy", {}),
    ("train.optim", "repro.train.optim:Adam.step", {}),
    ("train.trainer_init", "repro.train.loop:Trainer.__init__", {}),
    ("train.plan_minibatches", "repro.graph.sampling:plan_minibatches", {}),
    ("serve.coalesce", "repro.serve.batcher:coalesce", {}),
    ("serve.receptive_field", "repro.serve.batcher:receptive_field", {}),
    ("serve.cache_gather", "repro.serve.cache:FeatureCache.gather", {}),
    ("serve.place_batches", "repro.serve.scheduler:place_batches", {}),
    ("serve.place_batches", "repro.serve.scheduler:place_batches_overlapped", {}),
    ("serve.workload_gen", "repro.serve.request:poisson_workload", {}),
    ("serve.workload_gen", "repro.dyn.workload:mixed_workload", {}),
    ("serve.serve", "repro.serve.server:InferenceServer.serve", {"after": _after_server_serve}),
    ("dyn.apply", "repro.dyn.delta:DynamicGraph.apply", {}),
    ("dyn.compact", "repro.dyn.delta:DynamicGraph.compact", {}),
    ("dyn.receptive_field", "repro.dyn.delta:DynamicGraph.receptive_field", {}),
    ("dyn.store_put", "repro.dyn.featurestore:FeatureStore.put", {}),
    ("runtime.eventloop_run", "repro.runtime.events:EventLoop.run", {"before": _before_eventloop_run}),
    ("session.serve", "repro.session:Session.serve", {}),
    ("session.sweep", "repro.session:run_sweep", {"after": _after_sweep}),
]


def _generic_wrapper(
    tracer: Tracer,
    name: str,
    fn: Callable,
    before: Optional[Callable],
    after: Optional[Callable],
) -> Callable:
    if inspect.isgeneratorfunction(fn):
        # A generator does its work on resumption, not on the call:
        # one span per step, so the consumer's loop body stays outside.
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            if not tracer.enabled:
                yield from fn(*args, **kwargs)
                return
            iterator = fn(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(tracer, args, kwargs)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name, value)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # vars(), not getattr: a classmethod must be rewrapped as one.
    return owner, attr, vars(owner)[attr]


def _all_subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


def install(tracer: Tracer) -> List[Tuple[Any, str, Any]]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    undo: List[Tuple[Any, str, Any]] = []

    def rebind(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    for name, target, hooks in WRAP_TARGETS:
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError, KeyError) as exc:
            print(f"perf: wrap target {target} is gone ({exc!r}); "
                  f"{name} metrics read null", file=sys.stderr)
            tracer.missing.append(name)
            continue

        def make(fn: Callable) -> Callable:
            if "custom" in hooks:
                return hooks["custom"](tracer, fn)
            return _generic_wrapper(
                tracer, name, fn, hooks.get("before"), hooks.get("after")
            )

        if inspect.isclass(owner):
            owners = [owner]
            if hooks.get("subclasses"):
                owners += [c for c in _all_subclasses(owner) if attr in vars(c)]
            for cls in owners:
                raw = vars(cls)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    rebind(cls, attr, type(raw)(make(raw.__func__)))
                else:
                    rebind(cls, attr, make(raw))
        else:
            wrapped = make(original)
            for module_name, module in list(sys.modules.items()):
                if module is None or not (
                    module_name == "repro" or module_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        rebind(module, key, wrapped)
    return undo


def uninstall(undo: List[Tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
