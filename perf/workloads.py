"""The seven workloads.  Names are normative (README.md has the reasons).

Each workload builds its inputs from ``seed`` — parameter init,
features, request/update streams, the batch sampler — and hands the
program only those inputs; dataset topologies are the registry's.  Everything here that runs inside the timed loop uses
only names in ``repro.__all__``, so an internal rename cannot break the
end-to-end numbers.  ``traced_extras`` may reach deeper; it runs in the
traced pass only and a missing internal costs a metric, not the run.

All workloads use strategy ``ours``, float32, backend ``reference``.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from perf import oracles
from perf.trace import KERNEL_CLASSES, Tracer

Check = Tuple[str, bool, str]   # (oracle name, passed, detail)


def _interleaved_ratio(
    numerator: Callable[[], object], denominator: Callable[[], object],
    repeats: int,
) -> float:
    """median(numerator) / median(denominator), alternating the two so
    a slow phase of the machine lands on both."""
    num, den = [], []
    numerator(), denominator()
    for _ in range(repeats):
        for fn, sink in ((numerator, num), (denominator, den)):
            start = time.perf_counter()
            fn()
            sink.append(time.perf_counter() - start)
    return statistics.median(num) / statistics.median(den)


class Workload:
    """One set of inputs the benchmark runs."""

    name = ""
    why = ""
    #: What one iteration completes, for the human-readable rate.
    rate_unit = "iter/s"

    def __init__(self, seed: int, *, quick: bool = False, corrupt: bool = False):
        self.seed = seed
        self.quick = quick
        #: Deliberately perturb one oracle input (smoke test only): the
        #: check must then fail, which shows it can.
        self.corrupt = corrupt

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self) -> None:
        raise NotImplementedError

    def work_per_iteration(self) -> float:
        return 1.0

    def checks(self) -> List[Check]:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Must be equal across runs of one seed (compared between reps)."""
        raise NotImplementedError

    def traced_extras(self, tracer: Tracer) -> None:
        """Extra timed steps of the traced pass (ratios, model outputs)."""


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
def _rel_close(got: List[float], want: List[float], rtol: float) -> Tuple[bool, str]:
    n = min(len(got), len(want))
    ok = n > 0 and all(
        abs(g - w) <= rtol * max(abs(w), 1e-12) for g, w in zip(got[:n], want[:n])
    )
    return ok, f"got {got[:n]} want {want[:n]}"


class _Training(Workload):
    model = dataset = ""
    feature_dim = 64
    rate_unit = "steps/s"

    def _session(self, strategy: str = "ours"):
        return (
            repro.session().model(self.model).dataset(self.dataset)
            .strategy(strategy).feature_dim(self.feature_dim).gpu("V100")
        )

    def _load(self) -> None:
        ds = repro.get_dataset(self.dataset)
        self.graph = ds.graph()
        self.features = ds.features(dim=self.feature_dim, seed=self.seed)
        self.labels = ds.labels()
        self.session = self._session()
        self.compiled = self.session.compile()
        self.losses: List[float] = []

    def _make_trainer(self, compiled, precision: str):
        return repro.Trainer(
            compiled, self.graph, precision=precision, seed=self.seed
        )

    def _train(self, trainer, features, optimizer) -> float:
        """One iteration's worth of training; returns its loss."""
        return trainer.train_step(features, self.labels, optimizer)[0]

    def setup(self) -> None:
        self._load()
        self.trainer = self._make_trainer(self.compiled, "float32")
        self.optimizer = repro.Adam(lr=0.01)

    def iteration(self) -> None:
        self.losses.append(self._train(self.trainer, self.features, self.optimizer))

    def fingerprint(self) -> str:
        return repr(self.losses[:1])

    def _oracle_features(self) -> np.ndarray:
        return self.features * 2.0 if self.corrupt else self.features

    def _finite(self) -> Check:
        bad = [x for x in self.losses if not math.isfinite(x)]
        return ("finite-losses", not bad, f"{len(bad)} non-finite of {len(self.losses)}")

    def _differential(self) -> Check:
        """The repo's differential oracle: the same seed under the per-op
        baseline strategy in float64, first three losses."""
        steps = min(3, len(self.losses))
        baseline = self._make_trainer(self._session("dgl-like").compile(), "float64")
        optimizer = repro.Adam(lr=0.01)
        features = self._oracle_features()
        want = [self._train(baseline, features, optimizer) for _ in range(steps)]
        ok, detail = _rel_close(self.losses[:steps], want, 1e-4)
        return ("dgl-like-float64-losses", ok, detail)

    def traced_extras(self, tracer: Tracer) -> None:
        tracer.values["gpu.model_iter_s"] = self.session.latency_seconds()
        baseline = self._make_trainer(self._session("dgl-like").compile(), "float32")
        optimizer = repro.Adam(lr=0.01)
        tracer.values["frameworks.ours_over_dgl_iter_ratio"] = _interleaved_ratio(
            self.iteration,
            lambda: self._train(baseline, self.features, optimizer),
            repeats=1 if self.quick else 7,
        )
        _measured_over_model(
            tracer, self.compiled, self.graph, self.features,
            self.trainer.params, repeats=1 if self.quick else 3,
        )


def _backward_arrays(compiled, arrays: dict, forward: dict) -> dict:
    """Inputs of the backward plan: all-ones output gradients, the
    stash the forward run kept, and the forward plan's own inputs."""
    seeds = set(compiled.seed_names())
    module = compiled.bwd_plan.module
    out = {}
    for name in list(module.inputs) + list(module.params):
        if name in seeds:
            out[name] = np.ones_like(forward[name[len("grad__"):]])
        elif name in forward:
            out[name] = forward[name]
        elif name in arrays:
            out[name] = arrays[name]
        # anything else is a graph constant bind() synthesises
    return out


def _measured_over_model(tracer, compiled, graph, features, params, repeats) -> None:
    """ROADMAP's predicted-vs-measured gap, per kernel class, on the
    workload's own forward and backward plans."""
    try:
        from repro.exec.measure import measure_plan
    except ImportError as exc:
        print(f"perf: exec.measure is gone ({exc!r})", file=sys.stderr)
        return
    arrays = compiled.model.make_inputs(graph, features)
    arrays.update(params)
    engine = repro.Engine(graph)
    forward = engine.run_plan(
        compiled.fwd_plan, engine.bind(compiled.forward, arrays), unwrap=False
    )
    backward_arrays = _backward_arrays(compiled, arrays, forward)
    measured: Dict[str, float] = {}
    modelled: Dict[str, float] = {}
    for plan, plan_arrays in (
        (compiled.fwd_plan, arrays), (compiled.bwd_plan, backward_arrays)
    ):
        run = measure_plan(graph, plan, plan_arrays, warmup=1, repeats=repeats)
        for cls, seconds in run.class_seconds().items():
            measured[cls] = measured.get(cls, 0.0) + seconds
        for cls, seconds in run.class_analytic_seconds().items():
            modelled[cls] = modelled.get(cls, 0.0) + seconds
    for cls in KERNEL_CLASSES:
        if modelled.get(cls):
            tracer.values[f"gpu.{cls}.measured_over_model"] = (
                measured[cls] / modelled[cls]
            )


class TrainGatCora(_Training):
    name = "train-gat-cora"
    why = ("edge-centric full-graph step (scatter, edge-softmax, gather): "
           "exec kernels are ~97% of it, so a kernel/fusion change shows "
           "and a plan-caching change must not")
    model, dataset = "gat", "cora"

    def checks(self) -> List[Check]:
        return [self._finite(), self._differential()]


class TrainGcnPubmed(_Training):
    name = "train-gcn-pubmed"
    why = ("vertex-centric full-graph step (one fused gather + dense linear "
           "on 22 MB edge tensors, out of cache, IO-bound): a gather-blocking "
           "or arena change shows, an edge-apply change does not")
    model, dataset = "gcn", "pubmed"

    def checks(self) -> List[Check]:
        logits = self.trainer.forward(self.features)[self.trainer.output_name]
        want = oracles.gcn_forward(
            self.graph.src, self.graph.dst, self.graph.num_vertices,
            self._oracle_features(), self.trainer.params,
        )
        err = float(np.abs(logits - want).max())
        tol = 1e-4 + 1e-3 * float(np.abs(want).max())
        return [
            self._finite(),
            ("edge-list-gcn-logits", err <= tol, f"max abs err {err:.3e} tol {tol:.3e}"),
        ]


class MinibatchSageCora(_Training):
    name = "minibatch-sage-cora"
    why = ("one sampled epoch of 43 tiny plans: per-batch sampling, CSR "
           "build, trainer construction and input binding are large here "
           "and ~0 in the full-graph workloads")
    model, dataset, feature_dim = "sage", "cora", 32
    batch_size = 64
    rate_unit = "seeds/s"

    def _make_trainer(self, compiled, precision: str):
        return repro.MiniBatchTrainer(
            compiled, self.graph, batch_size=self.batch_size,
            precision=precision, seed=self.seed, sampler_seed=self.seed,
        )

    def _train(self, trainer, features, optimizer) -> float:
        return trainer.train_epoch(features, self.labels, optimizer).loss

    def work_per_iteration(self) -> float:
        return float(self.graph.num_vertices)

    def checks(self) -> List[Check]:
        return [self._finite(), self._differential()]

    def traced_extras(self, tracer: Tracer) -> None:
        tracer.values["gpu.model_iter_s"] = (
            self._session().minibatch(self.batch_size, seed=self.seed)
            .latency_seconds()
        )


# ----------------------------------------------------------------------
# Partitioned execution
# ----------------------------------------------------------------------
class Multi4GatCora(_Training):
    name = "multi4-gat-cora"
    why = ("forward + backward of the training plans through the 4-part "
           "partitioned interpreter with halo exchange: the only workload on "
           "MultiEngine; engine-unification and overlap changes are judged here")
    model, dataset = "gat", "cora"

    def setup(self) -> None:
        self._load()
        self.params = self.compiled.model.init_params(self.seed)
        self.engine = repro.MultiEngine(self.graph, 4, overlap=None)
        self.result: Optional[Tuple[dict, dict]] = None

    def _step(self, engine) -> Tuple[dict, dict]:
        """Forward, then backward seeded with all-ones output gradients."""
        compiled = self.compiled
        arrays = compiled.model.make_inputs(self.graph, self.features)
        arrays.update(self.params)
        forward = engine.run_plan(
            compiled.fwd_plan, engine.bind(compiled.forward, arrays), unwrap=False
        )
        result = engine.run_plan(
            compiled.bwd_plan,
            engine.bind(
                compiled.bwd_plan.module, _backward_arrays(compiled, arrays, forward)
            ),
        )
        outputs = {o: np.asarray(forward[o]) for o in compiled.forward.outputs}
        grads = {p: result[g] for p, g in compiled.param_grads.items()}
        return outputs, grads

    def iteration(self) -> None:
        self.result = self._step(self.engine)

    def fingerprint(self) -> str:
        outputs, _ = self.result
        return oracles.digest([outputs[k] for k in sorted(outputs)])

    def checks(self) -> List[Check]:
        outputs, grads = self.result
        want_outputs, want_grads = self._step(repro.Engine(self.graph))
        if self.corrupt:
            want_grads = {k: v * 1.01 for k, v in want_grads.items()}
        out = []
        for label, got, want, rtol in (
            ("outputs-equal-single-engine", outputs, want_outputs, 1e-6),
            ("param-grads-equal-single-engine", grads, want_grads, 1e-4),
        ):
            worst = max(
                float(np.abs(got[k] - want[k]).max() / (np.abs(want[k]).max() + 1e-12))
                for k in want
            )
            out.append((label, set(got) == set(want) and worst <= rtol,
                        f"max rel err {worst:.3e} rtol {rtol:.0e}"))
        return out

    def traced_extras(self, tracer: Tracer) -> None:
        repeats = 1 if self.quick else 7
        tracer.values["gpu.model_iter_s"] = (
            self._session().cluster("V100", 4).latency_seconds()
        )
        single = repro.Engine(self.graph)
        tracer.values["exec.multi.over_single_ratio"] = _interleaved_ratio(
            self.iteration, lambda: self._step(single), repeats
        )
        threaded = repro.MultiEngine(self.graph, 4, overlap="threads")
        tracer.values["exec.multi.threads_over_serial_ratio"] = _interleaved_ratio(
            lambda: self._step(threaded), self.iteration, repeats
        )
        _measured_over_model(
            tracer, self.compiled, self.graph, self.features, self.params,
            repeats=1 if self.quick else 3,
        )


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class ServeRead(Workload):
    name = "serve-read"
    why = ("open-loop read-only serving on gat/pubmed: the serve loop, the "
           "feature cache and per-batch re-binding dominate; hoisting "
           "per-batch work behind the plan cache shows here")
    rate_unit = "req/s"
    model, dataset, feature_dim = "gat", "pubmed", 32
    num_requests = 256
    extra: Dict[str, object] = {}

    def _kwargs(self) -> Dict[str, object]:
        kwargs = dict(
            num_requests=32 if self.quick else self.num_requests,
            qps=8000.0, seeds_per_request=4, zipf_alpha=0.9,
            cache_rows=8192, seed=self.seed,
        )
        kwargs.update(self.extra)
        return kwargs

    def setup(self) -> None:
        self.session = (
            repro.session().model(self.model).dataset(self.dataset)
            .strategy("ours").feature_dim(self.feature_dim).gpu("V100")
        )
        self.report = None
        self.digests: List[str] = []

    def iteration(self) -> None:
        self.report = self.session.serve(**self._kwargs())
        self.digests.append(oracles.serve_report_digest(self.report))

    def work_per_iteration(self) -> float:
        return float(self._kwargs()["num_requests"])

    def fingerprint(self) -> str:
        return self.digests[0]

    def checks(self) -> List[Check]:
        same = len(set(self.digests)) == 1
        sample_ok, detail = oracles.check_served_sample(
            self.session, self.report, self._kwargs(),
            dataset=self.dataset, feature_dim=self.feature_dim, tenant=self.model,
            sample=8 if self.quick else 32, corrupt=self.corrupt,
        )
        return [
            ("report-identical-across-iterations", same,
             f"{len(set(self.digests))} distinct digests in {len(self.digests)}"),
            ("sampled-requests-equal-direct-engine", sample_ok, detail),
        ]

    def traced_extras(self, tracer: Tracer) -> None:
        tracer.values["gpu.model_iter_s"] = tracer.values.get(
            "serve.virtual_makespan_s", 0.0
        )


class ServeMixed(ServeRead):
    name = "serve-mixed"
    why = ("the same stream with 30% writes and a compaction every 4 deltas: "
           "adds dyn apply/compact/invalidate beside the reads, so a "
           "read-path gain that taxes the write path shows")
    extra = {"update_frac": 0.3, "compact_every": 4}


# ----------------------------------------------------------------------
# Analytic sweep
# ----------------------------------------------------------------------
class SweepAnalytic(Workload):
    name = "sweep-analytic"
    why = ("no kernel executes: compile, analytic walkers, cost model, "
           "partition stats and the sweep loop do all the work — the "
           "control for every exec kernel change")
    rate_unit = "rows/s"
    models = ("gat", "gcn", "sage", "gin")
    datasets = ("cora", "pubmed", "reddit-full")
    strategies = ("dgl-like", "fusegnn-like", "ours", "ours-stash")
    num_gpus = (1, 4)

    def setup(self) -> None:
        # The sweep takes no generated input, so the seed is unused:
        # ordering the axes by it was tried and moved peak RSS by 12%.
        models = self.models[:2] if self.quick else self.models
        self.axes = [list(models), list(self.datasets), list(self.strategies)]
        self.report = None
        self.digests: List[str] = []

    def iteration(self) -> None:
        models, datasets, strategies = self.axes
        self.report = repro.run_sweep(
            models, datasets, strategies, ["V100"],
            num_gpus=self.num_gpus, cache=repro.PlanCache(),
        )
        self.digests.append(self._digest())

    def _rows(self) -> List[dict]:
        return sorted(
            (row.to_dict() for row in self.report.rows),
            key=lambda r: (r["model"], r["dataset"], r["strategy"], r["num_gpus"]),
        )

    def _digest(self) -> str:
        blob = json.dumps(self._rows(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def work_per_iteration(self) -> float:
        return float(math.prod(len(a) for a in self.axes) * len(self.num_gpus))

    def fingerprint(self) -> str:
        return self.digests[0]

    def checks(self) -> List[Check]:
        rows = self._rows()
        if self.corrupt:
            rows = rows[:-1]
        expected = int(self.work_per_iteration())
        numeric = [
            v for r in rows for v in r.values()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        ]
        latency = {
            (r["model"], r["dataset"], r["strategy"], r["num_gpus"]): r["latency_s"]
            for r in rows
        }
        slower = [
            key for key, value in latency.items()
            if key[0] == "gat" and key[2] == "ours" and key[3] == 1
            and value > latency[(key[0], key[1], "dgl-like", key[3])]
        ]
        return [
            ("row-count", len(rows) == expected, f"{len(rows)} rows, expected {expected}"),
            ("finite-columns", all(math.isfinite(v) for v in numeric),
             f"{len(numeric)} numeric cells"),
            ("ours-not-slower-than-dgl-on-single-gpu-gat", not slower, f"slower on {slower}"),
            ("table-identical-across-iterations", len(set(self.digests)) == 1,
             f"{len(set(self.digests))} distinct digests in {len(self.digests)}"),
        ]


WORKLOADS = {
    cls.name: cls
    for cls in (
        TrainGatCora, TrainGcnPubmed, MinibatchSageCora,
        ServeRead, ServeMixed, SweepAnalytic, Multi4GatCora,
    )
}
