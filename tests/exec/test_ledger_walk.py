"""The one analytic ledger, and the one arena recipe built on it.

``repro.exec.memory.ledger_walk`` is the only analytic statement of the
§6 discipline, so nothing in ``src`` is left to compare it with.  The
oracle lives here instead: :func:`tests.helpers.naive_ledger` recomputes
the resident set from scratch at every step.

The second half pins the per-phase recipe: ``compiled.memory_plan(stats)``
is what ``Session.memory_plan()`` plans, each phase held to the ledger
its counters price, while sampled batches, served or trained on,
execute on fresh storage: their measured watermark is the unpinned walk
over the roots at the sizes the batch's rings hold them.
"""

import numpy as np
import pytest

import repro
import repro.models  # noqa: F401  (populates the model registry)
from repro.exec import Engine
from repro.exec.memory import StepMemoryPlan, ledger_walk, root_sizes
from repro.frameworks import compile_forward, compile_training, get_strategy
from repro.graph import get_dataset
from repro.graph.generators import erdos_renyi
from repro.graph.sampling import plan_minibatches
from repro.registry import MODELS
from repro.serve import InferenceServer, poisson_workload, receptive_field
from repro.train import Adam, MiniBatchTrainer

from tests.helpers import naive_ledger, ring_root_sizes

STATS = get_dataset("pubmed").stats
STRATEGIES = ("ours", "ours-stash", "dgl-like")


def _phases(model: str, strategy: str):
    compiled = compile_training(MODELS.get(model)(8, 3), get_strategy(strategy))
    return compiled, [plan for _, plan in compiled.phases()]


class TestWalkAgainstTheNaiveLedger:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("model", sorted(MODELS.names()))
    def test_plan_order(self, model, strategy):
        compiled, plans = _phases(model, strategy)
        for plan in plans:
            sizes = root_sizes(plan, STATS)
            for pinned in ((), compiled.pinned):
                assert ledger_walk(plan, sizes, pinned=pinned) == naive_ledger(
                    plan, STATS, pinned=pinned
                )


# ----------------------------------------------------------------------
# One arena recipe
# ----------------------------------------------------------------------
GRAPH = erdos_renyi(150, 1200, seed=11)


def _same_plan(got: StepMemoryPlan, want: StepMemoryPlan) -> None:
    assert [mp.plan for mp in got.phases()] == [mp.plan for mp in want.phases()]
    assert [mp.slabs for mp in got.phases()] == [mp.slabs for mp in want.phases()]
    assert got.planned_peak_bytes == want.planned_peak_bytes


class _EngineSpy(Engine):
    """Records the arena plan each engine was handed."""

    handed = []

    def __init__(self, graph, **kwargs):
        _EngineSpy.handed.append(kwargs.get("memory_plan"))
        super().__init__(graph, **kwargs)


@pytest.fixture
def handed(monkeypatch):
    monkeypatch.setattr("repro.train.loop.Engine", _EngineSpy)
    monkeypatch.setattr("repro.serve.server.Engine", _EngineSpy)
    _EngineSpy.handed = []
    return _EngineSpy.handed


class TestOneArenaRecipe:
    @pytest.mark.parametrize("training", (True, False))
    def test_session(self, training):
        sess = repro.session().model("gat").dataset("cora").strategy("ours")
        want = sess.compile(training=training).memory_plan(sess.resolve_stats())
        assert len(want.phases()) == 1 + training
        _same_plan(sess.memory_plan(training=training), want)
        counters = sess.counters(training=training)
        assert counters.peak_memory_bytes == want.ledger_peak_bytes

    def test_minibatch_trainer(self, handed):
        compiled = compile_training(MODELS.get("sage")(8, 3), get_strategy("ours"))
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(GRAPH.num_vertices, 8))
        labels = rng.integers(0, 3, size=GRAPH.num_vertices)
        trainer = MiniBatchTrainer(
            compiled, GRAPH, batch_size=40, precision="float32"
        )
        epoch = trainer.train_epoch(feats, labels, Adam(lr=0.01))
        schedule = list(
            plan_minibatches(GRAPH, 40, trainer.hops, rng=np.random.default_rng(0))
        )
        assert len(handed) == len(schedule) > 1
        assert handed == [None] * len(schedule)
        phases = list(zip((compiled.fwd_plan, compiled.bwd_plan), compiled.rings()))
        for record, mb in zip(epoch.records, schedule):
            assert record.peak_bytes == max(
                ledger_walk(
                    plan, ring_root_sizes(plan, depth, mb.subgraph, mb.distance),
                    pinned=(),
                ).peak_bytes
                for plan, depth in phases
            )

    def test_inference_server(self, handed):
        ds = get_dataset("cora")
        graph, features = ds.graph(), ds.features(dim=16, seed=0)
        compiled = compile_forward(
            MODELS.get("gat")(16, ds.num_classes), get_strategy("ours")
        )
        server = InferenceServer(graph, features, {"gat": compiled}, gpu="RTX3090")
        requests = poisson_workload(
            12, qps=4000.0, num_vertices=graph.num_vertices,
            seeds_per_request=2, tenant="gat", seed=0,
        )
        seeds = {r.request_id: r.seeds for r in requests}
        report = server.serve(requests)
        # Each field is priced on its ledger; the batch runs on fresh
        # storage.
        assert handed == [None] * len(report.batches)
        assert len(report.batches) > 1
        for trace in report.batches:
            field = receptive_field(
                graph,
                np.unique(np.concatenate([seeds[i] for i in trace.request_ids])),
                server.tenants["gat"].hops,
            )
            want = compiled.memory_plan(field.subgraph.stats())
            assert (
                trace.cost.compute.forward.peak_memory_bytes
                == want.ledger_peak_bytes
            )
