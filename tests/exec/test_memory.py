"""Unit tests for the arena memory planner (:mod:`repro.exec.memory`)."""

import numpy as np
import pytest

import repro.models  # noqa: F401  (populates the model registry)
from repro.exec import Engine, plan_memory
from repro.exec.analytic import analyze_plan
from repro.exec.memory import (
    ARENA_ALIGN,
    MemoryLedger,
    MemoryPlan,
    StepMemoryPlan,
)
from repro.exec.plan import plan_module
from repro.frameworks import compile_training, get_strategy
from repro.graph.datasets import get_dataset
from repro.graph.generators import erdos_renyi
from repro.graph.partition import PartitionStats
from repro.ir import Builder, Domain
from repro.registry import MODELS, STRATEGIES

from tests.helpers import reference_node

STATS = get_dataset("cora").stats
TRAINING_STRATEGIES = tuple(
    s for s in sorted(STRATEGIES.names()) if get_strategy(s).supports_training
)


def chain_module():
    b = Builder("m")
    h = b.input("h", Domain.VERTEX, (4,))
    e = b.scatter("copy_u", u=h, name="e")
    x = b.apply("exp", e, name="x")
    v = b.gather("sum", x, name="v")
    b.output(v)
    return b.build()


def compiled_for(name, strategy="ours"):
    model = MODELS.get(name)(8, 3)
    return compile_training(model, get_strategy(strategy))


class TestSlabAssignment:
    def test_every_unpinned_boundary_root_gets_a_slab(self):
        plan = plan_module(chain_module(), mode="per_op")
        mp = plan_memory(plan, STATS)
        assert set(mp.slabs) == set(plan.liveness())
        mp_pinned = plan_memory(plan, STATS, pinned=["h"])
        assert "h" not in mp_pinned.slabs
        assert mp_pinned.pinned_bytes == plan.module.specs["h"].nbytes(
            STATS.num_vertices, STATS.num_edges
        )

    def test_offsets_aligned_and_sized(self):
        plan = plan_module(chain_module(), mode="per_op")
        mp = plan_memory(plan, STATS)
        for slab in mp.slabs.values():
            assert slab.offset % ARENA_ALIGN == 0
            assert slab.size >= slab.nbytes
            assert slab.offset + slab.size <= mp.arena_bytes

    @pytest.mark.parametrize("name", sorted(MODELS.names()))
    def test_overlapping_lifetimes_never_share_bytes(self, name):
        compiled = compiled_for(name)
        pinned = list(compiled.forward.inputs) + list(compiled.forward.params)
        for plan in (compiled.fwd_plan, compiled.bwd_plan):
            mp = plan_memory(plan, STATS, pinned=pinned)
            slabs = list(mp.slabs.values())
            for i, a in enumerate(slabs):
                for b in slabs[i + 1:]:
                    if a.overlaps(b):
                        disjoint = (
                            a.offset + a.size <= b.offset
                            or b.offset + b.size <= a.offset
                        )
                        assert disjoint, (
                            f"{name}: live slabs {a.name}/{b.name} share bytes"
                        )

    @pytest.mark.parametrize("name", sorted(MODELS.names()))
    def test_arena_never_exceeds_fresh_storage(self, name):
        compiled = compiled_for(name)
        for plan in (compiled.fwd_plan, compiled.bwd_plan):
            mp = plan_memory(plan, STATS)
            assert mp.arena_bytes <= mp.naive_bytes
            assert mp.reuse_factor >= 1.0

    @pytest.mark.parametrize("strategy", TRAINING_STRATEGIES)
    @pytest.mark.parametrize("name", sorted(MODELS.names()))
    def test_arena_lies_between_the_live_floor_and_fresh_storage(
        self, name, strategy
    ):
        # Off `ours` best-fit packing can fragment, so planned may
        # exceed the ledger peak; it never undercuts it.
        compiled = compiled_for(name, strategy)
        pinned = list(compiled.forward.inputs) + list(compiled.forward.params)
        for plan in (compiled.fwd_plan, compiled.bwd_plan):
            for held in ((), pinned):
                mp = plan_memory(plan, STATS, pinned=held)
                assert mp.live_peak_bytes <= mp.arena_bytes <= mp.naive_bytes
                assert mp.planned_peak_bytes >= mp.ledger_peak_bytes

    def test_ledger_peak_matches_analytic_walk(self):
        compiled = compiled_for("gat")
        pinned = list(compiled.forward.inputs) + list(compiled.forward.params)
        for plan in (compiled.fwd_plan, compiled.bwd_plan):
            mp = plan_memory(plan, STATS, pinned=pinned)
            want = analyze_plan(plan, STATS, pinned=pinned).peak_memory_bytes
            assert mp.ledger_peak_bytes == want

    def test_planned_peak_is_pinned_plus_arena(self):
        plan = plan_module(chain_module(), mode="per_op")
        mp = plan_memory(plan, STATS, pinned=["h"])
        assert mp.planned_peak_bytes == mp.pinned_bytes + mp.arena_bytes


class TestStepMemoryPlan:
    def test_maxes_over_phases(self):
        compiled = compiled_for("sage")
        mp_f = plan_memory(compiled.fwd_plan, STATS)
        mp_b = plan_memory(compiled.bwd_plan, STATS)
        step = StepMemoryPlan(forward=mp_f, backward=mp_b)
        assert step.arena_bytes == max(mp_f.arena_bytes, mp_b.arena_bytes)
        assert step.ledger_peak_bytes == max(
            mp_f.ledger_peak_bytes, mp_b.ledger_peak_bytes
        )
        assert len(step.phases()) == 2
        assert "forward" in step.summary()

    def test_forward_only(self):
        compiled = compiled_for("sage")
        step = StepMemoryPlan(forward=plan_memory(compiled.fwd_plan, STATS))
        assert step.phases() == [step.forward]
        assert step.arena_bytes == step.forward.arena_bytes


class TestPlanMemoryMulti:
    def test_one_plan_per_partition(self):
        compiled = compiled_for("gcn")
        pstats = PartitionStats.from_stats(STATS, 4)
        plans = [plan_memory(compiled.fwd_plan, part) for part in pstats.parts]
        assert len(plans) == 4
        for mp, part in zip(plans, pstats.parts):
            assert isinstance(mp, MemoryPlan)
            assert mp.arena_bytes <= mp.naive_bytes
            # Per-part slabs are sized to the partition's extents.
            specs = compiled.fwd_plan.module.specs
            for root, slab in mp.slabs.items():
                assert slab.nbytes == specs[root].nbytes(
                    part.num_vertices, part.num_edges
                )


class TestMemoryLedger:
    def test_mirrors_the_analytic_walk(self):
        graph = erdos_renyi(60, 240, seed=1)
        module = chain_module()
        plan = plan_module(module, mode="per_op")
        engine = Engine(graph, precision="float32")
        env = engine.bind(module, {"h": np.ones((60, 4), dtype=np.float32)})
        ledger = MemoryLedger(plan)
        ledger.bind(env)
        values = dict(env)
        for i, kernel in enumerate(plan.kernels):
            for node in kernel.nodes:
                reference_node(node, values, graph)
            ledger.after_kernel(i, [
                (plan.root_of(w), values.get(w)) for w in plan.kernel_io(i).writes
            ])
        want = analyze_plan(plan, graph.stats())
        assert ledger.peak_bytes == want.peak_memory_bytes
        assert ledger.current_bytes == want.end_resident_bytes

    def test_pinned_roots_never_freed(self):
        graph = erdos_renyi(60, 240, seed=1)
        module = chain_module()
        plan = plan_module(module, mode="per_op")
        engine = Engine(graph, precision="float32")
        env = engine.bind(module, {"h": np.ones((60, 4), dtype=np.float32)})
        ledger = MemoryLedger(plan, pinned=["h"])
        ledger.bind(env)
        values = dict(env)
        for i, kernel in enumerate(plan.kernels):
            for node in kernel.nodes:
                reference_node(node, values, graph)
            ledger.after_kernel(i, [
                (plan.root_of(w), values.get(w)) for w in plan.kernel_io(i).writes
            ])
        want = analyze_plan(plan, graph.stats(), pinned=["h"])
        assert ledger.peak_bytes == want.peak_memory_bytes
        assert ledger.current_bytes == want.end_resident_bytes


class TestArenaPool:
    def test_a_kernel_writes_into_its_slab_view(self):
        # A value enters the arena only by being written there: copy_u
        # (an np.take path) is handed the view of its root's slab.
        graph = erdos_renyi(60, 240, seed=1)
        plan = plan_module(chain_module(), mode="per_op")
        mp = plan_memory(plan, graph.stats(), pinned=["h"])
        engine = Engine(graph, memory_plan=mp)
        h = np.arange(240, dtype=np.float32).reshape(60, 4)
        result = engine.run_plan(plan, engine.bind(plan.module, {"h": h}))
        pool, storage = engine._arena_storage()
        views, writers = storage[id(mp)]
        view = views["e"]
        assert view.shape == (graph.num_edges, 4) and view.dtype == np.float32
        assert view.nbytes == mp.slabs["e"].nbytes
        assert np.shares_memory(view, pool.buffer)
        assert np.array_equal(view, h[graph.src])
        # The scipy product (the gather) has no in-place path: its
        # result keeps fresh storage, and nothing is copied into a slab.
        assert "v" not in writers
        assert not np.shares_memory(result["v"], pool.buffer)

    def test_one_buffer_serves_every_phase(self):
        # Phases run one after another, so they share one buffer; within
        # a phase, values whose lifetimes overlap never share a byte.
        compiled = compiled_for("gcn")
        graph = erdos_renyi(60, 240, seed=1)
        step = compiled.memory_plan(graph.stats())
        engine = Engine(graph, memory_plan=step)
        pool, storage = engine._arena_storage()
        base = pool.buffer.__array_interface__["data"][0]
        for mp in step.phases():
            views, _ = storage[id(mp)]
            assert views
            spans = {
                name: (view.__array_interface__["data"][0] - base, view.nbytes)
                for name, view in views.items()
            }
            for name, (offset, nbytes) in spans.items():
                assert 0 <= offset and offset + nbytes <= pool.buffer.nbytes, name
            live = [n for n in spans if n in mp.slabs]
            for i, a in enumerate(live):
                for b in live[i + 1:]:
                    if mp.slabs[a].overlaps(mp.slabs[b]):
                        (oa, na), (ob, nb) = spans[a], spans[b]
                        assert oa + na <= ob or ob + nb <= oa, (a, b)
