"""Tests for peak-aware kernel scheduling (:mod:`repro.opt.schedule`)."""

import numpy as np
import pytest

import repro.models  # noqa: F401  (populates the model registry)
from repro.exec.analytic import analyze_plan
from repro.exec.memory import ledger_walk, root_sizes
from repro.exec.plan import ExecPlan
from repro.frameworks import compile_training, get_strategy
from repro.graph.datasets import get_dataset
from repro.opt.schedule import (
    REFERENCE_STATS,
    ScheduleMemoryPass,
    schedule_kernels,
    with_memory_schedule,
)
from repro.registry import MODELS, PASSES

from tests.helpers import naive_ledger

STATS = get_dataset("pubmed").stats


def compiled_for(name, strategy="ours"):
    return compile_training(MODELS.get(name)(8, 3), get_strategy(strategy))


class TestScheduleKernels:
    @pytest.mark.parametrize("name", sorted(MODELS.names()))
    def test_reordered_plans_stay_valid_and_never_worse(self, name):
        compiled = compiled_for(name)
        for plan in (compiled.fwd_plan, compiled.bwd_plan):
            scheduled = schedule_kernels(plan)  # validates in __post_init__
            assert sorted(k.label for k in scheduled.kernels) == sorted(
                k.label for k in plan.kernels
            )
            base = analyze_plan(plan, STATS).peak_memory_bytes
            after = analyze_plan(scheduled, STATS).peak_memory_bytes
            assert after <= base, f"{name}: scheduling worsened the peak"

    def test_strictly_improves_somewhere_in_the_zoo(self):
        # The pass must not be a no-op machine: under the nominal
        # compile-time stats at least one model's step peak drops.
        improved = 0
        for name in MODELS.names():
            compiled = compiled_for(name)
            for plan in (compiled.fwd_plan, compiled.bwd_plan):
                scheduled = schedule_kernels(plan)
                if scheduled is plan:
                    continue
                base = analyze_plan(plan, STATS).peak_memory_bytes
                after = analyze_plan(scheduled, STATS).peak_memory_bytes
                improved += after < base
        assert improved > 0

    def test_tiny_plans_returned_unchanged(self):
        compiled = compiled_for("gcn")
        plan = compiled.fwd_plan
        two = ExecPlan(
            module=plan.module, kernels=list(plan.kernels), keep=plan.keep
        )
        # <= 2 kernels short-circuits; same-object return elsewhere too.
        small = schedule_kernels(two) if len(two.kernels) <= 2 else None
        if small is not None:
            assert small is two

    def test_simulation_matches_the_analytic_ledger(self):
        # The walk candidates are scored by, against the from-scratch
        # oracle: on the emitted order, and on the order the scheduler
        # chose — where it must also be what walking the rebuilt plan
        # reports, or "never worse" would compare unlike things.
        plan = compiled_for("gat").bwd_plan
        scheduled = schedule_kernels(plan)
        assert scheduled is not plan
        chosen = [plan.kernels.index(k) for k in scheduled.kernels]
        sizes = root_sizes(plan, STATS)
        for order in (None, chosen):
            assert ledger_walk(plan, sizes, order=order) == naive_ledger(
                plan, STATS, order=order
            )
        assert analyze_plan(scheduled, STATS).peak_memory_bytes == max(
            naive_ledger(plan, STATS, order=chosen)[0]
        )


class TestSchedulePass:
    def test_registered_in_the_pass_registry(self):
        assert PASSES.get("schedule_memory") is ScheduleMemoryPass

    def test_with_memory_schedule_appends_the_pass(self):
        base = get_strategy("ours")
        derived = with_memory_schedule(base)
        assert derived.pass_names[-1] == "schedule_memory"
        assert derived.name == "ours+memsched"
        assert derived.fusion_mode == base.fusion_mode
        assert derived.recompute_policy == base.recompute_policy
        # Idempotent: a strategy already carrying the pass is returned.
        assert with_memory_schedule(derived) is derived

    def test_pipeline_records_the_pass(self):
        compiled = compile_training(
            MODELS.get("gat")(8, 3), with_memory_schedule(get_strategy("ours"))
        )
        names = [r.name for r in compiled.pass_records]
        assert names[-1] == "schedule_memory"

    def test_scheduled_compilation_keeps_kernel_multiset(self):
        base = compiled_for("gat")
        sched = compile_training(
            MODELS.get("gat")(8, 3), with_memory_schedule(get_strategy("ours"))
        )
        for a, b in ((base.fwd_plan, sched.fwd_plan), (base.bwd_plan, sched.bwd_plan)):
            assert sorted(k.label for k in a.kernels) == sorted(
                k.label for k in b.kernels
            )

    def test_forward_only_compilation_works(self):
        from repro.frameworks import compile_forward

        compiled = compile_forward(
            MODELS.get("gat")(8, 3), with_memory_schedule(get_strategy("ours"))
        )
        names = [r.name for r in compiled.pass_records]
        assert "schedule_memory" in names

    def test_reference_stats_are_nominal(self):
        assert REFERENCE_STATS.num_vertices > 0
        assert REFERENCE_STATS.num_edges > REFERENCE_STATS.num_vertices
