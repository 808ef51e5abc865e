"""Session-level memory planning: schedule mode, terminals, sweeps."""

from dataclasses import replace

import pytest

import repro
from repro.exec.memory import StepMemoryPlan
from repro.gpu.cost_model import CostModel, SimulatedOOM
from repro.gpu.spec import RTX3090
from repro.session import Session, run_sweep


def memory_session():
    return (
        repro.session()
        .model("gat").dataset("cora").strategy("ours").schedule("memory")
    )


class TestScheduleMode:
    def test_schedule_appends_the_pass_to_the_strategy(self):
        sess = memory_session()
        resolved = sess.resolve_strategy()
        assert resolved.pass_names[-1] == "schedule_memory"
        assert resolved.name.endswith("+memsched")
        sess.schedule(None)
        assert sess.resolve_strategy().name == "ours"

    def test_unknown_mode_is_a_loud_error(self):
        with pytest.raises(ValueError, match="schedule mode"):
            repro.session().schedule("bogus")

    def test_strategy_label_stays_the_base_name(self):
        sess = memory_session()
        assert sess.report().strategy == "ours"


class TestMemoryPlanTerminal:
    def test_training_plan_has_both_phases(self):
        smp = memory_session().memory_plan()
        assert isinstance(smp, StepMemoryPlan)
        assert smp.backward is not None
        assert smp.arena_bytes > 0
        assert smp.reuse_factor >= 1.0

    def test_forward_plan_is_single_phase(self):
        smp = memory_session().memory_plan(training=False)
        assert smp.backward is None

    def test_memoised_per_configuration(self):
        sess = memory_session()
        assert sess.memory_plan() is sess.memory_plan()

    def test_arena_below_the_ledger_peak(self):
        sess = memory_session()
        smp = sess.memory_plan()
        base = (
            repro.session().model("gat").dataset("cora").strategy("ours")
        )
        assert smp.arena_bytes < base.counters().peak_memory_bytes

    def test_counters_carry_the_planned_peak(self):
        sess = memory_session()
        counters = sess.counters()
        smp = sess.memory_plan()
        assert counters.forward.planned_peak_bytes == (
            smp.forward.planned_peak_bytes
        )
        assert counters.backward.planned_peak_bytes == (
            smp.backward.planned_peak_bytes
        )
        assert counters.device_peak_bytes == smp.planned_peak_bytes
        plain = (
            repro.session().model("gat").dataset("cora").strategy("ours")
        ).counters()
        assert plain.forward.planned_peak_bytes is None
        assert plain.device_peak_bytes == plain.peak_memory_bytes


class TestCostModelSwitch:
    def test_fits_uses_the_planned_arena_peak(self):
        # gin on pubmed: the schedule_memory pass finds real slack, so
        # the planned (pinned + arena) footprint strictly undercuts the
        # fresh-storage ledger peak.
        sess = (
            repro.session()
            .model("gin").dataset("pubmed").strategy("ours")
            .schedule("memory")
        )
        counters = sess.counters()
        planned = counters.device_peak_bytes
        plain = (
            repro.session().model("gin").dataset("pubmed").strategy("ours")
        ).counters()
        ledger = plain.peak_memory_bytes  # fusion-emitted order, fresh storage
        assert planned < ledger
        # A device sized between the two: OOM on the unscheduled ledger,
        # fits with the scheduled arena plan — §6's analytic-vs-
        # deliverable gap made real.
        between = (planned + ledger) // 2
        tiny = replace(RTX3090, name="tiny", dram_gb=between / 2**30)
        assert CostModel(tiny).fits(counters)
        assert not CostModel(tiny).fits(plain)
        with pytest.raises(SimulatedOOM):
            CostModel(tiny).check_memory(plain)


class TestReport:
    def test_report_attaches_the_memory_plan(self):
        report = memory_session().report()
        assert report.memory is not None
        assert "arena plan" in report.summary()

    def test_plain_report_has_no_memory_plan(self):
        report = (
            repro.session().model("gat").dataset("cora").strategy("ours")
        ).report()
        assert report.memory is None
        assert "arena plan" not in report.summary()


class TestSweepScheduleAxis:
    def test_schedule_axis_rows(self):
        sweep = run_sweep(
            models=["gat"],
            datasets=["cora"],
            strategies=["ours"],
            schedule=[None, "memory"],
            feature_dim=16,
        )
        assert len(sweep.rows) == 2
        plain = sweep.by(schedule=None)[0]
        sched = sweep.by(schedule="memory")[0]
        assert plain.arena_bytes == 0
        assert sched.arena_bytes > 0
        assert sched.peak_memory_bytes <= plain.peak_memory_bytes + 64
        assert "sched" in sweep.table()
        assert sched.to_dict()["schedule"] == "memory"

    def test_one_compile_call_per_combination(self):
        from repro.session import PlanCache

        cache = PlanCache()
        run_sweep(
            models=["gat"],
            datasets=["cora"],
            strategies=["ours"],
            schedule=[None, "memory"],
            feature_dim=16,
            cache=cache,
        )
        # Each (strategy, schedule) combination is a distinct plan-cache
        # entry resolved by exactly one get_or_compile call.
        assert cache.misses == 2 and cache.hits == 0

    def test_single_mode_shorthand(self):
        sweep = run_sweep(
            models=["gcn"],
            datasets=["cora"],
            strategies=["ours"],
            schedule="memory",
            feature_dim=16,
        )
        assert all(r.schedule == "memory" for r in sweep.rows)
        assert all(r.arena_bytes > 0 for r in sweep.rows)

    def test_schedule_composes_with_the_batch_axis(self):
        sweep = run_sweep(
            models=["sage"],
            datasets=["cora"],
            strategies=["ours"],
            schedule=[None, "memory"],
            batch_size=[None, 512],
            feature_dim=16,
        )
        # 2 schedules x 2 batch options.
        assert len(sweep.rows) == 4
        mb = [r for r in sweep.rows if r.batch_size is not None]
        assert all(r.schedule in (None, "memory") for r in mb)
