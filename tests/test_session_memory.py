"""Session-level memory planning: the ``memory_plan()`` terminal, and
the one peak the counters and the cost model price."""

from dataclasses import replace

import pytest

import repro
from repro.exec.memory import StepMemoryPlan
from repro.gpu.cost_model import CostModel, SimulatedOOM
from repro.gpu.spec import RTX3090


def memory_session():
    return repro.session().model("gat").dataset("cora").strategy("ours")


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
        assert sess.memory_plan().arena_bytes < sess.counters().peak_memory_bytes

    def test_counters_carry_each_phase_ledger_peak(self):
        sess = memory_session()
        counters, smp = sess.counters(), sess.memory_plan()
        assert counters.forward.peak_memory_bytes == smp.forward.ledger_peak_bytes
        assert counters.backward.peak_memory_bytes == smp.backward.ledger_peak_bytes
        assert counters.peak_memory_bytes == smp.ledger_peak_bytes


class TestCostModelMemory:
    def test_fits_reads_the_ledger_peak(self):
        # A device fits the run exactly when it holds the ledger peak.
        counters = memory_session().counters()
        ledger = counters.peak_memory_bytes
        at = replace(RTX3090, name="at", dram_gb=ledger / 2**30)
        under = replace(RTX3090, name="under", dram_gb=(ledger - 1) / 2**30)
        assert CostModel(at).fits(counters)
        CostModel(at).check_memory(counters)
        assert not CostModel(under).fits(counters)
        with pytest.raises(SimulatedOOM):
            CostModel(under).check_memory(counters)
