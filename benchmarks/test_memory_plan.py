"""Arena memory planning — the peak-aware scheduling extension.

Not a figure from the paper: §6 prices peak memory with a fresh-storage
liveness ledger, leaving the two levers that set a *deliverable* peak —
kernel order and buffer reuse — unmodelled.  The memory-plan table
prices every registered model three ways (ledger as fused, ledger after
``schedule_memory`` reordering, best-fit arena packing) under the full
``ours`` strategy (unified fusion + recomputation).

Qualitative shape asserted here (the PR's acceptance contract):

- ``MemoryPlan.arena_bytes`` never exceeds the analytic ledger peak,
  and undercuts it strictly on at least 6 of the 8 models (in practice
  all 8: pinned inputs/parameters live outside the arena),
- the ``schedule_memory`` pass never makes the ledger peak worse,
- reordering and slab reuse are accounting transforms: a scheduled
  plan's values match the per-op reference bit for bit
  (``verify_plan``) and the arena execution reproduces the plain
  engine's outputs exactly.
"""

import numpy as np
import pytest

from repro.registry import MODELS


@pytest.fixture(scope="module")
def figure(figures):
    return figures["fig_memory_plan"]


class TestMemoryPlanFigure:
    def test_covers_the_model_zoo(self, figure):
        assert [r["workload"] for r in figure.normalized] == sorted(
            MODELS.names()
        )

    def test_arena_below_ledger_peak_everywhere(self, figure):
        for row in figure.normalized:
            assert row["arena_bytes"] <= row["ledger_peak_bytes"], (
                f"{row['workload']}: arena {row['arena_bytes']} exceeds "
                f"ledger peak {row['ledger_peak_bytes']}"
            )

    def test_strict_reduction_on_most_models(self, figure):
        strict = [
            r["workload"]
            for r in figure.normalized
            if r["arena_bytes"] < r["ledger_peak_bytes"]
        ]
        assert len(strict) >= 6, (
            f"arena strictly below the ledger peak on only {strict}"
        )

    def test_scheduling_never_worsens_the_ledger(self, figure):
        for row in figure.normalized:
            assert row["sched_peak_bytes"] <= row["ledger_peak_bytes"], (
                row["workload"]
            )

    def test_reuse_factor_at_least_one(self, figure):
        for row in figure.normalized:
            assert row["reuse_factor"] >= 1.0, row["workload"]


class TestScheduledPlansPreserveValues:
    @pytest.mark.parametrize("name", sorted(MODELS.names()))
    def test_verify_plan_on_memory_scheduled_plans(self, name):
        # Reordering + arena reuse never change values: the scheduled
        # forward plan must reproduce the per-op reference bit for bit
        # on a concrete graph.
        from repro.exec import Engine
        from repro.frameworks import compile_training, get_strategy
        from repro.graph.generators import erdos_renyi
        from repro.opt.schedule import with_memory_schedule

        graph = erdos_renyi(120, 960, seed=7)
        model = MODELS.get(name)(8, 3)
        compiled = compile_training(
            model, with_memory_schedule(get_strategy("ours"))
        )
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(graph.num_vertices, 8))
        arrays = compiled.model.make_inputs(graph, feats)
        arrays.update(compiled.model.init_params(0))
        Engine(graph, precision="float64").verify_plan(
            compiled.fwd_plan, arrays
        )
