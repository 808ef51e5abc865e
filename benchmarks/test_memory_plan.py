"""Arena memory planning.

Not a figure from the paper: §6 prices peak memory with a fresh-storage
liveness ledger and leaves buffer reuse, the lever that sets a
*deliverable* peak, unmodelled.  The memory-plan table prices every
registered model two ways (the ledger, best-fit arena packing) under
the full ``ours`` strategy (unified fusion + recomputation), in the
fusion order.

Qualitative shape asserted here:

- ``MemoryPlan.arena_bytes`` never exceeds the analytic ledger peak,
  and undercuts it strictly on at least 6 of the 8 models (in practice
  all 8: pinned inputs/parameters live outside the arena),
- on these rows the planned footprint (pinned + arena) equals the
  ledger peak within slab alignment; off them packing can fragment
  (``tests/exec/test_memory.py`` bounds it on every training strategy),
- slab reuse is an accounting transform: the fusion-order plan matches
  the per-op reference (``verify_plan``) and running it through its
  arena reproduces the fresh-storage outputs bit for bit.
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

    def test_planned_equals_the_ledger_within_slab_alignment(self, figure):
        # Each value live at the peak rounds up by under one alignment
        # unit (24 bytes at most on the zoo).
        from repro.exec.memory import ARENA_ALIGN

        for row in figure.normalized:
            gap = row["planned_peak_bytes"] - row["ledger_peak_bytes"]
            assert 0 <= gap < 8 * ARENA_ALIGN, (row["workload"], gap)

    def test_reuse_factor_at_least_one(self, figure):
        for row in figure.normalized:
            assert row["reuse_factor"] >= 1.0, row["workload"]


class TestArenaPlansPreserveValues:
    @pytest.mark.parametrize("name", sorted(MODELS.names()))
    def test_arena_run_reproduces_fresh_storage(self, name):
        from repro.exec import Engine, plan_memory
        from repro.exec.memory import StepMemoryPlan
        from repro.frameworks import compile_training, get_strategy
        from repro.graph.generators import erdos_renyi

        graph = erdos_renyi(120, 960, seed=7)
        compiled = compile_training(MODELS.get(name)(8, 3), get_strategy("ours"))
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(graph.num_vertices, 8))
        arrays = compiled.model.make_inputs(graph, feats)
        arrays.update(compiled.model.init_params(0))
        Engine(graph, precision="float64").verify_plan(compiled.fwd_plan, arrays)

        arena = StepMemoryPlan(
            forward=plan_memory(
                compiled.fwd_plan, graph.stats(), pinned=compiled.pinned
            )
        )
        outs = []
        for memory_plan in (None, arena):
            engine = Engine(graph, precision="float32", memory_plan=memory_plan)
            env = engine.bind(compiled.forward, arrays)
            outs.append(engine.run_plan(compiled.fwd_plan, env, unwrap=False))
        plain, packed = outs
        assert plain.keys() == packed.keys()
        for key in plain:
            assert np.array_equal(
                np.asarray(packed[key]), np.asarray(plain[key])
            ), f"{name}: arena run diverges on {key}"
