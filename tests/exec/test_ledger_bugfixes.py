"""Regression tests for the memory-ledger bugfix sweep.

Three latent bugs shared one theme — the ledger and the engine treated
view aliases and dead values inconsistently with the storage-root
semantics everything else assumes:

1. The engine's dead-value sweep popped a dead root but left view
   aliases of it in the value map; a NumPy view holds a base reference,
   so the storage survived the free.  Each kernel of a bound program
   now frees a precomputed slot list (``BoundKernel.frees``), every
   alias of a dead root in it.
2. ``ExecPlan._kernel_io`` counted VIEW nodes of *other* kernels as
   consumers, so a value whose only cross-kernel consumers are free
   aliases was classified as an escaping DRAM write.
3. ``ExecPlan.liveness`` left never-read module inputs at ``(-1, -1)``;
   the ``last == i`` free never fires for ``-1``, so unpinned dead
   inputs stayed resident for the whole phase.
"""

import numpy as np
import pytest

from repro.exec import Engine, plan_module
from repro.exec.analytic import analyze_plan
from repro.exec.plan import ExecPlan, Kernel
from repro.graph.generators import erdos_renyi
from repro.graph.stats import GraphStats
from repro.ir import Builder, Domain

GRAPH = erdos_renyi(50, 200, seed=5)
STATS = GraphStats.regular(100, 4)


# ----------------------------------------------------------------------
# 1. a kernel's frees take aliases together with their dead root
# ----------------------------------------------------------------------
class TestSweepFreesAliases:
    def _fused_view_module(self):
        # One fused kernel: y = exp(h); yv = view(y); z = exp(yv).
        # y is internal to the kernel, yv is a free alias of it.
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        y = b.apply("exp", h, name="y")
        yv = b.view(y, (2, 2), name="yv")
        z = b.apply("exp", yv, name="z")
        b.output(z)
        module = b.build()
        kernels = [
            Kernel(nodes=tuple(module.nodes), mapping="vertex", label="fused")
        ]
        return module, ExecPlan(module=module, kernels=kernels)

    @staticmethod
    def _freed(engine, plan):
        """Names kernel 0 of ``plan``'s bound program frees."""
        program = engine._program(plan)
        return {program.names[slot] for slot in program.kernels[0].frees}

    def test_alias_of_dead_internal_root_is_swept(self):
        module, plan = self._fused_view_module()
        assert "y" in plan.kernel_io(0).internal
        freed = self._freed(Engine(GRAPH, precision="float32"), plan)
        assert {"y", "yv"} <= freed, (
            f"alias entries keep the dead root's storage alive: {freed}"
        )
        assert "z" not in freed  # wanted values survive

    def test_no_reachable_array_for_a_freed_root(self):
        # End to end: after the kernel's epilogue, the base ndarray of
        # the dead root must be collectable (no slot references it).
        import weakref

        module, plan = self._fused_view_module()
        engine = Engine(GRAPH, precision="float32")
        env = {"h": np.ones((GRAPH.num_vertices, 4), dtype=np.float32)}
        run = engine._begin(plan, env)
        (kernel,) = run.program.kernels
        for step in kernel.steps:
            engine._run_step(run, step)
        ref = weakref.ref(run.values[run.program.slots["y"]])
        engine._end_kernel(run, kernel)
        assert ref() is None, "freed root still reachable through an alias"
        assert run.values[run.program.slots["z"]] is not None

    def test_wanted_alias_keeps_the_storage(self):
        # A kept alias must protect its base storage from the frees.
        module, plan_plain = self._fused_view_module()
        plan = ExecPlan(
            module=module, kernels=list(plan_plain.kernels), keep=frozenset({"yv"})
        )
        engine = Engine(GRAPH, precision="float32")
        assert "yv" not in self._freed(engine, plan)
        h = np.ones((GRAPH.num_vertices, 4), dtype=np.float32)
        result = engine.run_plan(plan, {"h": h})
        assert np.array_equal(result["yv"], np.exp(h).reshape(-1, 2, 2))


# ----------------------------------------------------------------------
# 2. free aliases in other kernels are not consumers
# ----------------------------------------------------------------------
class TestViewConsumersDoNotEscape:
    def _dead_alias_module(self):
        # y's only cross-kernel "consumer" is a view whose output no
        # computing node ever reads.
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        y = b.apply("exp", h, name="y")
        b.view(y, (2, 2), name="yv")
        out = b.apply("relu", h, name="out")
        b.output(out)
        return b.build()

    def test_dead_alias_does_not_force_a_write(self):
        module = self._dead_alias_module()
        plan = plan_module(module, mode="per_op")
        y_kernel = next(
            i for i, k in enumerate(plan.kernels)
            if "y" in k.nodes[0].outputs
        )
        io = plan.kernel_io(y_kernel)
        assert io.writes == (), "dead alias classified y as escaping"
        assert io.internal == ("y",)
        # And the ledger never carries it.
        assert "y" not in plan.liveness()

    def test_alias_read_by_a_computing_kernel_still_escapes(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        y = b.apply("exp", h, name="y")
        yv = b.view(y, (2, 2), name="yv")
        z = b.apply("relu", yv, name="z")
        b.output(z)
        module = b.build()
        plan = plan_module(module, mode="per_op")
        y_kernel = next(
            i for i, k in enumerate(plan.kernels)
            if "y" in k.nodes[0].outputs
        )
        assert "y" in plan.kernel_io(y_kernel).writes

    def test_corrected_io_counts_are_pinned(self):
        # The analytic kernel records after the fix: the y-kernel reads
        # one vertex tensor and writes nothing (y stays on chip).
        module = self._dead_alias_module()
        plan = plan_module(module, mode="per_op")
        y_kernel = next(
            i for i, k in enumerate(plan.kernels)
            if "y" in k.nodes[0].outputs
        )
        record = analyze_plan(plan, STATS).records[y_kernel]
        row_bytes = 4 * 4  # (4,) float32 per vertex
        assert record.read_bytes == STATS.num_vertices * row_bytes
        assert record.write_bytes == 0
        phase = analyze_plan(plan, STATS)
        # Phase totals: h read twice (y-kernel + out-kernel), out written.
        assert phase.read_bytes == 2 * STATS.num_vertices * row_bytes
        assert phase.write_bytes == STATS.num_vertices * row_bytes

    def test_in_kernel_alias_of_foreign_storage_is_a_read(self):
        # A view minted inside a kernel over another kernel's output
        # still stages that storage: the consuming kernel reads it.
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        y = b.apply("exp", h, name="y")
        yv = b.view(y, (2, 2), name="yv")
        z = b.apply("relu", yv, name="z")
        b.output(z)
        module = b.build()
        y_node = next(n for n in module.nodes if "y" in n.outputs)
        view_node = next(n for n in module.nodes if n.kind.value == "view")
        z_node = next(n for n in module.nodes if "z" in n.outputs)
        kernels = [
            Kernel(nodes=(y_node,), mapping="vertex", label="y"),
            Kernel(nodes=(view_node, z_node), mapping="vertex", label="vz"),
        ]
        plan = ExecPlan(module=module, kernels=kernels)
        assert plan.kernel_io(1).reads == ("yv",)
        assert "y" in plan.kernel_io(0).writes


# ----------------------------------------------------------------------
# 3. never-read inputs die at kernel 0
# ----------------------------------------------------------------------
class TestDeadInputLiveness:
    def _module_with_dead_input(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        b.input("unused", Domain.VERTEX, (64,))
        e = b.scatter("copy_u", u=h, name="e")
        v = b.gather("sum", e, name="v")
        b.output(v)
        return b.build()

    def test_never_read_input_is_freed_at_kernel_zero(self):
        module = self._module_with_dead_input()
        plan = plan_module(module, mode="per_op")
        assert plan.liveness()["unused"] == (-1, 0)

    def test_ledger_drops_the_dead_input(self):
        module = self._module_with_dead_input()
        plan = plan_module(module, mode="per_op")
        unused_bytes = module.specs["unused"].nbytes(
            STATS.num_vertices, STATS.num_edges
        )
        phase = analyze_plan(plan, STATS)
        # Freed after kernel 0: gone from the end-of-phase residency.
        assert phase.end_resident_bytes < unused_bytes
        pinned = analyze_plan(plan, STATS, pinned=["unused", "h"])
        assert pinned.end_resident_bytes >= unused_bytes

    def test_engine_sweeps_the_dead_input(self):
        module = self._module_with_dead_input()
        plan = plan_module(module, mode="per_op")
        engine = Engine(GRAPH, precision="float32")
        program = engine._program(plan)
        assert program.slots["unused"] in program.kernels[0].frees

    def test_write_only_outputs_survive_the_phase(self):
        # The flip side of the fix: a value *written* and never read —
        # a module output or stash entry — is protected to the end.
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        e = b.scatter("copy_u", u=h, name="e")
        v = b.gather("sum", e, name="v")
        w = b.apply("exp", v, name="w")
        b.output(w)
        module = b.build()
        plan = plan_module(module, mode="per_op", keep=["v"])
        lives = plan.liveness()
        n = len(plan.kernels)
        assert lives["w"][1] == n     # output: survives
        assert lives["v"][1] == n     # kept stash: survives
        phase = analyze_plan(plan, STATS)
        w_bytes = module.specs["w"].nbytes(STATS.num_vertices, STATS.num_edges)
        assert phase.end_resident_bytes >= w_bytes

    def test_kernel_less_plan_keeps_the_sentinel(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (4,))
        b.output(h)
        module = b.build()
        plan = ExecPlan(module=module, kernels=[])
        assert plan.liveness()["h"] == (-1, len(plan.kernels))
