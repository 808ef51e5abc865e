"""Tests for the concrete engine: binding, execution, sweeping."""

import numpy as np
import pytest

from repro.exec import Engine, plan_module
from repro.ir import Builder, Domain


def chain_module():
    b = Builder("m")
    h = b.input("h", Domain.VERTEX, (4,))
    w = b.param("w", (4, 3))
    y = b.apply("linear", h, params=[w], name="y")
    e = b.scatter("copy_u", u=y, name="e")
    out = b.gather("sum", e, name="out")
    b.output(out)
    return b.build()


class TestBind:
    def test_missing_input(self, tiny_graph):
        m = chain_module()
        with pytest.raises(KeyError, match="missing array"):
            Engine(tiny_graph).bind(m, {"h": np.zeros((4, 4))})

    def test_shape_validation(self, tiny_graph):
        m = chain_module()
        eng = Engine(tiny_graph)
        with pytest.raises(ValueError, match="expected shape"):
            eng.bind(m, {"h": np.zeros((5, 4)), "w": np.zeros((4, 3))})
        with pytest.raises(ValueError, match="expected shape"):
            eng.bind(m, {"h": np.zeros((4, 4)), "w": np.zeros((3, 3))})

    def test_param_wrapping(self, tiny_graph):
        m = chain_module()
        eng = Engine(tiny_graph)
        env = eng.bind(m, {"h": np.zeros((4, 4)), "w": np.zeros((4, 3))})
        assert env["w"].shape == (1, 4, 3)

    def test_precision_cast(self, tiny_graph):
        m = chain_module()
        eng = Engine(tiny_graph, precision="float32")
        env = eng.bind(
            m,
            {"h": np.zeros((4, 4), dtype=np.float64), "w": np.zeros((4, 3))},
        )
        assert env["h"].dtype == np.float32

    def test_graph_constants_supplied(self, tiny_graph):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, ())
        deg = b.graph_constant("in_degrees")
        out = b.apply("add", h, deg)
        b.output(out)
        m = b.build()
        eng = Engine(tiny_graph, precision="float64")
        env = eng.bind(m, {"h": np.zeros(4)})
        assert np.allclose(env["g_in_degrees"], tiny_graph.in_degrees)


class TestRun:
    def test_simple_chain(self, tiny_graph, rng):
        m = chain_module()
        eng = Engine(tiny_graph, precision="float64")
        arrays = {"h": rng.normal(size=(4, 4)), "w": rng.normal(size=(4, 3))}
        plan = plan_module(m, mode="per_op")
        res = eng.run_plan(plan, eng.bind(m, arrays))
        y = arrays["h"] @ arrays["w"]
        expected = np.zeros((4, 3))
        for s, d in zip(tiny_graph.src, tiny_graph.dst):
            expected[d] += y[s]
        assert np.allclose(res["out"], expected)

    def test_fusion_equivalence(self, small_graph, rng):
        m = chain_module()
        eng = Engine(small_graph, precision="float64")
        arrays = {"h": rng.normal(size=(60, 4)), "w": rng.normal(size=(4, 3))}
        ref = eng.run_plan(plan_module(m, mode="per_op"), eng.bind(m, arrays))
        fused = eng.run_plan(plan_module(m, mode="unified"), eng.bind(m, arrays))
        assert np.allclose(ref["out"], fused["out"])

    def test_keep_values_returned(self, tiny_graph, rng):
        m = chain_module()
        eng = Engine(tiny_graph, precision="float64")
        arrays = {"h": rng.normal(size=(4, 4)), "w": rng.normal(size=(4, 3))}
        plan = plan_module(m, mode="per_op", keep=["y"])
        res = eng.run_plan(plan, eng.bind(m, arrays))
        assert "y" in res
        assert np.allclose(res["y"], arrays["h"] @ arrays["w"])

    def test_result_order_outputs_then_definition_order(self, tiny_graph, rng):
        """Regression: results were assembled by iterating a ``set``, so
        ``list(result)`` changed with ``PYTHONHASHSEED``."""
        m = chain_module()
        eng = Engine(tiny_graph, precision="float64")
        arrays = {"h": rng.normal(size=(4, 4)), "w": rng.normal(size=(4, 3))}
        plan = plan_module(m, mode="per_op", keep=["e", "out", "w", "y", "h"])
        res = eng.run_plan(plan, eng.bind(m, arrays))
        assert list(res) == ["out", "h", "w", "y", "e"]

    def test_sweep_does_not_break_results(self, small_graph, rng):
        m = chain_module()
        arrays = {"h": rng.normal(size=(60, 4)), "w": rng.normal(size=(4, 3))}
        on = Engine(small_graph, precision="float64", free_dead_values=True)
        off = Engine(small_graph, precision="float64", free_dead_values=False)
        plan = plan_module(m, mode="unified")
        a = on.run_plan(plan, on.bind(m, arrays))
        b = off.run_plan(plan, off.bind(m, arrays))
        assert np.allclose(a["out"], b["out"])

    def test_argmax_skipped_when_unused(self, tiny_graph, rng):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (3,))
        e = b.scatter("copy_u", u=h)
        val, idx = b.gather("max", e, name="mx")
        b.output(val)
        m = b.build()
        eng = Engine(tiny_graph, precision="float64", free_dead_values=False)
        plan = plan_module(m, mode="per_op")
        res = eng.run_plan(plan, eng.bind(m, {"h": rng.normal(size=(4, 3))}))
        assert "mx" in res
        assert "mx.aux1" not in res

    def test_argmax_computed_when_kept(self, tiny_graph, rng):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (3,))
        e = b.scatter("copy_u", u=h)
        val, idx = b.gather("max", e, name="mx")
        b.output(val)
        m = b.build()
        eng = Engine(tiny_graph, precision="float64")
        plan = plan_module(m, mode="per_op", keep=[idx.name])
        res = eng.run_plan(plan, eng.bind(m, {"h": rng.normal(size=(4, 3))}))
        assert res["mx.aux1"].dtype == np.int64

    def test_verify_plan_accepts_equivalent(self, small_graph, rng):
        m = chain_module()
        eng = Engine(small_graph, precision="float64")
        arrays = {"h": rng.normal(size=(60, 4)), "w": rng.normal(size=(4, 3))}
        eng.verify_plan(plan_module(m, mode="unified"), arrays)

    def test_verify_plan_rejects_divergence(self, small_graph, rng):
        # A plan whose kernels disagree with the module (a scatter with
        # the wrong function) must be caught by verification.
        import dataclasses

        from repro.exec.plan import ExecPlan, Kernel

        m = chain_module()
        plan = plan_module(m, mode="per_op")
        kernels = []
        for kernel in plan.kernels:
            node = kernel.nodes[0]
            if node.fn == "copy_u":
                node = dataclasses.replace(node, fn="copy_v")
                kernel = Kernel(
                    nodes=(node,), mapping=kernel.mapping, label=kernel.label
                )
            kernels.append(kernel)
        tampered = ExecPlan(module=m, kernels=kernels, keep=plan.keep)
        eng = Engine(small_graph, precision="float64")
        arrays = {"h": rng.normal(size=(60, 4)), "w": rng.normal(size=(4, 3))}
        with pytest.raises(AssertionError, match="diverges"):
            eng.verify_plan(tampered, arrays)

    def test_unwrap_param_grads(self, tiny_graph, rng):
        # PARAM-domain outputs come back in natural shape.
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (3,))
        g = b.input("g", Domain.VERTEX, (2,))
        pg = b.param_grad("linear_wgrad", h, g, out_shape=(3, 2))
        b.output(pg)
        m = b.build()
        eng = Engine(tiny_graph, precision="float64")
        arrays = {"h": rng.normal(size=(4, 3)), "g": rng.normal(size=(4, 2))}
        res = eng.run_plan(plan_module(m, mode="per_op"), eng.bind(m, arrays))
        assert res[pg.name].shape == (3, 2)
        assert np.allclose(res[pg.name], arrays["h"].T @ arrays["g"])
