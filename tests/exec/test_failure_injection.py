"""Failure-injection tests: non-finite localisation and robustness."""

import numpy as np
import pytest

from repro.exec import Engine, blocks, plan_module
from repro.ir import Builder, Domain


def div_module():
    b = Builder("m")
    a = b.input("a", Domain.VERTEX, (3,))
    c = b.input("c", Domain.VERTEX, (3,))
    out = b.apply("div", a, c, name="ratio")
    b.output(b.gather("sum", b.scatter("copy_u", u=out)))
    return b.build()


class TestCheckFinite:
    def test_localises_producing_node(self, tiny_graph, rng):
        m = div_module()
        eng = Engine(tiny_graph, precision="float64", check_finite=True)
        arrays = {
            "a": rng.normal(size=(4, 3)),
            "c": np.zeros((4, 3)),  # division by zero
        }
        with pytest.raises(FloatingPointError, match="'ratio'"):
            eng.run_plan(plan_module(m, mode="per_op"), eng.bind(m, arrays))

    def test_localises_a_node_inside_a_blocked_kernel(
        self, tiny_graph, rng, monkeypatch
    ):
        """The offending value is kernel-internal — the blocked walk
        never materialises it — yet the error still names its node."""
        b = Builder("m")
        x = b.input("x", Domain.VERTEX, (3,))
        w = b.input("w", Domain.EDGE, (3,))
        ratio = b.apply("div", b.scatter("copy_u", u=x), w, name="ratio")
        b.output(b.gather("sum", ratio))
        m = b.build()
        plan = plan_module(m, mode="unified")
        # One edge row per block: the 6-edge graph becomes a real walk.
        monkeypatch.setattr(blocks, "BLOCK_BYTES", 100)
        assert plan.blocked(0) is not None
        assert "ratio" in plan.kernel_io(0).internal
        w_arr = np.ones((6, 3))
        w_arr[4] = 0.0  # division by zero in one block only
        arrays = {"x": rng.normal(size=(4, 3)), "w": w_arr}
        eng = Engine(tiny_graph, precision="float64", check_finite=True)
        with pytest.raises(
            FloatingPointError, match=r"\([1-9]\d* entries\) produced by node 'ratio'"
        ):
            eng.run_plan(plan, eng.bind(m, arrays))
        # The same plan without the check runs through, NaN and all.
        res = Engine(tiny_graph, precision="float64").run_plan(
            plan, eng.bind(m, arrays)
        )
        assert not np.isfinite(res[m.outputs[0]]).all()

    def test_disabled_by_default(self, tiny_graph, rng):
        m = div_module()
        eng = Engine(tiny_graph, precision="float64")
        arrays = {"a": rng.normal(size=(4, 3)), "c": np.zeros((4, 3))}
        res = eng.run_plan(plan_module(m, mode="per_op"), eng.bind(m, arrays))
        assert not np.isfinite(res[m.outputs[0]]).all()

    def test_clean_run_unaffected(self, tiny_graph, rng):
        m = div_module()
        eng = Engine(tiny_graph, precision="float64", check_finite=True)
        arrays = {
            "a": rng.normal(size=(4, 3)),
            "c": np.ones((4, 3)),
        }
        res = eng.run_plan(plan_module(m, mode="per_op"), eng.bind(m, arrays))
        assert np.isfinite(res[m.outputs[0]]).all()

    def test_nan_in_exp_overflow_detected(self, tiny_graph):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (2,))
        e = b.apply("exp", h, name="boom")
        b.output(e)
        m = b.build()
        eng = Engine(tiny_graph, precision="float32", check_finite=True)
        arrays = {"h": np.full((4, 2), 1e9, dtype=np.float32)}
        with pytest.raises(FloatingPointError, match="'boom'"):
            eng.run_plan(plan_module(m, mode="per_op"), eng.bind(m, arrays))

    def test_integer_outputs_ignored(self, tiny_graph, rng):
        # Argmax outputs are int64; the checker must not choke on them.
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (2,))
        e = b.scatter("copy_u", u=h)
        val, idx = b.gather("max", e, name="mx")
        b.output(val)
        m = b.build()
        eng = Engine(tiny_graph, precision="float64", check_finite=True)
        plan = plan_module(m, mode="per_op", keep=[idx.name])
        res = eng.run_plan(plan, eng.bind(m, {"h": rng.normal(size=(4, 2))}))
        assert res["mx.aux1"].dtype == np.int64
