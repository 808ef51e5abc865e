"""Kernel regressions: empty segments, empty-edge graphs, dtype drift.

Backs the fuzz suites: ``segment_sum`` / ``segment_reduce`` / scatter /
gather kernels on
empty segments and empty-edge graphs must not warn or produce NaN, and
kernels must never silently change the array dtype (the NumPy-2
promotion regressions in ``scale`` / ``clamp_min`` /
``leaky_relu_grad``, where an ``np.float64`` scalar attr upcast a
float32 tensor and broke the declared-precision byte accounting).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.exec import Engine
from repro.exec.kernels import (
    apply_kernel,
    gather_kernel,
    scatter_kernel,
    segment_reduce,
    segment_sum,
)
from repro.frameworks import compile_training, get_strategy
from repro.graph import Graph
from repro.graph.csr import incidence_operator
from repro.registry import MODELS

from tests.helpers import reference_node

pytestmark = pytest.mark.filterwarnings("error")

EMPTY = Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5)
SINGLE = Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 1)
LOOPS = Graph(np.arange(3), np.arange(3), 4)  # + isolated vertex 3


def _segment_sum(values, indptr):
    """The sum of ``values``' rows per segment of ``indptr``, in row order."""
    n = values.shape[0]
    return segment_sum(incidence_operator(indptr, np.arange(n), n, values.dtype), values)


class TestSegmentReduceEmpty:
    def test_no_values_all_segments_empty(self):
        values = np.zeros((0, 3), dtype=np.float32)
        indptr = np.zeros(6, dtype=np.int64)
        for out in (_segment_sum(values, indptr),
                    segment_reduce(values, indptr, reduce="max", fill=0.0)):
            assert out.shape == (5, 3)
            assert np.isfinite(out).all() and (out == 0).all()

    def test_interleaved_and_trailing_empty_segments(self):
        values = np.array([[1.0], [2.0], [4.0]], dtype=np.float32)
        indptr = np.array([0, 1, 1, 3, 3, 3])
        total = _segment_sum(values, indptr)
        assert np.array_equal(total[:, 0], [1.0, 0.0, 6.0, 0.0, 0.0])
        mx = segment_reduce(values, indptr, reduce="max", fill=-np.inf)
        assert np.array_equal(mx[:, 0], [1.0, -np.inf, 4.0, -np.inf, -np.inf])

    def test_dtype_preserved(self):
        out = _segment_sum(np.zeros((0, 2), dtype=np.float32), np.zeros(3, dtype=np.int64))
        assert out.dtype == np.float32


class TestGatherScatterEmptyGraphs:
    @pytest.mark.parametrize("graph", [EMPTY, SINGLE, LOOPS])
    @pytest.mark.parametrize("reduce", ["sum", "mean", "max"])
    @pytest.mark.parametrize("orientation", ["in", "out"])
    def test_gather_finite_no_warn(self, graph, reduce, orientation):
        edge_values = np.ones((graph.num_edges, 2), dtype=np.float32)
        out, argmax = gather_kernel(
            reduce, graph, edge_values,
            orientation=orientation, want_argmax=(reduce == "max"),
        )
        assert out.shape == (graph.num_vertices, 2)
        assert out.dtype == np.float32
        assert np.isfinite(out).all()
        if reduce == "max":
            # Empty segments: value 0 by convention, argmax -1.
            empty = (
                np.diff(
                    graph.csc_indptr if orientation == "in" else graph.csr_indptr
                ) == 0
            )
            assert (out[empty] == 0).all()
            assert (argmax[empty] == -1).all()

    @pytest.mark.parametrize("graph", [EMPTY, SINGLE, LOOPS])
    @pytest.mark.parametrize(
        "fn", ["copy_u", "copy_v", "u_add_v", "u_mul_v", "u_dot_v"]
    )
    def test_scatter_empty_and_loops(self, graph, fn):
        u = np.ones((graph.num_vertices, 2), dtype=np.float32)
        inputs = [u] if fn in ("copy_u", "copy_v") else [u, u]
        out = scatter_kernel(fn, graph, inputs)
        assert out.shape[0] == graph.num_edges
        assert np.isfinite(out).all()

    def test_max_grad_all_empty_argmax(self):
        grad = np.ones((5, 2), dtype=np.float32)
        argmax = np.full((5, 2), -1, dtype=np.int64)
        out = scatter_kernel("max_grad", EMPTY, [grad, argmax])
        assert out.shape == (0, 2)


class TestDtypeStability:
    """Scalar attrs must not upcast tensors (NumPy 2 promotion)."""

    def test_scale_with_float64_scalar_attr(self):
        x = np.ones((4, 2), dtype=np.float32)
        out = apply_kernel("scale", [x], [], {"factor": np.float64(0.125)})
        assert out.dtype == np.float32

    def test_clamp_min_with_float64_scalar_attr(self):
        x = np.ones((4, 2), dtype=np.float32)
        out = apply_kernel("clamp_min", [x], [], {"min": np.float64(1e-10)})
        assert out.dtype == np.float32

    def test_leaky_relu_grad_stays_float32(self):
        g = np.ones((4, 2), dtype=np.float32)
        x = np.linspace(-1, 1, 8, dtype=np.float32).reshape(4, 2)
        out = apply_kernel("leaky_relu_grad", [g, x], [], {"slope": 0.2})
        assert out.dtype == np.float32

    def test_dotgat_plan_keeps_declared_precision(self):
        """Regression: dotgat's np.float64 scale factor used to upcast
        the whole attention tensor mid-plan under NumPy 2."""
        graph = LOOPS
        model = MODELS.get("dotgat")(4, 3)
        compiled = compile_training(model, get_strategy("ours"))
        engine = Engine(graph, precision="float32", free_dead_values=False)
        rng = np.random.default_rng(0)
        arrays = model.make_inputs(
            graph, rng.normal(size=(graph.num_vertices, 4))
        )
        arrays.update(model.init_params(0))
        env = engine.bind(compiled.forward, arrays)
        values = dict(env)
        for kernel in compiled.fwd_plan.kernels:
            for node in kernel.nodes:
                reference_node(
                    node, values, graph, compiled.fwd_plan.argmax_demand()
                )
        for name, arr in values.items():
            spec = compiled.forward.specs.get(name)
            if spec is not None and np.issubdtype(arr.dtype, np.floating):
                assert arr.dtype == np.float32, f"{name} upcast to {arr.dtype}"


class TestModelsOnDegenerateGraphs:
    @pytest.mark.parametrize("graph", [EMPTY, SINGLE, LOOPS])
    @pytest.mark.parametrize("model_name", ["gat", "gcn", "sage", "monet"])
    def test_training_step_finite(self, graph, model_name):
        from repro.train import Adam, Trainer

        model = MODELS.get(model_name)(4, 3)
        compiled = compile_training(model, get_strategy("ours"))
        trainer = Trainer(compiled, graph, precision="float32", seed=0)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(graph.num_vertices, 4))
        labels = np.zeros(graph.num_vertices, dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, _ = trainer.train_step(feats, labels, Adam(lr=0.01))
        assert np.isfinite(loss)
