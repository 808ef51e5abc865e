"""Unit + property tests for the NumPy kernel library.

Segment reductions are checked against an O(n·segments) reference on
randomised graphs (hypothesis); scatter/apply kernels against direct
NumPy expressions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.kernels import (
    align_trailing,
    apply_kernel,
    gather_kernel,
    param_grad_kernel,
    reduce_to_shape_array,
    scatter_kernel,
    segment_sum,
)
from repro.graph import Graph
from repro.graph.csr import incidence_operator

from tests.conftest import segment_reduce_reference


def random_graph(draw, max_v=12, max_e=40):
    n = draw(st.integers(min_value=1, max_value=max_v))
    m = draw(st.integers(min_value=0, max_value=max_e))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return Graph(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), n)


graph_strategy = st.builds(lambda d: d, st.data())


class TestAlignTrailing:
    def test_pads_right(self):
        a = np.zeros((5, 3))
        b = np.zeros((5,))
        pa, pb = align_trailing([a, b])
        assert pa.shape == (5, 3) and pb.shape == (5, 1)

    def test_noop_when_equal_rank(self):
        a, b = np.zeros((4, 2)), np.zeros((4, 2))
        pa, pb = align_trailing([a, b])
        assert pa.shape == pb.shape == (4, 2)

    def test_three_level(self):
        a = np.zeros((2, 3, 4))
        b = np.zeros((2, 3))
        c = np.zeros((2,))
        pa, pb, pc = align_trailing([a, b, c])
        assert pb.shape == (2, 3, 1) and pc.shape == (2, 1, 1)


class TestReduceToShape:
    def test_sums_surplus_axis(self):
        arr = np.arange(24, dtype=float).reshape(2, 3, 4)
        out = reduce_to_shape_array(arr, (3,))
        assert out.shape == (2, 3)
        assert np.allclose(out, arr.sum(axis=-1))

    def test_sums_broadcast_axis_keepdims(self):
        arr = np.ones((2, 3, 4))
        out = reduce_to_shape_array(arr, (1, 4))
        assert out.shape == (2, 1, 4)
        assert np.allclose(out, 3.0)

    def test_identity(self):
        arr = np.ones((2, 3))
        assert reduce_to_shape_array(arr, (3,)).shape == (2, 3)

    def test_rejects_impossible(self):
        with pytest.raises(ValueError):
            reduce_to_shape_array(np.ones((2, 3)), (4,))


class TestSegmentReduce:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sum_matches_reference(self, data):
        g = random_graph(data.draw)
        vals = data.draw(
            st.lists(
                st.floats(-5, 5, allow_nan=False),
                min_size=g.num_edges,
                max_size=g.num_edges,
            )
        )
        vals = np.array(vals, dtype=np.float64)
        out, _ = gather_kernel("sum", g, vals)
        ref = segment_reduce_reference(vals, g.dst, g.num_vertices, "sum")
        assert np.allclose(out, ref)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_max_matches_reference(self, data):
        g = random_graph(data.draw)
        vals = np.asarray(
            data.draw(
                st.lists(
                    st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                    min_size=g.num_edges,
                    max_size=g.num_edges,
                )
            ),
            dtype=np.float64,
        )
        out, _ = gather_kernel("max", g, vals)
        ref = segment_reduce_reference(vals, g.dst, g.num_vertices, "max")
        assert np.allclose(out, ref)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mean_matches_reference(self, data):
        g = random_graph(data.draw)
        vals = np.asarray(
            data.draw(
                st.lists(
                    st.floats(-5, 5, allow_nan=False),
                    min_size=g.num_edges,
                    max_size=g.num_edges,
                )
            ),
            dtype=np.float64,
        )
        out, _ = gather_kernel("mean", g, vals)
        ref = segment_reduce_reference(vals, g.dst, g.num_vertices, "mean")
        assert np.allclose(out, ref)

    def test_empty_segments_produce_zero(self, tiny_graph):
        vals = np.ones((6, 2))
        out, _ = gather_kernel("sum", tiny_graph, vals)
        assert (out[3] == 0).all()  # vertex 3 isolated

    def test_out_orientation_reduces_by_source(self, tiny_graph):
        vals = np.arange(6, dtype=np.float64)
        out, _ = gather_kernel("sum", tiny_graph, vals, orientation="out")
        ref = segment_reduce_reference(
            vals, tiny_graph.src, tiny_graph.num_vertices, "sum"
        )
        assert np.allclose(out, ref)

    def test_multifeature_reduction(self, tiny_graph):
        vals = np.random.default_rng(0).normal(size=(6, 2, 3))
        out, _ = gather_kernel("sum", tiny_graph, vals)
        ref = segment_reduce_reference(vals, tiny_graph.dst, 4, "sum")
        assert np.allclose(out, ref)

    def test_segment_sum_zero_edges(self):
        out = segment_sum(
            incidence_operator(np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64),
                               0, np.float64),
            np.zeros((0, 2)),
        )
        assert out.shape == (4, 2)
        assert (out == 0).all()


class TestArgmax:
    def test_argmax_recovers_max(self, small_graph, rng):
        vals = rng.normal(size=(small_graph.num_edges, 3))
        out, argmax = gather_kernel("max", small_graph, vals, want_argmax=True)
        mask = argmax >= 0
        rowsel = argmax[mask]
        # Value at the argmax edge equals the reduced max.
        cols = np.broadcast_to(np.arange(3), argmax.shape)[mask]
        assert np.allclose(vals[rowsel, cols], out[mask])

    def test_argmax_edge_has_right_destination(self, small_graph, rng):
        vals = rng.normal(size=(small_graph.num_edges,))
        _, argmax = gather_kernel("max", small_graph, vals, want_argmax=True)
        for v in range(small_graph.num_vertices):
            if argmax[v] >= 0:
                assert small_graph.dst[argmax[v]] == v

    def test_isolated_vertex_gets_minus_one(self, tiny_graph):
        vals = np.ones((6, 2))
        _, argmax = gather_kernel("max", tiny_graph, vals, want_argmax=True)
        assert (argmax[3] == -1).all()

    def test_ties_pick_first_in_csc_order(self):
        g = Graph(np.array([0, 1, 2]), np.array([3, 3, 3]), 4)
        vals = np.array([1.0, 1.0, 1.0])
        _, argmax = gather_kernel("max", g, vals, want_argmax=True)
        assert argmax[3] == 0


class TestScatter:
    def test_copy_u(self, tiny_graph, rng):
        x = rng.normal(size=(4, 3))
        out = scatter_kernel("copy_u", tiny_graph, [x])
        assert np.allclose(out, x[tiny_graph.src])

    def test_copy_v(self, tiny_graph, rng):
        x = rng.normal(size=(4, 3))
        out = scatter_kernel("copy_v", tiny_graph, [x])
        assert np.allclose(out, x[tiny_graph.dst])

    @pytest.mark.parametrize(
        "fn,op",
        [
            ("u_add_v", np.add),
            ("u_sub_v", np.subtract),
            ("u_mul_v", np.multiply),
        ],
    )
    def test_binary(self, tiny_graph, rng, fn, op):
        u = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        out = scatter_kernel(fn, tiny_graph, [u, v])
        assert np.allclose(out, op(u[tiny_graph.src], v[tiny_graph.dst]))

    def test_dot(self, tiny_graph, rng):
        u = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        out = scatter_kernel("u_dot_v", tiny_graph, [u, v])
        ref = (u[tiny_graph.src] * v[tiny_graph.dst]).sum(-1)
        assert out.shape == (6,)
        assert np.allclose(out, ref)

    def test_concat(self, tiny_graph, rng):
        u = rng.normal(size=(4, 2))
        v = rng.normal(size=(4, 3))
        out = scatter_kernel("u_concat_v", tiny_graph, [u, v])
        assert out.shape == (6, 5)
        assert np.allclose(out[:, :2], u[tiny_graph.src])
        assert np.allclose(out[:, 2:], v[tiny_graph.dst])

    def test_broadcast_scalar_times_vector(self, tiny_graph, rng):
        u = rng.normal(size=(4,))
        v = rng.normal(size=(4, 3))
        out = scatter_kernel("u_mul_v", tiny_graph, [u, v])
        ref = u[tiny_graph.src][:, None] * v[tiny_graph.dst]
        assert np.allclose(out, ref)

    def test_max_grad_routes_to_argmax(self, small_graph, rng):
        vals = rng.normal(size=(small_graph.num_edges, 2))
        out, argmax = gather_kernel("max", small_graph, vals, want_argmax=True)
        grad_v = rng.normal(size=out.shape)
        grad_e = scatter_kernel("max_grad", small_graph, [grad_v, argmax])
        assert grad_e.shape == vals.shape
        # Total gradient mass is conserved (isolated vertices excluded).
        connected = argmax >= 0
        assert np.allclose(
            grad_e.sum(axis=0), np.where(connected, grad_v, 0.0).sum(axis=0)
        )
        mask = argmax >= 0
        cols = np.broadcast_to(np.arange(2), argmax.shape)[mask]
        assert np.allclose(grad_e[argmax[mask], cols], grad_v[mask])
        # All other entries zero.
        total_nonzero = (grad_e != 0).sum()
        assert total_nonzero <= mask.sum()

    def test_unknown_scatter_raises(self, tiny_graph):
        with pytest.raises(KeyError):
            scatter_kernel("u_pow_v", tiny_graph, [np.zeros((4, 1))] * 2)


class TestApplyKernels:
    def test_unary_table(self, rng):
        x = rng.normal(size=(7, 4))
        cases = {
            "identity": x,
            "neg": -x,
            "relu": np.maximum(x, 0),
            "exp": np.exp(x),
            "tanh": np.tanh(x),
        }
        for fn, ref in cases.items():
            assert np.allclose(apply_kernel(fn, [x]), ref), fn

    def test_sigmoid_stable(self):
        x = np.array([[-1000.0], [0.0], [1000.0]])
        out = apply_kernel("sigmoid", [x])
        assert np.allclose(out, [[0.0], [0.5], [1.0]])

    def test_leaky_relu_slope(self):
        x = np.array([[-2.0, 3.0]])
        out = apply_kernel("leaky_relu", [x], attrs={"slope": 0.1})
        assert np.allclose(out, [[-0.2, 3.0]])

    def test_binary_broadcast(self, rng):
        a = rng.normal(size=(5, 2, 3))
        b = rng.normal(size=(5, 2))
        out = apply_kernel("mul", [a, b])
        assert np.allclose(out, a * b[..., None])

    def test_grad_helpers(self, rng):
        g = rng.normal(size=(6, 3))
        x = rng.normal(size=(6, 3))
        assert np.allclose(apply_kernel("relu_grad", [g, x]), g * (x > 0))
        out = apply_kernel("leaky_relu_grad", [g, x], attrs={"slope": 0.3})
        assert np.allclose(out, g * np.where(x > 0, 1.0, 0.3))
        y = apply_kernel("sigmoid", [x])
        assert np.allclose(apply_kernel("sigmoid_grad", [g, y]), g * y * (1 - y))
        t = np.tanh(x)
        assert np.allclose(apply_kernel("tanh_grad", [g, t]), g * (1 - t * t))

    def test_linear_and_grads(self, rng):
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 3))
        y = apply_kernel("linear", [x], [w])
        assert np.allclose(y, x @ w)
        g = rng.normal(size=(5, 3))
        assert np.allclose(apply_kernel("linear_grad_input", [g], [w]), g @ w.T)
        wg = param_grad_kernel("linear_wgrad", [x, g], [], {"out_shape": (4, 3)})
        assert np.allclose(wg, x.T @ g)

    def test_linear_multihead(self, rng):
        x = rng.normal(size=(5, 2, 4))
        w = rng.normal(size=(4, 3))
        assert np.allclose(apply_kernel("linear", [x], [w]), x @ w)

    def test_bias_add_and_grad(self, rng):
        x = rng.normal(size=(5, 2, 3))
        b = rng.normal(size=(2, 3))
        out = apply_kernel("bias_add", [x], [b])
        assert np.allclose(out, x + b)
        g = rng.normal(size=(5, 2, 3))
        bg = param_grad_kernel("bias_grad", [g], [], {"out_shape": (2, 3)})
        assert np.allclose(bg, g.sum(axis=0))

    def test_head_dot_and_grads(self, rng):
        x = rng.normal(size=(6, 2, 5))
        a = rng.normal(size=(2, 5))
        y = apply_kernel("head_dot", [x], [a])
        assert np.allclose(y, (x * a).sum(-1))
        g = rng.normal(size=(6, 2))
        gi = apply_kernel("head_dot_grad_input", [g], [a])
        assert np.allclose(gi, g[..., None] * a)
        wg = param_grad_kernel("head_dot_wgrad", [x, g], [], {"out_shape": (2, 5)})
        assert np.allclose(wg, np.einsum("nhf,nh->hf", x, g))

    def test_gaussian_formula(self, rng):
        m = rng.normal(size=(7, 2))
        mu = rng.normal(size=(3, 2))
        inv = rng.uniform(0.5, 2.0, size=(3, 2))
        w = apply_kernel("gaussian", [m], [mu, inv])
        d = (m[:, None, :] - mu[None]) * inv[None]
        ref = np.exp(-0.5 * (d ** 2).sum(-1))
        assert np.allclose(w, ref)

    def test_slice_and_pad_roundtrip(self, rng):
        x = rng.normal(size=(4, 6))
        sl = apply_kernel("slice_axis", [x], attrs={"axis": 0, "start": 2, "stop": 5})
        assert np.allclose(sl, x[:, 2:5])
        padded = apply_kernel(
            "pad_axis", [sl], attrs={"axis": 0, "start": 2, "stop": 5, "width": 6}
        )
        assert padded.shape == x.shape
        assert np.allclose(padded[:, 2:5], sl)
        assert np.allclose(padded[:, :2], 0)

    def test_slice_axis_param_style(self, rng):
        # PARAM-style array (1, rows, cols), slicing feature axis 0.
        w = rng.normal(size=(1, 8, 3))
        out = apply_kernel("slice_axis", [w], attrs={"axis": 0, "start": 0, "stop": 4})
        assert out.shape == (1, 4, 3)
        assert np.allclose(out, w[:, :4])

    def test_kernel_mean_roundtrip(self, rng):
        x = rng.normal(size=(5, 3, 4))
        out = apply_kernel("kernel_mean", [x])
        assert np.allclose(out, x.mean(axis=1))
        g = rng.normal(size=(5, 4))
        back = apply_kernel("kernel_mean_grad", [g], attrs={"num_kernels": 3})
        assert back.shape == (5, 3, 4)
        assert np.allclose(back, np.repeat(g[:, None] / 3, 3, axis=1))

    def test_clamp_min(self):
        x = np.array([[0.0, 2.0, -1.0]])
        assert np.allclose(
            apply_kernel("clamp_min", [x], attrs={"min": 1.0}), [[1, 2, 1]]
        )

    def test_reduce_to_shape_kernel(self, rng):
        x = rng.normal(size=(5, 2, 3))
        out = apply_kernel("reduce_to_shape", [x], attrs={"target_shape": (2,)})
        assert np.allclose(out, x.sum(-1))

    def test_unknown_apply_raises(self):
        with pytest.raises(KeyError):
            apply_kernel("softplus", [np.zeros((2, 2))])


class TestGaussianGrads:
    """Finite-difference validation of the Gaussian kernel gradients."""

    def _setup(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 2))
        mu = rng.normal(size=(3, 2))
        inv = rng.uniform(0.5, 1.5, size=(3, 2))
        g = rng.normal(size=(6, 3))
        return m, mu, inv, g

    def _loss(self, m, mu, inv, g):
        return float((apply_kernel("gaussian", [m], [mu, inv]) * g).sum())

    def test_input_grad(self):
        m, mu, inv, g = self._setup()
        w = apply_kernel("gaussian", [m], [mu, inv])
        got = apply_kernel("gaussian_grad_input", [g, m, w], [mu, inv])
        eps = 1e-6
        num = np.zeros_like(m)
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                mp, mm = m.copy(), m.copy()
                mp[i, j] += eps
                mm[i, j] -= eps
                num[i, j] = (
                    self._loss(mp, mu, inv, g) - self._loss(mm, mu, inv, g)
                ) / (2 * eps)
        assert np.allclose(got, num, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("which", ["mu", "sigma"])
    def test_param_grads(self, which):
        m, mu, inv, g = self._setup()
        w = apply_kernel("gaussian", [m], [mu, inv])
        got = param_grad_kernel(
            f"gaussian_{which}_grad", [m, w, g], [mu, inv], {"out_shape": (3, 2)}
        )
        eps = 1e-6
        target = mu if which == "mu" else inv
        num = np.zeros_like(target)
        for i in range(target.shape[0]):
            for j in range(target.shape[1]):
                tp, tm = target.copy(), target.copy()
                tp[i, j] += eps
                tm[i, j] -= eps
                if which == "mu":
                    num[i, j] = (
                        self._loss(m, tp, inv, g) - self._loss(m, tm, inv, g)
                    ) / (2 * eps)
                else:
                    num[i, j] = (
                        self._loss(m, mu, tp, g) - self._loss(m, mu, tm, g)
                    ) / (2 * eps)
        assert np.allclose(got, num, rtol=1e-5, atol=1e-7)
