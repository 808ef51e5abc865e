"""Kernel-layer contracts, swept over *every* registered kernel.

Two regressions motivated this file (and the fixes it pins):

- **Aliasing** — ``apply_kernel("identity", [x])`` returned ``x``
  itself, and the view/slice/reduce kernels could return NumPy views of
  their input.  Under arena slab reuse (PR 4) the engine may overwrite
  an input's storage once it is dead, silently corrupting any output
  that aliased it.  The contract: no kernel output ever shares memory
  with a kernel input (the engine-level ``OpKind.VIEW`` alias is the
  one sanctioned exception, and it never dispatches through a kernel).
- **Dtype drift** — ``leaky_relu`` multiplied by a Python/np.float64
  slope, upcasting float32 activations under NumPy 2 promotion rules
  and desynchronising real array bytes from the declared-precision
  accounting.  The contract: float32 in → float32 out, for every
  kernel, even when attrs carry ``np.float64`` scalars (the worst case:
  that is what JSON/config deserialization produces).

The sweep is registry-driven: it enumerates ``registered_functions`` so
a newly registered kernel is covered automatically — adding a kernel
without adding a case here fails loudly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.exec import blocks
from repro.exec.kernels import (
    PRODUCT_ROWS,
    apply_kernel,
    gather_kernel,
    param_grad_kernel,
    registered_functions,
    scatter_kernel,
    tiled_matmul,
    writes_out,
)
from repro.exec.memory import ArenaPool
from repro.graph import Graph
from repro.registry import MODELS

N = 6          # vertex rows
F = 4          # feature width
H, K, D = 2, 2, 3  # heads / gaussian kernels / pseudo-coord dim


@pytest.fixture
def graph() -> Graph:
    """Self-loop, parallel edges, and an isolated vertex."""
    src = np.array([0, 0, 1, 2, 2, 0])
    dst = np.array([1, 2, 2, 0, 2, 1])
    return Graph(src, dst, N)


def _f64(value: float):
    # The hostile attr form: a NumPy double scalar, as config/JSON
    # loaders produce.  Kernels must not let it upcast float32 data.
    return np.float64(value)


def _apply_cases(rng: np.random.Generator, dtype, n: int = N, f: int = F):
    """(inputs, params, attrs) per registered apply fn, on ``n`` rows of
    width ``f``."""
    x = rng.normal(size=(n, f)).astype(dtype)
    y = rng.normal(size=(n, f)).astype(dtype) + dtype(2.0)
    g = rng.normal(size=(n, f)).astype(dtype)
    x3 = rng.normal(size=(n, H, f)).astype(dtype)
    gh = rng.normal(size=(n, H)).astype(dtype)
    m = rng.normal(size=(n, D)).astype(dtype)
    w = rng.normal(size=(n, K)).astype(dtype)
    mu = rng.normal(size=(K, D)).astype(dtype)
    inv_sigma = (rng.uniform(0.5, 2.0, size=(K, D))).astype(dtype)
    lin_w = rng.normal(size=(f, 3)).astype(dtype)
    bias = rng.normal(size=(f,)).astype(dtype)
    att = rng.normal(size=(H, f)).astype(dtype)
    g3 = rng.normal(size=(n, 3)).astype(dtype)
    return {
        "identity": ([x], [], {}),
        "neg": ([x], [], {}),
        "scale": ([x], [], {"factor": _f64(1.5)}),
        "relu": ([x], [], {}),
        "leaky_relu": ([x], [], {"slope": _f64(0.2)}),
        "exp": ([x], [], {}),
        "sigmoid": ([x], [], {}),
        "tanh": ([x], [], {}),
        "add": ([x, y], [], {}),
        "sub": ([x, y], [], {}),
        "mul": ([x, y], [], {}),
        "div": ([x, y], [], {}),
        "relu_grad": ([g, x], [], {}),
        "leaky_relu_grad": ([g, x], [], {"slope": _f64(0.2)}),
        "sigmoid_grad": ([g, x], [], {}),
        "tanh_grad": ([g, x], [], {}),
        "clamp_min": ([x], [], {"min": _f64(1e-6)}),
        # Degenerate shapes on purpose: same-shape view, full-span
        # slice, and identity reduce are exactly the cases where NumPy
        # hands back the input array (the aliasing regression).
        "view": ([x], [], {"out_shape": (f,)}),
        "slice_axis": ([x], [], {"axis": -1, "start": 0, "stop": f}),
        "pad_axis": (
            [x], [], {"axis": -1, "width": f, "start": 0, "stop": f}
        ),
        "reduce_to_shape": ([x], [], {"target_shape": (f,)}),
        "linear": ([x], [lin_w], {}),
        "linear_grad_input": ([g3], [lin_w], {}),
        "bias_add": ([x], [bias], {}),
        "param_scale": ([x], [bias], {}),
        "head_dot": ([x3], [att], {}),
        "head_dot_grad_input": ([gh], [att], {}),
        "gaussian": ([m], [mu, inv_sigma], {}),
        "gaussian_grad_input": ([gh, m, w], [mu, inv_sigma], {}),
        "kernel_mean": ([w], [], {}),
        "kernel_mean_grad": ([x[:, 0]], [], {"num_kernels": K}),
    }


def _scatter_cases(graph: Graph, rng: np.random.Generator, dtype, f: int = F):
    """(inputs,) per registered scatter fn, on rows of width ``f``."""
    n = graph.num_vertices
    u = rng.normal(size=(n, f)).astype(dtype)
    v = rng.normal(size=(n, f)).astype(dtype)
    grad = rng.normal(size=(n, f)).astype(dtype)
    edge = rng.normal(size=(graph.num_edges, f)).astype(dtype)
    _, argmax = gather_kernel("max", graph, edge, want_argmax=True)
    return {
        "copy_u": [u],
        "copy_v": [v],
        "u_add_v": [u, v],
        "u_sub_v": [u, v],
        "u_mul_v": [u, v],
        "u_dot_v": [u, v],
        "u_concat_v": [u, v],
        "max_grad": [grad, argmax],
    }


def _param_grad_cases(rng: np.random.Generator, dtype):
    """(inputs, params, attrs) per registered param_grad fn."""
    x = rng.normal(size=(N, F)).astype(dtype)
    g3 = rng.normal(size=(N, 3)).astype(dtype)
    x3 = rng.normal(size=(N, H, F)).astype(dtype)
    gh = rng.normal(size=(N, H)).astype(dtype)
    m = rng.normal(size=(N, D)).astype(dtype)
    w = rng.normal(size=(N, K)).astype(dtype)
    gk = rng.normal(size=(N, K)).astype(dtype)
    mu = rng.normal(size=(K, D)).astype(dtype)
    inv_sigma = rng.uniform(0.5, 2.0, size=(K, D)).astype(dtype)
    return {
        "linear_wgrad": ([x, g3], [], {"out_shape": (F, 3)}),
        "param_scale_wgrad": ([x, x], [], {}),
        "bias_grad": ([x], [], {"out_shape": (F,)}),
        "head_dot_wgrad": ([x3, gh], [], {}),
        "gaussian_mu_grad": ([m, w, gk], [mu, inv_sigma], {}),
        "gaussian_sigma_grad": ([m, w, gk], [mu, inv_sigma], {}),
    }


def _assert_no_alias(fn: str, out, arrays) -> None:
    for i, arr in enumerate(arrays):
        assert not np.shares_memory(out, arr), (
            f"{fn}: output aliases argument {i} — corruption hazard "
            "under arena slab reuse"
        )


class TestCaseCoverage:
    """Every registered kernel has a case; the sweep cannot go stale."""

    def test_apply_catalogue_complete(self, rng):
        cases = _apply_cases(rng, np.float32)
        assert set(registered_functions("apply")) == set(cases)

    def test_scatter_catalogue_complete(self, graph, rng):
        cases = _scatter_cases(graph, rng, np.float32)
        assert set(registered_functions("scatter")) == set(cases)

    def test_param_grad_catalogue_complete(self, rng):
        cases = _param_grad_cases(rng, np.float32)
        assert set(registered_functions("param_grad")) == set(cases)

    def test_gather_catalogue(self):
        assert set(registered_functions("gather")) == {"sum", "mean", "max"}


class TestNoAliasing:
    """No kernel output shares memory with any of its inputs.

    Swept per storage dtype: a cast with ``copy=False`` (to the
    accumulator and back) hands back its input exactly when the dtype
    already matches, so each dtype takes its own path."""

    DTYPES = (np.float16, np.float32, np.float64)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_apply_kernels(self, rng, dtype):
        for fn, (inputs, params, attrs) in _apply_cases(
            rng, dtype
        ).items():
            out = apply_kernel(fn, inputs, params, attrs)
            _assert_no_alias(f"apply:{fn}", out, inputs + params)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_scatter_kernels(self, graph, rng, dtype):
        for fn, inputs in _scatter_cases(graph, rng, dtype).items():
            out = scatter_kernel(fn, graph, inputs)
            _assert_no_alias(f"scatter:{fn}", out, inputs)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_gather_kernels(self, graph, rng, dtype):
        edge = rng.normal(size=(graph.num_edges, F)).astype(dtype)
        for fn in registered_functions("gather"):
            for orientation in ("in", "out"):
                out, _ = gather_kernel(fn, graph, edge, orientation=orientation)
                _assert_no_alias(f"gather:{fn}:{orientation}", out, [edge])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_param_grad_kernels(self, rng, dtype):
        for fn, (inputs, params, attrs) in _param_grad_cases(
            rng, dtype
        ).items():
            out = param_grad_kernel(fn, inputs, params, attrs)
            _assert_no_alias(f"param_grad:{fn}", out, inputs + params)

    def test_identity_regression(self, rng):
        # The original bug, pinned directly: identity returned its
        # input array object.
        x = rng.normal(size=(N, F))
        out = apply_kernel("identity", [x])
        assert out is not x and not np.shares_memory(out, x)
        np.testing.assert_array_equal(out, x)


class TestDtypePreservation:
    """Storage dtype in → same dtype out, even with float64 scalar attrs.

    Swept at float32 AND float16: mixed-precision execution stores
    activations in half floats, and segment reductions / weight-gradient
    row reductions accumulate in float32 internally — the contract is
    that the *visible* output dtype still matches the input storage
    dtype (the fp32 accumulator never leaks out).  bfloat16 needs no
    kernel-level sweep: it is a logical dtype the engine materialises as
    float32, so kernels only ever see float32 arrays for it.  float64
    (``Engine(precision="float64")``) is swept too: it must pass
    through, not be cast down to a half or single accumulator.
    """

    DTYPES = (np.float32, np.float16)
    SWEPT = DTYPES + (np.float64,)

    @pytest.mark.parametrize("dtype", SWEPT)
    def test_apply_kernels(self, rng, dtype):
        for fn, (inputs, params, attrs) in _apply_cases(rng, dtype).items():
            out = apply_kernel(fn, inputs, params, attrs)
            assert out.dtype == dtype, (
                f"apply:{fn} upcast {dtype} to {out.dtype}"
            )

    @pytest.mark.parametrize("dtype", SWEPT)
    def test_scatter_kernels(self, graph, rng, dtype):
        for fn, inputs in _scatter_cases(graph, rng, dtype).items():
            out = scatter_kernel(fn, graph, inputs)
            assert out.dtype == dtype, (
                f"scatter:{fn} upcast {dtype} to {out.dtype}"
            )

    @pytest.mark.parametrize("dtype", SWEPT)
    def test_gather_kernels(self, graph, rng, dtype):
        edge = rng.normal(size=(graph.num_edges, F)).astype(dtype)
        for fn in registered_functions("gather"):
            for orientation in ("in", "out"):
                for want_argmax in (False, fn == "max"):
                    out, argmax = gather_kernel(
                        fn, graph, edge,
                        orientation=orientation, want_argmax=want_argmax,
                    )
                    assert out.dtype == dtype, (
                        f"gather:{fn} upcast {dtype} to {out.dtype}"
                    )
                    if want_argmax:
                        assert argmax is not None
                        assert np.issubdtype(argmax.dtype, np.integer)

    @pytest.mark.parametrize("dtype", SWEPT)
    def test_param_grad_kernels(self, rng, dtype):
        for fn, (inputs, params, attrs) in _param_grad_cases(
            rng, dtype
        ).items():
            out = param_grad_kernel(fn, inputs, params, attrs)
            assert out.dtype == dtype, (
                f"param_grad:{fn} upcast {dtype} to {out.dtype}"
            )

    def test_leaky_relu_regression(self):
        # The original bug, pinned directly: a float64 slope attr
        # upcast the whole activation tensor.
        x = np.array([[-2.0, 3.0]], dtype=np.float32)
        out = apply_kernel(
            "leaky_relu", [x], attrs={"slope": np.float64(0.1)}
        )
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, np.array([[-0.2, 3.0]], dtype=np.float32), rtol=1e-6
        )

    def test_float64_passes_through(self, rng):
        # The sweep must not have been made to pass by force-casting
        # everything down: float64 inputs stay float64.
        for fn, (inputs, params, attrs) in _apply_cases(
            rng, np.float64
        ).items():
            assert apply_kernel(fn, inputs, params, attrs).dtype == np.float64


# ----------------------------------------------------------------------
# Row independence: what lets an engine compute only the rows it needs
# ----------------------------------------------------------------------
#: The dense products: row-stable on prefixes, not on any subset.
PRODUCTS = ("linear", "linear_grad_input")


class TestRowIndependence:
    """Every apply kernel gives a prefix of the rows the bytes it gives
    them on the whole array: ``k(x[:m])`` equals ``k(x)[:m]`` by
    ``tobytes()``, the empty prefix and single rows included.  A serving
    run that computes a ring of the field (``Engine.run_plan(distance=)``)
    trusts exactly this.  Every kernel but the dense products
    (``PRODUCTS``) also does it for any subset of rows in any order.
    The products get prefix stability by tiling
    (:func:`~repro.exec.kernels.tiled_matmul`): a row keeps its bits at
    its place in its tile, so subsets and permutations, which move it,
    are not promised (float64 with 500 output columns is a measured
    counterexample); the row counts here cross several tiles.
    """

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_row_subsets(self, dtype):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        kernels = registered_functions("apply")

        @st.composite
        def cases(draw):
            n = draw(st.integers(1, 150))
            rows = draw(st.one_of(
                st.just([]),
                st.integers(0, n - 1).map(lambda i: [i]),
                st.lists(st.integers(0, n - 1), max_size=n, unique=True).map(sorted),
                st.lists(st.integers(0, n - 1), max_size=n, unique=True),
                st.permutations(range(n)),
            ))
            return n, np.asarray(rows, dtype=np.int64), draw(st.integers(0, n))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            case=cases(), f=st.integers(1, 9), seed=st.integers(0, 2 ** 31)
        )
        def check(case, f, seed):
            n, subset, m = case
            catalogue = _apply_cases(np.random.default_rng(seed), dtype, n, f)
            for fn in kernels:
                rows = np.arange(m) if fn in PRODUCTS else subset
                inputs, params, attrs = catalogue[fn]
                whole = apply_kernel(fn, inputs, params, attrs)
                part = apply_kernel(fn, [x[rows] for x in inputs], params, attrs)
                assert part.shape == whole[rows].shape, fn
                assert part.tobytes() == whole[rows].tobytes(), (
                    f"apply:{fn}: rows {rows.tolist()} of {n} differ from "
                    "the whole array's"
                )

        check()


def _zoo_product_shapes():
    """``(K, N)`` of every dense product the model zoo runs, at the input
    widths the suite and the perf workloads build: ``linear``'s ``W``
    and ``linear_grad_input``'s ``W.T``."""
    shapes = set()
    for name in MODELS.names():
        for in_dim in (6, 16, 32, 500):
            module = MODELS.get(name)(in_dim, 3).build_module()
            for node in module.nodes:
                if node.fn == "linear":
                    k, n = module.specs[node.params[0]].feat_shape
                    shapes.update({(k, n), (n, k)})
    return sorted(shapes)


ZOO_PRODUCTS = _zoo_product_shapes()


class TestProductProbe:
    """The probe behind ring runs' products, over every (K, N) pair of
    the zoo: BLAS picks its path from a product's shape (OpenBLAS
    threads above about 10**6 multiply-adds and splits the columns, and
    rows move with it), and ``tiled_matmul`` hands it only equal-shaped
    tiles.  A BLAS whose equal calls do not give equal rows fails here,
    loudly, by shape — not as a stray byte in a served answer."""

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_prefixes_keep_their_bits(self, dtype):
        rng = np.random.default_rng(7)
        tile = PRODUCT_ROWS
        rows = 3 * tile + 17
        unstable = []
        for k, n in ZOO_PRODUCTS:
            x = rng.normal(size=(rows, k)).astype(dtype)
            for w in (rng.normal(size=(k, n)).astype(dtype),
                      rng.normal(size=(n, k)).astype(dtype).T):
                whole = tiled_matmul(x, w)
                for m in (1, tile - 1, tile, tile + 1, 2 * tile + 5, rows):
                    if tiled_matmul(x[:m], w).tobytes() != whole[:m].tobytes():
                        unstable.append((k, n, m))
        assert not unstable, (
            f"{np.dtype(dtype).name} products of {PRODUCT_ROWS}"
            f"-row tiles are not row-stable on this BLAS at (K, N, rows) "
            f"{unstable[:8]}: ring runs would not reproduce the whole field"
        )

    def test_the_zoo_shapes_were_found(self):
        assert (500, 32) in ZOO_PRODUCTS and (32, 500) in ZOO_PRODUCTS

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_prefix_property(self, dtype):
        """Hypothesis over zoo shapes, row counts and prefix lengths."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(
            shape=st.sampled_from(ZOO_PRODUCTS), data=st.data(),
            seed=st.integers(0, 2 ** 31), transposed=st.booleans(),
        )
        def check(shape, data, seed, transposed):
            k, n = shape
            rows = data.draw(st.integers(1, 300))
            m = data.draw(st.integers(0, rows))
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(rows, k)).astype(dtype)
            w = (rng.normal(size=(n, k)).T if transposed
                 else rng.normal(size=(k, n))).astype(dtype)
            assert tiled_matmul(x[:m], w).tobytes() == tiled_matmul(x, w)[:m].tobytes()

        check()

    def test_out_is_written_in_place(self):
        rng = np.random.default_rng(3)
        x, w = rng.normal(size=(150, 6)), rng.normal(size=(6, 5))
        out = np.full((150, 5), np.nan)
        assert tiled_matmul(x, w, out) is out
        assert out.tobytes() == tiled_matmul(x, w).tobytes()
        np.testing.assert_allclose(out, x @ w, rtol=1e-12)


# ----------------------------------------------------------------------
# The in-place path
# ----------------------------------------------------------------------
#: Every registered (kind, fn) whose reference kernel declares ``out``.
OUT_KERNELS = [
    (kind, fn)
    for kind in ("apply", "scatter")
    for fn in registered_functions(kind)
    if writes_out(kind, fn)
]


def _size_graph(size: str, monkeypatch) -> Graph:
    """``tiny``: the hand-made multigraph; ``chunked``: a random graph
    with a chunk budget small enough that ``u_dot_v`` takes many
    chunks."""
    if size == "tiny":
        return Graph(np.array([0, 0, 1, 2, 2, 0]), np.array([1, 2, 2, 0, 2, 1]), N)
    monkeypatch.setattr(blocks, "DOT_CHUNK_BYTES", 256)
    rng = np.random.default_rng(5)
    return Graph(rng.integers(0, 40, 300), rng.integers(0, 40, 300), 40)


def _out_call(kind: str, fn: str, graph: Graph, rng, dtype, f: int = F):
    """``(call, arguments)``: ``call(out)`` runs the kernel (``None``:
    the fresh call) on one fixed draw of its case."""
    if kind == "apply":
        inputs, params, attrs = _apply_cases(
            rng, dtype, graph.num_vertices, f
        )[fn]
        return (
            lambda out: apply_kernel(fn, inputs, params, attrs, out=out),
            inputs + params,
        )
    inputs = _scatter_cases(graph, rng, dtype, f)[fn]
    return lambda out: scatter_kernel(fn, graph, inputs, out=out), inputs


#: Guard bytes on each side of a slab, a multiple of every itemsize.
GUARD = 64


def _assert_writes_in_place(label: str, call, arguments, placement="own") -> None:
    """``placement``: ``own``, an array of its own; ``slab``, a view at
    a byte offset into one shared buffer, as :class:`ArenaPool` hands
    the arena-backed engine's kernels — the bytes around it must stay
    as they were."""
    fresh = call(None)
    if placement == "own":
        # A fill no kernel produces, so an element left unwritten shows.
        pool, out = None, np.full_like(fresh, 7)
    else:
        pool = ArenaPool(GUARD + fresh.nbytes + GUARD)
        pool.buffer[:] = 7
        out = pool.view(GUARD, fresh.shape, fresh.dtype)
    got = call(out)
    assert got is out, f"{label}: returned a new array, not out"
    assert np.array_equal(got.view(np.uint8), fresh.view(np.uint8)), (
        f"{label}: out differs from the fresh call"
    )
    if pool is not None:
        guards = np.concatenate([pool.buffer[:GUARD], pool.buffer[GUARD + fresh.nbytes:]])
        assert (guards == 7).all(), f"{label}: wrote outside its slab"
    for i, arr in enumerate(arguments):
        assert not np.shares_memory(out, arr), f"{label}: out aliases argument {i}"


class TestOutPath:
    """A kernel with an ``out`` writes its result there, bit for bit
    the fresh call's, and returns it (the arena-backed engine's way of
    putting a value into its slab)."""

    def test_the_ufunc_matmul_and_take_kernels_have_one(self):
        assert {
            "relu", "bias_add", "relu_grad", "linear", "linear_grad_input",
            "head_dot", "head_dot_grad_input",
        } <= {fn for kind, fn in OUT_KERNELS if kind == "apply"}
        assert {"copy_u", "copy_v", "u_dot_v"} <= {
            fn for kind, fn in OUT_KERNELS if kind == "scatter"
        }

    @pytest.mark.parametrize("placement", ("own", "slab"))
    @pytest.mark.parametrize("size", ("tiny", "chunked"))
    @pytest.mark.parametrize("dtype", TestDtypePreservation.DTYPES)
    @pytest.mark.parametrize("kind, fn", OUT_KERNELS)
    def test_out_is_the_fresh_result(
        self, monkeypatch, rng, size, dtype, kind, fn, placement
    ):
        graph = _size_graph(size, monkeypatch)
        call, arguments = _out_call(kind, fn, graph, rng, dtype)
        _assert_writes_in_place(f"{kind}:{fn}", call, arguments, placement)

    def test_random_shapes(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            kernel=st.sampled_from(OUT_KERNELS),
            n=st.integers(1, 12),
            m=st.integers(0, 40),
            f=st.integers(1, 6),
            dtype=st.sampled_from(TestDtypePreservation.DTYPES),
            budget=st.integers(1, 2048),
            seed=st.integers(0, 2 ** 31),
        )
        def check(kernel, n, m, f, dtype, budget, seed):
            monkeypatch.setattr(blocks, "DOT_CHUNK_BYTES", budget)
            rng = np.random.default_rng(seed)
            graph = Graph(rng.integers(0, n, m), rng.integers(0, n, m), n)
            kind, fn = kernel
            call, arguments = _out_call(kind, fn, graph, rng, dtype, f)
            _assert_writes_in_place(f"{kind}:{fn}", call, arguments)

        check()


#: What NumPy's iterator allocates around an einsum, in bytes (~1.6 KiB
#: here); every product these shapes could build is far larger.
ITERATOR_BYTES = 4096


class TestHeadDotTemporaries:
    """``head_dot`` contracts each (row, head) straight from ``x`` and
    ``a``: it allocates its output and nothing of ``x``'s size — no
    ``(V, H, F)`` product — and given ``out``, not even that."""

    @pytest.mark.parametrize("dtype", (np.float16, np.float32, np.float64))
    @pytest.mark.parametrize("shape", ((2708, 8, 8), (512, 1, 64)))
    def test_allocates_only_its_output(self, shape, dtype):
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape).astype(dtype)
        a = rng.normal(size=shape[1:]).astype(dtype)
        slab = np.empty(shape[:2], dtype=dtype)
        apply_kernel("head_dot", [x], [a])
        tracemalloc.start()
        try:
            fresh = apply_kernel("head_dot", [x], [a])
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            apply_kernel("head_dot", [x], [a], out=slab)
            _, in_place = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.nbytes > 4 * ITERATOR_BYTES
        assert peak <= fresh.nbytes + ITERATOR_BYTES
        assert in_place - start <= ITERATOR_BYTES
