"""Vectorised NumPy kernels for every IR function, and the one table of them.

Array convention
----------------
Every value carries an explicit leading *row* axis — ``(|V|, *feat)``
for VERTEX, ``(|E|, *feat)`` for EDGE, ``(1, *feat)`` for PARAM/DENSE —
so kernels treat axis 0 uniformly as rows and axes ``1..r`` as feature
axes.  Parameter operands are passed *stripped* (their natural shape,
no leading 1) because projection kernels consume them as matrices.

Broadcasting follows the library's right-pad rule (see
:func:`repro.ir.tensorspec.broadcast_feat_shapes`): operands of lower
feature rank gain singleton axes on the right, which lets per-row
scalars (attention logits) scale per-row vectors (messages).

Edge-feature tensors are stored in COO edge-id order.  A segment *sum*
(``gather sum`` / ``mean``) is one CSR × dense product of the graph's
unit incidence operator (:meth:`repro.graph.csr.Graph.incidence`, CSC
for in-edges, CSR for out-edges) with the edge tensor
(:func:`segment_sum`, the product of
:class:`~repro.graph.csr.CsrOperator`, scipy's compiled CSR loop called
directly): the permutation is the operator's column
indices, and each segment is ``+0.0`` then its rows added left to right
in CSC/CSR edge order — what a per-segment loop computes, bit for bit.
``max`` (order-insensitive) permutes the rows and uses
``np.maximum.reduceat`` with explicit handling of empty segments.
:func:`aggregate` is the same product one step earlier: a ``copy_u`` →
(× one weight per edge, or per edge and head) → ``sum`` / ``mean`` chain
reads the vertex rows through the graph's adjacency operator and never
builds the edge tensor.  ``u_dot_v`` — also what a chain's per-edge dot
product ``reduce_to_shape(copy_v(a) * copy_u(b))`` runs as — builds its
per-edge products a :data:`~repro.exec.blocks.DOT_CHUNK_BYTES` chunk of
edges at a time.  The dot step, ``reduce_to_shape``'s surplus axes and
``gaussian`` sum their rounded products with one trailing-axis
contraction (:func:`contract_trailing`), whatever rows or chunks it is
given; ``head_dot`` contracts its operands in one einsum, with no
product.

Registry and dispatch
---------------------
Every kernel registers under its ``(kind, fn)`` pair
(:func:`register_kernel`) in one table, and :func:`apply_kernel`,
:func:`scatter_kernel`, :func:`gather_kernel` and
:func:`param_grad_kernel` call a kernel by name: one table lookup,
then the kernel.  The engine looks each node's kernel up once, when it
lowers a plan (:func:`resolve_kernel`).  Signatures by kind:

- ``apply``:      ``fn(inputs, params, attrs[, out]) -> array``
- ``scatter``:    ``fn(graph, inputs[, out]) -> array``
- ``gather``:     ``fn(graph, edge_values, orientation, want_argmax)
  -> (array, argmax_or_None)``
- ``param_grad``: ``fn(inputs, params, attrs) -> array`` (natural
  parameter shape, no leading row axis)

Aliasing contract: kernels NEVER return an array sharing memory with
an input.  The engine's arena planner reuses dead buffers, so an
aliased output would be silently corrupted once its input's slab is
recycled.  ``OpKind.VIEW`` nodes are the one sanctioned alias and are
handled by the engine itself, never through these kernels.

In-place contract: the kernels that are one ufunc, one matmul, one
einsum or one row take (``np.take``) declare ``out``
(:func:`writes_out`); given it, they write their result there — bit for
bit the fresh call's — and return it.  That is how an arena-backed
engine puts a value into its slab.  The rest (the CSR product behind
every segment sum, ``where``/``reduceat``/composite kernels) return
fresh storage, and the engine keeps it.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec import blocks
from repro.graph.csr import Graph, adjacency_operator

__all__ = [
    "aggregate",
    "apply_kernel",
    "scatter_kernel",
    "gather_kernel",
    "param_grad_kernel",
    "acc_dtype",
    "align_trailing",
    "contract_trailing",
    "reduce_to_shape_array",
    "register_kernel",
    "registered_functions",
    "resolve_kernel",
    "segment_max",
    "segment_sum",
    "tiled_matmul",
    "writes_out",
]


# ======================================================================
# The kernel table
# ======================================================================
KINDS = ("apply", "scatter", "gather", "param_grad")

#: (kind, fn) -> kernel.
_KERNELS: Dict[Tuple[str, str], Callable] = {}


def register_kernel(kind: str, fn: str):
    """Decorator: register the kernel of ``(kind, fn)``.

    Every apply kernel keeps a prefix's bits: ``k(x[:m])`` equals
    ``k(x)[:m]`` by bytes, which is what lets an engine run a ring of
    a hop-ordered field on its prefix of the rows.  All but the dense
    products go further, to any row subset in any order; the products
    keep a row's bits at its place in its tile (:func:`tiled_matmul`),
    which a prefix never moves.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kernel kind {kind!r}; expected one of {KINDS}")

    def deco(impl: Callable) -> Callable:
        _KERNELS[(kind, fn)] = impl
        return impl

    return deco


def registered_functions(kind: str) -> List[str]:
    """Every fn name registered under ``kind``."""
    return sorted(fn for k, fn in _KERNELS if k == kind)


def resolve_kernel(kind: str, fn: str) -> Callable:
    """The kernel of ``(kind, fn)``; ``KeyError`` when none is registered."""
    kernel = _KERNELS.get((kind, fn))
    if kernel is None:
        label = "reduce " if kind == "gather" else ""
        raise KeyError(f"no {kind} kernel for {label}{fn!r}")
    return kernel


def writes_out(kind: str, fn: str) -> bool:
    """Does the kernel of ``(kind, fn)`` take an ``out`` to write into?"""
    return "out" in inspect.signature(resolve_kernel(kind, fn)).parameters


# ======================================================================
# Broadcasting helpers
# ======================================================================
def align_trailing(arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Right-pad feature axes with singletons to a common rank.

    Axis 0 (rows) is preserved; only feature ranks are padded.
    """
    rank = max(a.ndim for a in arrays)
    out = []
    for a in arrays:
        if a.ndim < rank:
            a = a.reshape(a.shape + (1,) * (rank - a.ndim))
        out.append(a)
    return out


def contract_trailing(
    products: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Sum the trailing axis of ``products``: the one contraction of
    every per-edge and per-head dot.

    ``products`` are the rounded elementwise products (what ``mul``
    writes).  Each output element is its own row's sum in an order set
    by the trailing width alone (einsum's inner loop over a contiguous
    axis), so chunk boundaries, the other rows, and whether the
    operands were gathered or strided move no bit; float16 accumulates
    in float32 (:func:`acc_dtype`) and rounds once.  The order is not
    ``.sum(axis=-1)``'s pairwise one: results differ from it by about
    1e-7 relative (README clause 1).  A zero sum is ``+0.0``.
    """
    return np.einsum("...f->...", np.ascontiguousarray(products), out=out)


def reduce_to_shape_array(
    arr: np.ndarray, target_feat_shape: Tuple[int, ...]
) -> np.ndarray:
    """Sum away axes introduced by right-pad broadcasting.

    ``arr`` has shape ``(rows, *feat)``; the result has shape
    ``(rows, *target_feat_shape)``.  Axes beyond the target rank are
    contracted out (:func:`contract_trailing`); axes where the target is
    1 but the array is larger are summed with keepdims.
    """
    feat = arr.shape[1:]
    tgt = tuple(target_feat_shape)
    # Contract surplus trailing axes.
    while len(arr.shape) - 1 > len(tgt):
        arr = contract_trailing(arr)
    # Sum broadcast axes back to singleton where needed.
    for i, t in enumerate(tgt):
        if arr.shape[i + 1] != t:
            if t != 1:
                raise ValueError(
                    f"cannot reduce feature shape {feat} to {tgt}"
                )
            arr = arr.sum(axis=i + 1, keepdims=True)
    return arr


def no_alias(out: np.ndarray, *inputs: np.ndarray) -> np.ndarray:
    """Copy ``out`` if it shares memory with any input array.

    Shape-only kernels (identity, view, full-range slices, no-op
    reductions) can hand back a view of their input; under the arena
    planner that view would be corrupted when the input's slab is
    reused for a later value.
    """
    for a in inputs:
        if np.shares_memory(out, a):
            return out.copy()
    return out


# ======================================================================
# Apply kernels
# ======================================================================
ApplyKernel = Callable[..., np.ndarray]


def _register_apply(name: str):
    return register_kernel("apply", name)


def apply_kernel(
    fn: str,
    inputs: Sequence[np.ndarray],
    params: Sequence[np.ndarray] = (),
    attrs: Optional[dict] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Execute an APPLY-kind node numerically.

    ``out`` is passed on only when given: hand it to kernels that
    :func:`writes_out`.
    """
    kernel = resolve_kernel("apply", fn)
    if out is None:
        return kernel(list(inputs), list(params), attrs or {})
    return kernel(list(inputs), list(params), attrs or {}, out=out)


@_register_apply("identity")
def _k_identity(inputs, params, attrs):
    # A bare ``return inputs[0]`` aliased the input: corruption hazard
    # under arena slab reuse (see the module aliasing contract).
    return inputs[0].copy()


@_register_apply("neg")
def _k_neg(inputs, params, attrs, out=None):
    return np.negative(inputs[0], out=out)


@_register_apply("scale")
def _k_scale(inputs, params, attrs, out=None):
    x = inputs[0]
    # Coerce the scalar attr to the array dtype: a stray np.float64
    # factor would otherwise upcast the whole tensor under NumPy 2's
    # promotion rules, silently breaking the declared-precision
    # accounting (caught by the differential counter tests).
    return np.multiply(x, x.dtype.type(attrs["factor"]), out=out)


@_register_apply("relu")
def _k_relu(inputs, params, attrs, out=None):
    return np.maximum(inputs[0], 0, out=out)


@_register_apply("leaky_relu")
def _k_leaky_relu(inputs, params, attrs):
    x = inputs[0]
    # Same dtype coercion as the grad kernel: an attrs slope
    # deserialized as np.float64 must not upcast the forward pass.
    slope = x.dtype.type(attrs.get("slope", 0.01))
    return np.where(x > 0, x, slope * x)


@_register_apply("exp")
def _k_exp(inputs, params, attrs, out=None):
    return np.exp(inputs[0], out=out)


@_register_apply("sigmoid")
def _k_sigmoid(inputs, params, attrs):
    x = inputs[0]
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@_register_apply("tanh")
def _k_tanh(inputs, params, attrs, out=None):
    return np.tanh(inputs[0], out=out)


@_register_apply("add")
def _k_add(inputs, params, attrs, out=None):
    return np.add(*align_trailing(inputs), out=out)


@_register_apply("sub")
def _k_sub(inputs, params, attrs, out=None):
    return np.subtract(*align_trailing(inputs), out=out)


@_register_apply("mul")
def _k_mul(inputs, params, attrs, out=None):
    return np.multiply(*align_trailing(inputs), out=out)


@_register_apply("div")
def _k_div(inputs, params, attrs, out=None):
    return np.divide(*align_trailing(inputs), out=out)


@_register_apply("relu_grad")
def _k_relu_grad(inputs, params, attrs, out=None):
    g, x = align_trailing(inputs)
    return np.multiply(g, x > 0, out=out)


@_register_apply("leaky_relu_grad")
def _k_leaky_relu_grad(inputs, params, attrs, out=None):
    g, x = align_trailing(inputs)
    # Scalar where-branches must carry the array dtype: float64
    # literals would upcast the gradient under NumPy 2 promotion.
    one = x.dtype.type(1.0)
    slope = x.dtype.type(attrs.get("slope", 0.01))
    return np.multiply(g, np.where(x > 0, one, slope), out=out)


@_register_apply("sigmoid_grad")
def _k_sigmoid_grad(inputs, params, attrs):
    g, y = align_trailing(inputs)
    return g * y * (1.0 - y)


@_register_apply("tanh_grad")
def _k_tanh_grad(inputs, params, attrs):
    g, y = align_trailing(inputs)
    return g * (1.0 - y * y)


@_register_apply("clamp_min")
def _k_clamp_min(inputs, params, attrs, out=None):
    x = inputs[0]
    return np.maximum(x, x.dtype.type(attrs["min"]), out=out)


@_register_apply("view")
def _k_view(inputs, params, attrs):
    x = inputs[0]
    out_shape = tuple(attrs["out_shape"])
    # reshape returns a view whenever strides allow — which is an
    # aliased output here.  (Engine-level OpKind.VIEW nodes alias on
    # purpose and never dispatch through this kernel.)
    return no_alias(x.reshape((x.shape[0],) + out_shape), x)


@_register_apply("slice_axis")
def _k_slice_axis(inputs, params, attrs):
    x = inputs[0]
    feat_rank = x.ndim - 1
    axis = int(attrs.get("axis", -1))
    axis = axis + feat_rank if axis < 0 else axis
    idx = [slice(None)] * x.ndim
    idx[axis + 1] = slice(int(attrs["start"]), int(attrs["stop"]))
    # ascontiguousarray returns the *same* array when the slice spans
    # the whole axis of a contiguous input — an aliased output.
    return no_alias(np.ascontiguousarray(x[tuple(idx)]), x)


@_register_apply("pad_axis")
def _k_pad_axis(inputs, params, attrs):
    x = inputs[0]
    feat_rank = x.ndim - 1
    axis = int(attrs.get("axis", -1))
    axis = axis + feat_rank if axis < 0 else axis
    width = int(attrs["width"])
    out_shape = list(x.shape)
    out_shape[axis + 1] = width
    out = np.zeros(out_shape, dtype=x.dtype)
    idx = [slice(None)] * x.ndim
    idx[axis + 1] = slice(int(attrs["start"]), int(attrs["stop"]))
    out[tuple(idx)] = x
    return out


@_register_apply("reduce_to_shape")
def _k_reduce_to_shape(inputs, params, attrs):
    x = inputs[0]
    # When the target equals the input feature shape there is nothing
    # to sum and the helper returns its argument unchanged — aliased.
    return no_alias(reduce_to_shape_array(x, tuple(attrs["target_shape"])), x)


#: Rows of ``x`` per BLAS call in :func:`tiled_matmul`.
PRODUCT_ROWS = 64


def tiled_matmul(
    x: np.ndarray, w: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``x @ w`` whose rows keep their bits whatever rows come with them.

    BLAS picks its path from a product's shape — OpenBLAS threads a
    product above about 10**6 multiply-adds and splits its columns
    between the threads, and a row's bits move with that — so a row of
    ``x[:m] @ w`` need not equal the same row of ``x @ w``.  Here BLAS
    is only ever handed ``PRODUCT_ROWS``-row tiles of ``x``, stacked
    into one ``matmul``, the last tile zero-padded: every call has the
    same shape, so a row's bits depend on its own values and its place
    in its tile, and a prefix of ``x`` keeps every row's place — what a
    ring run needs.  ``TestProductProbe``
    (``tests/exec/test_kernel_contracts.py``) checks prefixes on the
    host's BLAS over the model zoo's product shapes.
    """
    rows, tile = x.shape[0], PRODUCT_ROWS
    if out is None:
        out = np.empty(
            x.shape[:-1] + w.shape[-1:], dtype=np.result_type(x.dtype, w.dtype)
        )
    full = rows - rows % tile
    if full:
        # One matmul over the stack of tiles: a BLAS call per tile.
        tiles = (full // tile, tile)
        # Setting ``shape`` raises where a reshape would copy, so the
        # product can never land in a temporary.
        view = out[:full].view()
        view.shape = tiles + out.shape[1:]
        np.matmul(x[:full].reshape(tiles + x.shape[1:]), w, out=view)
    if full < rows:
        padded = np.zeros((tile,) + x.shape[1:], dtype=x.dtype)
        padded[: rows - full] = x[full:]
        out[full:] = np.matmul(padded, w)[: rows - full]
    return out


@_register_apply("linear")
def _k_linear(inputs, params, attrs, out=None):
    (x,) = inputs
    (w,) = params
    return tiled_matmul(x, w, out)


@_register_apply("linear_grad_input")
def _k_linear_grad_input(inputs, params, attrs, out=None):
    (g,) = inputs
    (w,) = params
    return tiled_matmul(g, w.T, out)


@_register_apply("bias_add")
def _k_bias_add(inputs, params, attrs, out=None):
    (x,) = inputs
    (b,) = params
    return np.add(*align_trailing([x, b[None]]), out=out)


@_register_apply("param_scale")
def _k_param_scale(inputs, params, attrs, out=None):
    (x,) = inputs
    (p,) = params
    return np.multiply(x, p, out=out)


@_register_apply("head_dot")
def _k_head_dot(inputs, params, attrs, out=None):
    # One contraction per (row, head), no (V, H, F) product: einsum's
    # inner loop runs over contiguous ``f``, so a row's bits are its own.
    (x,) = inputs
    (a,) = params
    return np.einsum(
        "vhf,hf->vh", np.ascontiguousarray(x), np.ascontiguousarray(a), out=out
    )


@_register_apply("head_dot_grad_input")
def _k_head_dot_grad_input(inputs, params, attrs, out=None):
    # The outer product: one rounding per element, ``g[..., None] * a``
    # by value (einsum adds each product to a zeroed output, so a
    # negative zero comes out ``+0.0``).
    (g,) = inputs
    (a,) = params
    return np.einsum("vh,hf->vhf", g, a, out=out)


@_register_apply("gaussian")
def _k_gaussian(inputs, params, attrs):
    (m,) = inputs
    mu, inv_sigma = params
    d = (m[:, None, :] - mu[None]) * inv_sigma[None]
    return np.exp(-0.5 * contract_trailing(d * d))


@_register_apply("gaussian_grad_input")
def _k_gaussian_grad_input(inputs, params, attrs):
    g, m, w = inputs
    mu, inv_sigma = params
    d = (m[:, None, :] - mu[None]) * inv_sigma[None]
    gw = (g * w)[:, :, None]
    return -(gw * d * inv_sigma[None]).sum(axis=1)


@_register_apply("kernel_mean")
def _k_kernel_mean(inputs, params, attrs):
    return inputs[0].mean(axis=1)


@_register_apply("kernel_mean_grad")
def _k_kernel_mean_grad(inputs, params, attrs):
    g = inputs[0]
    k = int(attrs["num_kernels"])
    return np.repeat(g[:, None] / k, k, axis=1)


# ======================================================================
# Scatter kernels
# ======================================================================
def scatter_kernel(
    fn: str,
    graph: Graph,
    inputs: Sequence[np.ndarray],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Execute a SCATTER-kind node: per-edge function of endpoint rows
    (``out`` as in :func:`apply_kernel`)."""
    kernel = resolve_kernel("scatter", fn)
    if out is None:
        return kernel(graph, list(inputs))
    return kernel(graph, list(inputs), out=out)


def _rows(x: np.ndarray, ids: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``x[ids]``, written into ``out`` when given (``mode="clip"``: the
    default mode buffers ``out``, which allocates once more)."""
    return x[ids] if out is None else np.take(x, ids, axis=0, out=out, mode="clip")


@register_kernel("scatter", "copy_u")
def _s_copy_u(graph, inputs, out=None):
    return _rows(inputs[0], graph.src, out)


@register_kernel("scatter", "copy_v")
def _s_copy_v(graph, inputs, out=None):
    return _rows(inputs[0], graph.dst, out)


@register_kernel("scatter", "max_grad")
def _s_max_grad(graph, inputs):
    return _max_grad(graph, inputs[0], inputs[1])


@register_kernel("scatter", "u_add_v")
def _s_u_add_v(graph, inputs, out=None):
    u, v = inputs
    return np.add(*align_trailing([u[graph.src], v[graph.dst]]), out=out)


@register_kernel("scatter", "u_sub_v")
def _s_u_sub_v(graph, inputs, out=None):
    u, v = inputs
    return np.subtract(*align_trailing([u[graph.src], v[graph.dst]]), out=out)


@register_kernel("scatter", "u_mul_v")
def _s_u_mul_v(graph, inputs, out=None):
    u, v = inputs
    return np.multiply(*align_trailing([u[graph.src], v[graph.dst]]), out=out)


@register_kernel("scatter", "u_dot_v")
def _s_u_dot_v(graph, inputs, out=None):
    # Chunks of edges whose gathered rows (two edge rows each: the
    # product is made in place in the ``u`` rows) hold ~DOT_CHUNK_BYTES
    # at once, in two buffers every chunk reuses; each edge's sum is
    # its own, so chunking moves no bit.
    u, v = inputs
    src, dst = graph.src, graph.dst
    edges = src.shape[0]
    row_bytes = u[:1].nbytes + v[:1].nbytes
    step = max(1, min(edges, blocks.DOT_CHUNK_BYTES // max(row_bytes, 1)))
    if out is None:
        out = np.empty((edges,) + u.shape[1:-1], dtype=u.dtype)
    products = np.empty((step,) + u.shape[1:], dtype=u.dtype)
    rows = np.empty_like(products)
    for lo in range(0, edges, step):
        n = min(step, edges - lo)
        chunk = _rows(u, src[lo:lo + n], products[:n])
        np.multiply(chunk, _rows(v, dst[lo:lo + n], rows[:n]), out=chunk)
        contract_trailing(chunk, out[lo:lo + n])
    return out


@register_kernel("scatter", "u_concat_v")
def _s_u_concat_v(graph, inputs):
    u, v = inputs
    return np.concatenate([u[graph.src], v[graph.dst]], axis=-1)


def _max_grad(graph: Graph, grad: np.ndarray, argmax: np.ndarray) -> np.ndarray:
    """Route vertex gradients to the recorded argmax in-edge.

    ``argmax`` holds COO edge ids per (vertex, feature) position, with
    ``-1`` marking vertices without in-edges.  Each edge has exactly one
    destination, so targets are unique and plain assignment suffices.
    """
    n = grad.shape[0]
    feat = grad.shape[1:]
    f = int(np.prod(feat)) if feat else 1
    g2 = grad.reshape(n, f)
    a2 = argmax.reshape(n, f)
    out = np.zeros((graph.num_edges, f), dtype=grad.dtype)
    mask = a2 >= 0
    cols = np.broadcast_to(np.arange(f), (n, f))
    out[a2[mask], cols[mask]] = g2[mask]
    return out.reshape((graph.num_edges,) + feat)


# ======================================================================
# Gather kernels (segment reductions)
# ======================================================================
def segment_sum(operator, values: np.ndarray) -> np.ndarray:
    """The one segment-sum kernel: ``operator @ values``.

    ``operator`` (a :class:`~repro.graph.csr.CsrOperator`) is segments
    × rows of ``values`` — a unit incidence operator over edge rows, or
    an adjacency operator over vertex rows
    (:func:`repro.graph.csr.adjacency_operator`); feature axes are
    flattened for the product and restored.  Every segment is ``+0.0``
    then its entries' rows (× the entry) added left to right in the
    operator's column order, accumulated in the operator's dtype — so
    whole graphs, blocks of one and partition shards agree bit for bit
    on the segments they share.  Empty segments produce ``+0.0``.
    Returns a fresh array of the operator's dtype.
    """
    rows = values.shape[0]
    out_shape = (operator.shape[0],) + values.shape[1:]
    width = int(np.prod(values.shape[1:], dtype=np.int64))
    if rows == 0 or width == 0:
        return np.zeros(out_shape, dtype=operator.dtype)
    return (operator @ values.reshape(rows, width)).reshape(out_shape)


def segment_max(values: np.ndarray, indptr: np.ndarray, fill: float) -> np.ndarray:
    """Segmented maximum over axis 0 of ``values`` (``np.maximum.reduceat``).

    ``values`` must already be ordered by segment;
    ``indptr[i]:indptr[i+1]`` delimits segment ``i``.  Empty segments
    produce ``fill``.  A sum is :func:`segment_sum` over an operator.
    """
    n = values.shape[0]
    num_segments = indptr.shape[0] - 1
    starts = indptr[:-1]
    non_empty = indptr[1:] > starts
    out = np.full((num_segments,) + values.shape[1:], fill, dtype=values.dtype)
    if n == 0 or not non_empty.any():
        return out
    # Reduce over non-empty segment starts only: consecutive non-empty
    # starts delimit exactly the right slices (empty segments in between
    # share the same offset), and no start can reach n — avoiding the
    # classic reduceat pitfall where clipping a trailing empty segment's
    # offset corrupts the previous segment.
    out[non_empty] = np.maximum.reduceat(values, starts[non_empty], axis=0)
    return out


def acc_dtype(dtype: np.dtype) -> np.dtype:
    """Accumulation dtype for segment reductions.

    Half-precision inputs accumulate in float32 — the tensor-core
    semantics every mixed-precision GPU kernel uses — and are rounded
    back to the storage dtype afterwards.  Everything else accumulates
    natively.
    """
    if dtype == np.float16:
        return np.dtype(np.float32)
    return np.dtype(dtype)


def gather_kernel(
    reduce: str,
    graph: Graph,
    edge_values: np.ndarray,
    *,
    orientation: str = "in",
    want_argmax: bool = False,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Execute a GATHER-kind node: reduce incident edge rows per vertex.

    Returns ``(values, argmax_or_None)``.  ``argmax`` (max only, when
    requested) holds COO edge ids, ``-1`` for vertices with no incident
    edges.
    """
    return resolve_kernel("gather", reduce)(
        graph, edge_values, orientation, want_argmax
    )


def _segment_mean(operator, values: np.ndarray) -> np.ndarray:
    """:func:`segment_sum` over each segment's length (empty ones: 1)."""
    total = segment_sum(operator, values)
    counts = np.maximum(np.diff(operator.indptr), 1).astype(total.dtype)
    return total / counts.reshape((-1,) + (1,) * (total.ndim - 1))


@register_kernel("gather", "sum")
def _g_sum(graph, edge_values, orientation, want_argmax):
    operator = graph.incidence(orientation, acc_dtype(edge_values.dtype))
    total = segment_sum(operator, edge_values)
    return total.astype(edge_values.dtype, copy=False), None


@register_kernel("gather", "mean")
def _g_mean(graph, edge_values, orientation, want_argmax):
    operator = graph.incidence(orientation, acc_dtype(edge_values.dtype))
    mean = _segment_mean(operator, edge_values)
    return mean.astype(edge_values.dtype, copy=False), None


def aggregate(
    layout,
    x: np.ndarray,
    weight: Optional[np.ndarray] = None,
    *,
    orientation: str = "in",
    mean: bool = False,
) -> np.ndarray:
    """``gather(copy_u(x) * weight)`` as one product, no edge tensor.

    ``layout`` is a :class:`~repro.graph.csr.Graph` or one of its row
    blocks; ``x`` holds the far-endpoint rows (sources for ``"in"``,
    destinations for ``"out"`` — ``copy_v``; a block reads the first
    ``far_vertices``), float32 or float64;
    ``weight``, when given, is in the layout's edge-id order with
    ``x``'s dtype, and its feature shape is a leading prefix of ``x``'s
    (after dropping trailing ones): one element per edge, or one per
    edge and *head* — GAT's ``(E, H)`` attention against ``(V, H, F)``
    rows.  ``H`` heads are one product over the head-interleaved
    operator (:meth:`~repro.graph.csr.Graph.adjacency`) times ``x``
    viewed as ``(V·H, F)``.  Each home row and head is ``+0.0`` then
    ``weight[e, h] * x[far(e), h]`` added left to right in CSC/CSR edge
    order — the sum :func:`gather_kernel` takes of the edge tensor, bit
    for bit when unweighted (``1 * x`` is exact), and when weighted
    unless scipy's compiled loop fuses ``y += w * x`` into one rounding
    (README clause 1d).
    """
    heads = 1 if weight is None else int(np.prod(weight.shape[1:], dtype=np.int64))
    operator, order = layout.adjacency(orientation, x.dtype, heads)
    x = x[: layout.far_vertices]
    if weight is not None:
        operator = adjacency_operator(
            operator.indptr, operator.indices, operator.shape[1],
            weight.reshape(-1)[order],
        )
    # The width is spelled out: ``x`` may hold no rows at all (an empty
    # partition's shard, over its one-vertex placeholder graph).
    width = int(np.prod(x.shape[1:], dtype=np.int64)) // heads
    out = (_segment_mean if mean else segment_sum)(
        operator, x.reshape(x.shape[0] * heads, width)
    )
    return out.reshape((operator.shape[0] // heads,) + x.shape[1:])


@register_kernel("gather", "max")
def _g_max(graph, edge_values, orientation, want_argmax):
    indptr, eids = graph.segments(orientation)
    ordered = edge_values[eids]
    finfo_min = (
        np.finfo(edge_values.dtype).min
        if np.issubdtype(edge_values.dtype, np.floating)
        else np.iinfo(edge_values.dtype).min
    )
    mx = segment_max(ordered, indptr, finfo_min)
    empty = np.diff(indptr) == 0
    argmax = None
    if want_argmax:
        argmax = _segment_argmax(ordered, mx, indptr, eids)
    # Vertices with no in-edges: value 0 by convention (and -1 argmax).
    if empty.any():
        mx[empty] = 0
    return mx, argmax


def _segment_argmax(
    ordered: np.ndarray, mx: np.ndarray, indptr: np.ndarray, eids: np.ndarray
) -> np.ndarray:
    """First COO edge id attaining the segment max, per feature column."""
    n = ordered.shape[0]
    num_segments = indptr.shape[0] - 1
    seg_lens = np.diff(indptr)
    if n == 0:
        return np.full((num_segments,) + ordered.shape[1:], -1, dtype=np.int64)
    per_edge_max = np.repeat(mx, seg_lens, axis=0)
    positions = np.arange(n, dtype=np.int64)
    positions = positions.reshape((n,) + (1,) * (ordered.ndim - 1))
    candidates = np.where(ordered == per_edge_max, positions, n)
    starts = indptr[:-1]
    non_empty = indptr[1:] > starts
    out = np.full((num_segments,) + ordered.shape[1:], -1, dtype=np.int64)
    if not non_empty.any():
        return out
    first = np.full((num_segments,) + ordered.shape[1:], n, dtype=np.int64)
    first[non_empty] = np.minimum.reduceat(candidates, starts[non_empty], axis=0)
    valid = first < n
    out[valid] = eids[first[valid]]
    return out


# ======================================================================
# Parameter-gradient kernels
# ======================================================================
def param_grad_kernel(
    fn: str,
    inputs: Sequence[np.ndarray],
    params: Sequence[np.ndarray],
    attrs: dict,
) -> np.ndarray:
    """Execute a PARAM_GRAD-kind node: reduce rows into a weight gradient.

    Returns the gradient in the parameter's *natural* shape (the engine
    re-wraps it with the leading row axis).
    """
    return resolve_kernel("param_grad", fn)(list(inputs), list(params), attrs)


def _row_reduce(inputs, compute):
    """Run a row-reducing gradient kernel with fp32 accumulation.

    ``compute`` receives the (possibly upcast) inputs and returns the
    reduced gradient, which is rounded back to the first input's
    storage dtype — parameter gradients are segment reductions over
    rows and get the same accumulate-wide semantics as gathers.
    """
    out_dtype = inputs[0].dtype
    acc = acc_dtype(out_dtype)
    upcast = [a.astype(acc, copy=False) for a in inputs]
    return np.asarray(compute(upcast)).astype(out_dtype, copy=False)


@register_kernel("param_grad", "linear_wgrad")
def _p_linear_wgrad(inputs, params, attrs):
    f_in, f_out = tuple(attrs["out_shape"])
    return _row_reduce(
        inputs, lambda ins: ins[0].reshape(-1, f_in).T @ ins[1].reshape(-1, f_out)
    )


@register_kernel("param_grad", "param_scale_wgrad")
def _p_param_scale_wgrad(inputs, params, attrs):
    return _row_reduce(inputs, lambda ins: (ins[0] * ins[1]).sum())


@register_kernel("param_grad", "bias_grad")
def _p_bias_grad(inputs, params, attrs):
    return _row_reduce(
        inputs,
        lambda ins: reduce_to_shape_array(
            ins[0].sum(axis=0, keepdims=True), tuple(attrs["out_shape"])
        )[0],
    )


@register_kernel("param_grad", "head_dot_wgrad")
def _p_head_dot_wgrad(inputs, params, attrs):
    # x: (rows, h, f); g: (rows, h) -> (h, f)
    return _row_reduce(inputs, lambda ins: np.einsum("nhf,nh->hf", ins[0], ins[1]))


def _gaussian_param_grad(fn, inputs, params):
    def compute(ins):
        m, w, g = ins
        mu, inv_sigma = params
        d = (m[:, None, :] - mu[None]) * inv_sigma[None]
        gw = (g * w)[:, :, None]
        if fn == "gaussian_mu_grad":
            return (gw * d * inv_sigma[None]).sum(axis=0)
        return -(gw * d * (m[:, None, :] - mu[None])).sum(axis=0)

    return _row_reduce(inputs, compute)


@register_kernel("param_grad", "gaussian_mu_grad")
def _p_gaussian_mu_grad(inputs, params, attrs):
    return _gaussian_param_grad("gaussian_mu_grad", inputs, params)


@register_kernel("param_grad", "gaussian_sigma_grad")
def _p_gaussian_sigma_grad(inputs, params, attrs):
    return _gaussian_param_grad("gaussian_sigma_grad", inputs, params)

