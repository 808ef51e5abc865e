"""``blocked`` backend: cache-sized edge-chunking for ``max`` reductions.

The reference ``max`` gather materialises the *entire* permuted edge
tensor ``edge_values[eids]`` — ``|E| × feat`` rows — before reducing it,
so on large graphs every gathered byte makes a full round trip through
DRAM (write the temporary, read it back for ``reduceat``).  This backend
streams the same computation through a cache-sized window instead: it
walks vertices in chunks whose incident edge rows fit in roughly
``BLOCK_BYTES``, gathers just that slice, and reduces it before the
next one is built.  ``max`` is order-insensitive, so the results
are **bit-identical** to the reference backend.

Segment *sums* need no chunking: the reference sum is one CSR × dense
product whose column indices are the permutation
(:func:`repro.exec.kernels.segment_sum`), so it never had the permuted
temporary the chunks avoided.  ``gather sum`` / ``mean`` therefore fall
back to the reference implementation through the registry — like apply,
scatter and param_grad — and :func:`blocked_segment_reduce` reduces a
``sum`` through that same function.

:func:`segment_blocks` and :data:`BLOCK_BYTES` are also how
``Engine._walk`` cuts a fused kernel into blocks of home rows, and
:data:`BLOCK_BYTES` how the reference ``u_dot_v`` chunks its edges.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exec.kernel_registry import declare_backend, register_backend
from repro.exec.kernels import _gather_layout, _segment_argmax, segment_sum
from repro.graph.csr import incidence_operator

__all__ = ["BLOCK_BYTES", "blocked_segment_reduce", "segment_blocks"]

#: Target bytes of edge rows held live per block (the widest set of a
#: walk's block-local edge tensors; a ``max`` chunk's permuted rows).
#: Measured, not derived from a cache size: since each block's sum
#: became one CSR product a walk is bound by per-block dispatch, and a
#: gat/cora training step reads 0.050 / 0.044 / 0.041 / 0.038 / 0.037 s
#: at 2^20 / 2^21 / 2^22 / 2^23 / 2^24 against 0.044 unwalked.  2^22
#: takes most of that while a step's resident set grows < 5%.
BLOCK_BYTES = 1 << 22

declare_backend(
    "blocked",
    bit_identical=True,
    description="NumPy with cache-sized edge-chunked segment reductions",
)


def segment_blocks(
    indptr: np.ndarray, rows_per_block: int
) -> Iterator[Tuple[int, int, int, int]]:
    """The one definition of a block: ``(lo, hi, p0, p1)`` per block.

    Consecutive blocks partition the segments of ``indptr`` — block
    ``[lo, hi)`` owns rows ``[p0, p1)`` of the segment-ordered edge
    tensor.  Blocks end on segment boundaries and hold at most
    ``rows_per_block`` rows, except that every block advances at least
    one segment, so a segment larger than the budget is its own block.
    Empty segments ride with their neighbours (trailing ones with the
    last block), so every segment is visited exactly once.
    """
    num_segments = indptr.shape[0] - 1
    rows_per_block = max(1, int(rows_per_block))
    lo = 0
    while lo < num_segments:
        p0 = int(indptr[lo])
        # Last segment whose final row still fits the budget.
        hi = int(np.searchsorted(indptr, p0 + rows_per_block, side="right")) - 1
        hi = min(max(hi, lo + 1), num_segments)
        yield lo, hi, p0, int(indptr[hi])
        lo = hi


def blocked_segment_reduce(
    edge_values: np.ndarray,
    indptr: np.ndarray,
    eids: np.ndarray,
    *,
    reduce: str,
    fill: float = 0.0,
    block_bytes: Optional[int] = None,
    acc: Optional[np.dtype] = None,
) -> np.ndarray:
    """Equivalent of ``segment_reduce(edge_values[eids], indptr)`` that
    never materialises the permuted edge tensor.

    ``sum`` is one :func:`~repro.exec.kernels.segment_sum` with ``eids``
    as the operator's column indices (``block_bytes`` does not apply).
    ``max`` holds at most ~``block_bytes`` (default :data:`BLOCK_BYTES`,
    read at call time) of permuted rows at once: chunks are
    :func:`segment_blocks`, so each ``reduceat`` covers whole segments.
    Either way the result matches the reference exactly.

    ``acc`` accumulates (and returns) in a wider dtype — the
    fp32-accumulation path for float16 storage; the caller rounds the
    result back.  Chunk sizing still follows the *storage* bytes.
    """
    num_segments = indptr.shape[0] - 1
    out_dtype = np.dtype(acc) if acc is not None else edge_values.dtype
    if reduce == "sum":
        operator = incidence_operator(
            indptr, eids, edge_values.shape[0], out_dtype
        )
        return segment_sum(operator, edge_values, fill)
    if reduce != "max":
        raise KeyError(reduce)
    out_shape = (num_segments,) + edge_values.shape[1:]
    out = np.full(out_shape, fill, dtype=out_dtype)
    if num_segments == 0 or eids.shape[0] == 0:
        return out
    row_bytes = int(
        np.prod(edge_values.shape[1:], dtype=np.int64)
    ) * edge_values.dtype.itemsize
    if block_bytes is None:
        block_bytes = BLOCK_BYTES
    for lo, hi, p0, p1 in segment_blocks(
        indptr, int(block_bytes) // max(row_bytes, 1)
    ):
        if p1 == p0:
            continue
        chunk = edge_values[eids[p0:p1]].astype(out_dtype, copy=False)
        starts = indptr[lo:hi] - p0
        non_empty = indptr[lo + 1 : hi + 1] > indptr[lo:hi]
        # Trailing empty segments in the chunk share offset p1, so the
        # final reduceat slice (last non-empty start to end of chunk)
        # is exactly that segment — the same empty-segment guarantee
        # segment_reduce documents.
        out[lo:hi][non_empty] = np.maximum.reduceat(
            chunk, starts[non_empty], axis=0
        )
    return out


@register_backend("gather", "max", backend="blocked")
def _g_max_blocked(
    graph, edge_values, orientation, want_argmax
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    indptr, eids = _gather_layout(graph, orientation)
    finfo_min = (
        np.finfo(edge_values.dtype).min
        if np.issubdtype(edge_values.dtype, np.floating)
        else np.iinfo(edge_values.dtype).min
    )
    mx = blocked_segment_reduce(
        edge_values, indptr, eids, reduce="max", fill=finfo_min
    )
    argmax = None
    if want_argmax:
        # The argmax scan needs per-edge comparisons against the full
        # segment maxima; reuse the reference helper on the ordered
        # tensor (training-only path, not the serving hot loop).
        argmax = _segment_argmax(edge_values[eids], mx, indptr, eids)
    empty = np.diff(indptr) == 0
    if empty.any():
        mx[empty] = 0
    return mx, argmax
