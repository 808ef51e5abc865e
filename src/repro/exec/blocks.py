"""Cache-sized blocks of edge rows.

:data:`BLOCK_BYTES` is the walk's constant: ``Engine._walk`` cuts a
fused kernel into blocks of home rows by :func:`segment_blocks`, each
holding ~``BLOCK_BYTES`` of block-local edge tensors.
:data:`DOT_CHUNK_BYTES` is the ``u_dot_v`` scatter's
(:mod:`repro.exec.kernels`): it builds its per-edge products that many
bytes of gathered rows at a time.  Both are read at call time, so a
test may shrink them to force many blocks or chunks.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = ["BLOCK_BYTES", "DOT_CHUNK_BYTES", "segment_blocks"]

#: Target bytes of edge rows held live per block (the widest set of a
#: walk's block-local edge tensors).
#: Measured, not derived from a cache size: since each block's sum
#: became one CSR product a walk is bound by per-block dispatch, and a
#: gat/cora training step reads 0.050 / 0.044 / 0.041 / 0.038 / 0.037 s
#: at 2^20 / 2^21 / 2^22 / 2^23 / 2^24 against 0.044 unwalked.  2^22
#: takes most of that while a step's resident set grows < 5%.
BLOCK_BYTES = 1 << 22

#: Target bytes of gathered rows per ``u_dot_v`` chunk (both operands'
#: rows of each edge), well inside a core's L2 (2 MiB on the measuring
#: 2-vCPU host).  gat/cora's ``(4, 64)`` float32 dot step reads 3.8 ms
#: a call at 4 MiB chunks, 3.0 at 256 and 512 KiB, 3.7 at 128 KiB
#: (per-chunk dispatch) — medians of 40 calls, one BLAS thread.  Ten
#: alternating ``train-gat-cora`` pairs against 4 MiB chunks, nothing
#: else changed: ``peak_rss_mb`` 96.8 → 95.5 MiB (10/10), ``iter_p50_s``
#: .0229 → .0217 s (6/10, within noise).
DOT_CHUNK_BYTES = 1 << 18


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
