"""Sort-free partition summaries against naive references, under hypothesis.

The expected-partition summary (:meth:`PartitionStats.from_stats`) and
the concrete partitioner price a sweep point from degree facts alone,
so they run in O(|V|) with no sort.  Each case below draws inputs and
holds the fast path to the plain version it replaced:

- ``rescale``: ``_rescale_to_sum`` (selection threshold, lowest indices
  among ties) equals largest-remainder rounding by a stable ``argsort``
  — on ties, all-zero, empty and negative targets;
- ``exact``: ``_rescale_to_sum`` against exact rational arithmetic
  (``fractions.Fraction``), which no float reference can stand in for:
  non-negative, summing to the target, each entry within 1 of its
  exact share — on ordinary, subnormal and near-``float64``-max arrays;
  ``inf`` / ``nan`` entries raise;
- ``spread``: the closed form equals rescaling an all-ones array;
- ``ghosts``: the mask-built ghost sets equal ``np.unique`` of the
  remote endpoints, the halo and cut counts equal ``np.isin`` and a
  whole-edge scan — empty parts included;
- ``maxima``: a :class:`GraphStats`' cached maxima equal ``.max()``, its
  stored degree arrays refuse writes, and the caller's arrays stay
  writeable and unaliased;
- ``greedy``: the greedy partitioner over one neighbour CSR equals the
  per-vertex loop it replaced (a concatenated neighbour slice, a
  float64 score array, ``argmax``) — full parts, ties and isolated
  vertices included.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.graph import Graph  # noqa: E402
from repro.graph.partition import (  # noqa: E402
    _rescale_to_sum,
    _even_split,
    greedy_edge_cut_assignment,
    partition_graph,
)
from repro.graph.stats import GraphStats, _degree_order  # noqa: E402


def _rescale_by_argsort(arr: np.ndarray, target: int) -> np.ndarray:
    """Largest-remainder rounding the plain way: a stable sort, after
    the power-of-two normalisation ``_rescale_to_sum`` specifies for a
    total that is subnormal or overflows, or leaves ``target / total``
    unrepresentable."""
    target = max(int(target), 0)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    arr = np.maximum(arr.astype(np.float64), 0.0)
    with np.errstate(over="ignore"):
        total = arr.sum()
        normal = np.finfo(np.float64).tiny <= total < np.inf and np.isfinite(target / total)
    if total <= 0:
        arr = np.ones(arr.size, dtype=np.float64)
        total = float(arr.size)
    elif not normal:
        arr = np.ldexp(arr, -np.frexp(arr.max())[1])
        total = arr.sum()
    scaled = arr * (target / total)
    base = np.floor(scaled).astype(np.int64)
    remainder = target - int(base.sum())
    if remainder > 0:
        order = np.argsort(-(scaled - base), kind="stable")
        base[order[:remainder]] += 1
    return base


def _rescale(data) -> None:
    # Few distinct values, so fractional parts tie often.
    values = data.draw(st.sampled_from([
        st.integers(-2, 4), st.just(0), st.floats(0, 50, allow_nan=False),
    ]))
    arr = np.array(data.draw(st.lists(values, max_size=40)), dtype=np.float64)
    target = data.draw(st.integers(-10, 400))
    _check_rescale(arr, target)


def _check_rescale(arr: np.ndarray, target: int) -> None:
    got = _rescale_to_sum(arr, target)
    np.testing.assert_array_equal(got, _rescale_by_argsort(arr, target))
    assert got.dtype == np.int64


_MAX = float(np.finfo(np.float64).max)
_SUBNORMAL = 5e-324


def _exact(data) -> None:
    # Ordinary magnitudes, multiples of the smallest subnormal (whose
    # total is subnormal too), and values near float64's maximum (whose
    # total overflows).
    values = data.draw(st.sampled_from([
        st.floats(-1, 50, allow_nan=False),
        st.integers(-3, 40).map(lambda k: k * _SUBNORMAL),
        st.floats(_MAX / 4, _MAX),
        st.sampled_from([0.0, 1.0, _SUBNORMAL, _MAX]),
    ]))
    arr = np.array(data.draw(st.lists(values, min_size=1, max_size=40)),
                   dtype=np.float64)
    target = data.draw(st.integers(-10, 10**9))
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, arr.size - 1))
        arr[at] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        with pytest.raises(ValueError, match="non-finite"):
            _rescale_to_sum(arr, target)
        return
    got = _rescale_to_sum(arr, target)
    target = max(target, 0)
    exact = [Fraction(float(v)) if v > 0 else Fraction(0) for v in arr]
    total = sum(exact)
    if total == 0:
        exact, total = [Fraction(1)] * arr.size, Fraction(arr.size)
    assert got.dtype == np.int64
    assert (got >= 0).all()
    assert int(got.sum()) == target
    for g, share in zip(got.tolist(), exact):
        assert abs(g - share * target / total) <= 1


def _spread_case(data) -> None:
    n = data.draw(st.integers(0, 60))
    target = data.draw(st.integers(-10, 1000))
    got = _even_split(n, target)
    ones = np.ones(n, dtype=np.int64)
    np.testing.assert_array_equal(got, _rescale_to_sum(ones, target))
    np.testing.assert_array_equal(got, _rescale_by_argsort(ones, target))


def _ghosts(data) -> None:
    n = data.draw(st.integers(1, 30))
    m = data.draw(st.integers(0, 90))
    endpoint = st.integers(0, n - 1)
    src = np.array(data.draw(st.lists(endpoint, min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(data.draw(st.lists(endpoint, min_size=m, max_size=m)), dtype=np.int64)
    graph = Graph(src, dst, n)
    # More parts than vertices leaves some parts empty.
    num_parts = data.draw(st.integers(1, 8))
    method = data.draw(st.sampled_from(["hash", "range", "greedy"]))
    partition = partition_graph(graph, num_parts, method=method)
    owner = partition.assignment
    for p, part in enumerate(partition.parts):
        in_e, out_e = part.in_edge_ids, part.out_edge_ids
        ghost_src = np.unique(src[in_e][owner[src[in_e]] != p])
        ghost_dst = np.unique(dst[out_e][owner[dst[out_e]] != p])
        np.testing.assert_array_equal(part.ghost_src, ghost_src)
        np.testing.assert_array_equal(part.ghost_dst, ghost_dst)
        assert part.ghost_src.dtype == part.ghost_dst.dtype == np.int64
        assert part.halo_out_edges == int(
            out_e.size - np.isin(out_e, in_e, assume_unique=True).sum()
        )
    assert partition.cut_edges == int((owner[src] != owner[dst]).sum())


def _maxima(data) -> None:
    n = data.draw(st.integers(0, 40))
    ind = np.array(data.draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)),
                   dtype=np.int64)
    outd = ind[np.random.default_rng(data.draw(st.integers(0, 9))).permutation(n)]
    stats = GraphStats(n, int(ind.sum()), ind, outd)
    assert stats.max_in_degree == (int(ind.max()) if n else 0)
    assert stats.max_out_degree == (int(outd.max()) if n else 0)
    for stored in (stats.in_degrees, stats.out_degrees):
        assert not np.may_share_memory(stored, ind)
        assert not np.may_share_memory(stored, outd)
        with pytest.raises(ValueError):
            stored[...] = 0
    # The caller's arrays are neither frozen nor read back.
    ind[...] = 99
    assert ind.flags.writeable
    assert stats.max_in_degree == (int(stats.in_degrees.max()) if n else 0)


def _greedy_per_vertex(graph, num_parts, balance_slack):
    """Greedy partitioning the plain way: per vertex, its neighbour
    slices concatenated, a float64 score array and ``argmax``."""
    V = graph.num_vertices
    cap = int(np.ceil(V / num_parts * balance_slack))
    assignment = np.full(V, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.int64)
    for v in _degree_order(graph.in_degrees + graph.out_degrees):
        neighbours = np.concatenate([
            graph.csc_src[graph.csc_indptr[v]:graph.csc_indptr[v + 1]],
            graph.csr_dst[graph.csr_indptr[v]:graph.csr_indptr[v + 1]],
        ])
        placed = assignment[neighbours]
        placed = placed[placed >= 0]
        score = np.zeros(num_parts, dtype=np.float64)
        if placed.size:
            score += np.bincount(placed, minlength=num_parts)
        score *= 1.0 - sizes / cap
        score[sizes >= cap] = -np.inf
        assignment[v] = int(np.argmax(score))
        sizes[assignment[v]] += 1
    return assignment


def _greedy(data) -> None:
    n = data.draw(st.integers(1, 40))
    m = data.draw(st.integers(0, 120))
    endpoint = st.integers(0, n - 1)
    src = np.array(data.draw(st.lists(endpoint, min_size=m, max_size=m)), dtype=np.int64)
    dst = np.array(data.draw(st.lists(endpoint, min_size=m, max_size=m)), dtype=np.int64)
    graph = Graph(src, dst, n)
    num_parts = data.draw(st.integers(1, 8))
    slack = data.draw(st.sampled_from([1.0, 1.05, 1.5, 3.0]))
    got = greedy_edge_cut_assignment(graph, num_parts, balance_slack=slack)
    np.testing.assert_array_equal(got, _greedy_per_vertex(graph, num_parts, slack))


CASES = {
    "rescale": _rescale,
    "exact": _exact,
    "spread": _spread_case,
    "ghosts": _ghosts,
    "maxima": _maxima,
    "greedy": _greedy,
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_matches_naive_reference(case, data):
    CASES[case](data)


# The ``rescale`` draws found this subnormal total; a reference without
# the normalisation read INT64_MIN + 1 where the program reads [1].
@settings(max_examples=50, deadline=None)
@example(arr=[2.2250738585e-313], target=1)
@given(arr=st.lists(st.floats(0, 1e-300), min_size=1, max_size=8),
       target=st.integers(0, 400))
def test_rescale_normalises_tiny_totals(arr, target):
    _check_rescale(np.array(arr, dtype=np.float64), target)
