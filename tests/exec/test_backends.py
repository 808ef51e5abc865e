"""Multi-backend kernel registry: dispatch, differential suite, threading.

Three layers of contract:

- **Registry** — backend names canonicalise (``"numpy"`` →
  ``"reference"``), unknown names fail with the available list, and
  per-op resolution falls back to the reference kernel whenever a
  backend ships no override.
- **Differential suite** — every registered non-reference backend must
  reproduce the NumPy oracle on full training steps across the model
  zoo, including degenerate graphs.  Backends declared
  ``bit_identical`` (``blocked`` preserves CSC/CSR reduction order)
  compare exactly; one declared otherwise (none ships; a registered
  backend may reassociate) gets the documented ≤ 1e-5 relative
  tolerance.  A fast four-model subset runs in tier-1; the full zoo is
  ``slow``.
- **Threading** — ``ExecutionStrategy.backend``, ``Session.backend()``,
  ``run_sweep(backend=...)``, ``Engine``/``MultiEngine``, and the
  Trainer/serving paths all carry the selection end to end, and the
  analytic counters never depend on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import Engine, MultiEngine
from repro.exec.backend_blocked import BLOCK_BYTES, blocked_segment_reduce
from repro.exec.kernel_registry import (
    available_backends,
    backend_info,
    canonical_backend,
    get_backend,
    resolve_kernel,
)
from repro.exec.kernels import gather_kernel, segment_reduce
from repro.frameworks import compile_training, get_strategy
from repro.graph import Graph, chung_lu
from repro.registry import MODELS
from repro.session import Session, run_sweep

from tests.helpers import training_values

IN_DIM, NUM_CLASSES = 6, 4

EMPTY = Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5)
SINGLE = Graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 1)
LOOPS = Graph(np.arange(3), np.arange(3), 4)  # + isolated vertex 3

_ALT_BACKENDS = [b for b in available_backends() if b != "reference"]


# ======================================================================
# Registry mechanics
# ======================================================================
class TestRegistry:
    def test_reference_always_first(self):
        names = available_backends()
        assert names[0] == "reference"
        assert "blocked" in names  # pure NumPy: unconditionally present

    def test_numpy_alias(self):
        assert canonical_backend("numpy") == "reference"
        assert get_backend("numpy").name == "reference"

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="available backends"):
            canonical_backend("cuda")

    def test_backend_info(self):
        assert backend_info("reference").bit_identical
        assert backend_info("blocked").bit_identical

    def test_fallback_to_reference(self):
        # blocked ships only the max gather (sums are one CSR product
        # in the reference already); every other op must resolve to the
        # reference implementation.
        blocked = get_backend("blocked")
        assert blocked.overrides("gather", "max")
        assert not blocked.overrides("apply", "relu")
        for reduce in ("sum", "mean"):
            assert not blocked.overrides("gather", reduce)
            assert resolve_kernel("gather", reduce, "blocked") is resolve_kernel(
                "gather", reduce
            )
        assert resolve_kernel("apply", "relu", "blocked") is resolve_kernel(
            "apply", "relu"
        )

    def test_unknown_fn_raises(self):
        with pytest.raises(KeyError, match="no apply kernel"):
            resolve_kernel("apply", "wavelet")

    def test_bundles_are_memoised(self):
        assert get_backend("blocked") is get_backend("blocked")

    def test_engine_validates_backend(self, tiny_graph):
        with pytest.raises(ValueError):
            Engine(tiny_graph, backend="cuda")
        assert Engine(tiny_graph, backend="numpy").backend == "reference"


# ======================================================================
# The blocked backend, unit level
# ======================================================================
class TestBlockedSegmentReduce:
    def _layout(self, graph, orientation="in"):
        if orientation == "in":
            return graph.csc_indptr, graph.csc_eids
        return graph.csr_indptr, graph.csr_eids

    @pytest.mark.parametrize("reduce", ["sum", "max"])
    @pytest.mark.parametrize("orientation", ["in", "out"])
    def test_bit_identical_to_reference(
        self, small_graph, rng, reduce, orientation
    ):
        edge = rng.normal(size=(small_graph.num_edges, 7)).astype(np.float32)
        indptr, eids = self._layout(small_graph, orientation)
        want = segment_reduce(edge[eids], indptr, reduce=reduce)
        got = blocked_segment_reduce(edge, indptr, eids, reduce=reduce)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("block_bytes", [1, 64, 4096, BLOCK_BYTES])
    def test_chunk_boundaries(self, small_graph, rng, block_bytes):
        # block_bytes=1 forces a chunk per vertex — every boundary case
        # (empty segments straddling chunks, a chunk ending mid-segment
        # is impossible by construction) is exercised.
        edge = rng.normal(size=(small_graph.num_edges, 3)).astype(np.float32)
        indptr, eids = self._layout(small_graph)
        want = segment_reduce(edge[eids], indptr, reduce="sum")
        got = blocked_segment_reduce(
            edge, indptr, eids, reduce="sum", block_bytes=block_bytes
        )
        np.testing.assert_array_equal(got, want)

    def test_high_degree_vertex_spans_chunks(self):
        # One vertex owning nearly all edges: the chunker must clamp to
        # at least one full vertex per chunk and still reduce it whole.
        src = np.concatenate([np.zeros(500, dtype=np.int64), [1, 2]])
        dst = np.concatenate([np.full(500, 3, dtype=np.int64), [0, 3]])
        graph = Graph(src, dst, 5)
        edge = np.random.default_rng(0).normal(
            size=(graph.num_edges, 2)
        ).astype(np.float32)
        want, _ = gather_kernel("sum", graph, edge)
        got, _ = get_backend("blocked").gather("sum", graph, edge)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("graph", [EMPTY, SINGLE, LOOPS])
    @pytest.mark.parametrize("reduce", ["sum", "mean", "max"])
    def test_degenerate_graphs(self, graph, reduce, rng):
        edge = rng.normal(size=(graph.num_edges, 3)).astype(np.float32)
        for orientation in ("in", "out"):
            want, _ = gather_kernel(
                reduce, graph, edge, orientation=orientation
            )
            got, _ = get_backend("blocked").gather(
                reduce, graph, edge, orientation=orientation
            )
            np.testing.assert_array_equal(got, want)

    def test_max_argmax_matches_reference(self, small_graph, rng):
        edge = rng.normal(size=(small_graph.num_edges, 4)).astype(np.float32)
        want, want_arg = gather_kernel(
            "max", small_graph, edge, want_argmax=True
        )
        got, got_arg = get_backend("blocked").gather(
            "max", small_graph, edge, want_argmax=True
        )
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_arg, want_arg)


# ======================================================================
# Differential suite: backends vs the NumPy oracle
# ======================================================================
def _assert_backend_matches(got, want, *, bit_identical, context):
    assert set(got) == set(want), context
    for name in sorted(got):
        a, b = np.asarray(got[name]), np.asarray(want[name])
        assert a.shape == b.shape, f"{context}:{name}"
        assert a.dtype == b.dtype, f"{context}:{name}"
        if bit_identical:
            assert np.array_equal(a, b), (
                f"{context}:{name}: backend declared bit_identical but "
                f"differs by {float(np.abs(a - b).max()):.3e}"
            )
        else:
            # Documented tolerance for reassociating backends.
            np.testing.assert_allclose(
                a, b, rtol=1e-5, atol=1e-8, err_msg=f"{context}:{name}"
            )


def _training_run(
    model_name, graph, backend, strategy_name="dgl-like", num_parts=None
):
    """One training step on ``backend``; partitioned when ``num_parts``."""
    model = MODELS.get(model_name)(IN_DIM, NUM_CLASSES)
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(graph.num_vertices, IN_DIM))
    params = model.init_params(0)
    compiled = compile_training(model, get_strategy(strategy_name))
    if num_parts is None:
        engine = Engine(graph, precision="float64", backend=backend)
    else:
        engine = MultiEngine(
            graph, num_parts, precision="float64", backend=backend
        )
    assert engine.backend == backend
    outs, grads = training_values(engine, compiled, feats, params)
    return {**outs, **{f"grad:{k}": v for k, v in grads.items()}}


@pytest.fixture(scope="module")
def diff_graph() -> Graph:
    return chung_lu(40, 200, seed=5)


class TestBackendDifferential:
    """Every backend reproduces the reference oracle on training steps."""

    @pytest.mark.parametrize("num_parts", [None, 3])
    @pytest.mark.parametrize("model_name", ["gat", "gcn", "sage", "gin"])
    def test_core_models(self, diff_graph, model_name, num_parts):
        # num_parts=3: the same hash partition on both sides, so the
        # backend axis crosses the partitioned path (halo operands,
        # out-graphs, trimmed gathers) and not just the single graph.
        reference = _training_run(
            model_name, diff_graph, "reference", num_parts=num_parts
        )
        for backend in _ALT_BACKENDS:
            got = _training_run(
                model_name, diff_graph, backend, num_parts=num_parts
            )
            _assert_backend_matches(
                got, reference,
                bit_identical=backend_info(backend).bit_identical,
                context=f"{model_name}/{backend}/P={num_parts}",
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("num_parts", [None, 3])
    @pytest.mark.parametrize("model_name", sorted(MODELS.names()))
    def test_full_zoo(self, diff_graph, model_name, num_parts):
        # Same strategy on both sides: the backend axis must be
        # value-preserving per *plan* (strategies themselves reassociate
        # legitimately and are covered by test_differential.py).
        for strategy in ("dgl-like", "ours"):
            reference = _training_run(
                model_name, diff_graph, "reference", strategy, num_parts
            )
            for backend in _ALT_BACKENDS:
                got = _training_run(
                    model_name, diff_graph, backend, strategy, num_parts
                )
                _assert_backend_matches(
                    got, reference,
                    bit_identical=backend_info(backend).bit_identical,
                    context=f"{model_name}/{backend}/{strategy}/P={num_parts}",
                )

    @pytest.mark.parametrize("graph", [EMPTY, SINGLE, LOOPS])
    def test_degenerate_graphs(self, graph):
        reference = _training_run("gcn", graph, "reference")
        for backend in _ALT_BACKENDS:
            got = _training_run("gcn", graph, backend)
            _assert_backend_matches(
                got, reference,
                bit_identical=backend_info(backend).bit_identical,
                context=f"gcn/{backend}/V={graph.num_vertices}",
            )


# ======================================================================
# Threading: strategy → session → engines
# ======================================================================
class TestBackendThreading:
    def test_strategy_canonicalises(self):
        s = get_strategy("ours")
        from dataclasses import replace

        assert s.backend == "reference"
        assert replace(s, backend="numpy").backend == "reference"
        assert replace(s, backend="blocked").backend == "blocked"

    def test_strategy_rejects_unknown(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="available backends"):
            replace(get_strategy("ours"), backend="cuda")

    def test_session_backend_setter(self):
        s = Session().model("gat").dataset("cora").strategy("ours")
        assert s.resolve_strategy().backend == "reference"
        s.backend("blocked")
        assert s.resolve_strategy().backend == "blocked"
        s.backend("numpy")
        assert s.resolve_strategy().backend == "reference"
        s.backend(None)
        assert s.resolve_strategy().backend == "reference"

    def test_session_backend_validates(self):
        with pytest.raises(ValueError, match="available backends"):
            Session().backend("cuda")

    def test_counters_are_backend_independent(self):
        base = Session().model("gat").dataset("cora").strategy("ours")
        blocked = (
            Session().model("gat").dataset("cora").strategy("ours")
            .backend("blocked")
        )
        a, b = base.counters(), blocked.counters()
        assert a.flops == b.flops
        assert a.io_bytes == b.io_bytes
        assert a.peak_memory_bytes == b.peak_memory_bytes

    def test_run_sweep_backend_axis(self):
        sweep = run_sweep(
            models=["gcn"],
            datasets=["cora"],
            strategies=["ours"],
            backend=[None, "blocked"],
            feature_dim=16,
        )
        assert {r.backend for r in sweep.rows} == {None, "blocked"}
        default, blocked = sweep.by(backend=None), sweep.by(backend="blocked")
        assert len(default) == len(blocked) == 1
        assert default[0].flops == blocked[0].flops
        assert "backend" in sweep.table().splitlines()[1]
        assert "backend" in default[0].to_dict()

    def test_run_sweep_single_backend_string(self):
        sweep = run_sweep(
            models=["gcn"],
            datasets=["cora"],
            strategies=["ours"],
            backend="blocked",
            feature_dim=16,
        )
        assert [r.backend for r in sweep.rows] == ["blocked"]

    def test_trainer_threads_backend(self, small_graph):
        from dataclasses import replace

        from repro.train.loop import Trainer

        model = MODELS.get("gcn")(IN_DIM, NUM_CLASSES)
        strategy = replace(get_strategy("ours"), backend="blocked")
        compiled = compile_training(model, strategy)
        trainer = Trainer(compiled, small_graph)
        assert trainer.engine.backend == "blocked"

    def test_engine_results_match_across_backends(self, small_graph, rng):
        # End-to-end spot check through the engine (not the kernels
        # directly): blocked is bit-identical on a full training step.
        reference = _training_run("gat", small_graph, "reference")
        blocked = _training_run("gat", small_graph, "blocked")
        _assert_backend_matches(
            blocked, reference, bit_identical=True, context="gat/blocked"
        )

