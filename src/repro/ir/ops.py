"""Operator nodes and their per-node cost formulas.

Each node is a pure-metadata record: an operator kind, a function name
resolved against :mod:`repro.ir.functions`, named input/param/output
values, and an attribute dict.  Cost methods evaluate the paper's
counting conventions on a :class:`~repro.graph.stats.GraphStats`:

FLOPs
    ``Scatter``/``Apply`` cost their function's per-row FLOPs times the
    domain extent; ``Gather`` costs one FLOP per reduced element
    (``|E| × feat``).

DRAM IO (per *kernel boundary*; summed by the plan walker)
    Reading a vertex tensor through an edge index costs one row per
    **edge** (the random-access convention the paper uses when it counts
    ``2|E|h`` to read attention operands in §5); reading/writing a
    tensor in its own domain costs its own extent.  Within a fused
    kernel, producer–consumer edges cost nothing — that is exactly the
    saving fusion buys.

Memory
    A node's output occupies ``out_spec.nbytes`` while live; the stash
    decision (training) is made by the recomputation pass, not here.

The formulas only add ``|V|`` and ``|E|`` and scale them by numbers —
never ``float()``, ``int()``, ``max`` or a product of the two — so
:mod:`repro.exec.cost_form` can run them once on symbolic sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.graph.stats import GraphStats
from repro.ir.functions import get_apply_fn, get_scatter_fn, PARAM_GRAD_FNS
from repro.ir.tensorspec import Domain, TensorSpec

__all__ = ["OpKind", "OpNode", "GATHER_REDUCES", "LIGHTWEIGHT_PARAM_GRADS"]

GATHER_REDUCES = ("sum", "mean", "max")

# Parameter-gradient reductions cheap enough to fuse into graph kernels
# (tiny accumulator output, O(1) arithmetic per reduced element — on a
# GPU these are atomics into a (K,r)- or bias-shaped buffer).  GEMM-like
# weight gradients stay dense library kernels.
LIGHTWEIGHT_PARAM_GRADS = frozenset(
    {"bias_grad", "gaussian_mu_grad", "gaussian_sigma_grad",
     "param_scale_wgrad"}
)


class OpKind(Enum):
    """The operator taxonomy (paper §2.1, extended for training)."""

    SCATTER = "scatter"        # vertex -> edge
    GATHER = "gather"          # edge -> vertex (attrs: reduce, orientation)
    APPLY = "apply"            # within-domain transform (ApplyEdge/ApplyVertex)
    PARAM_GRAD = "param_grad"  # vertex/edge pair -> weight gradient
    VIEW = "view"              # zero-cost alias

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpKind.{self.name}"


@dataclass
class OpNode:
    """One operator in a :class:`~repro.ir.module.Module` DAG.

    Attributes
    ----------
    kind:
        Operator taxonomy entry.
    fn:
        Function name within the kind's registry.  For ``GATHER`` this is
        the reduction (``sum``/``mean``/``max``); for ``VIEW`` it is
        ``"view"``.
    inputs:
        Names of data-input values.  Convention for ``SCATTER``: the
        first input is read through the edge *source*, the second through
        the *destination* (unary copies list their single operand).
    params:
        Names of parameter-domain values consumed (weights).
    outputs:
        Names of produced values.  Single output everywhere except
        ``GATHER(max)`` which also emits its argmax indices as
        ``outputs[1]``.
    attrs:
        Function attributes (slopes, slice bounds, view shapes,
        gather orientation, …).
    macro:
        Optional macro id shared by nodes expanded from one builder
        macro call (``edge_softmax#3``) — baseline strategies use this to
        model framework-builtin fused kernels.
    """

    kind: OpKind
    fn: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    params: Tuple[str, ...] = ()
    attrs: Dict[str, Any] = field(default_factory=dict)
    macro: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Primary output name (doubles as the node's identity)."""
        return self.outputs[0]

    @property
    def orientation(self) -> str:
        """For GATHER: ``"in"`` (reduce by destination) or ``"out"``."""
        return self.attrs.get("orientation", "in")

    def all_inputs(self) -> Tuple[str, ...]:
        return self.inputs + self.params

    # ------------------------------------------------------------------
    # Classification used by the passes
    # ------------------------------------------------------------------
    def is_expensive(self) -> bool:
        """Expensive Apply- per §3 — fusion barrier, library kernel."""
        if self.kind is OpKind.APPLY:
            return get_apply_fn(self.fn).expensive
        if self.kind is OpKind.PARAM_GRAD:
            return self.fn not in LIGHTWEIGHT_PARAM_GRADS
        return False

    def is_graph_related(self) -> bool:
        """Scatter/Gather — the ops whose access pattern is the graph."""
        return self.kind in (OpKind.SCATTER, OpKind.GATHER)

    def is_fusible(self) -> bool:
        """Graph-related or lightweight Apply (§5's fusion scope)."""
        if self.kind is OpKind.VIEW:
            return True
        return not self.is_expensive()

    def out_domain(self, specs: Mapping[str, TensorSpec]) -> Domain:
        return specs[self.outputs[0]].domain

    # ------------------------------------------------------------------
    # Cost formulas
    # ------------------------------------------------------------------
    def flops(self, specs: Mapping[str, TensorSpec], stats: GraphStats) -> float:
        """Exact arithmetic cost of executing this node once."""
        V, E = stats.num_vertices, stats.num_edges
        if self.kind is OpKind.VIEW:
            return 0.0
        if self.kind is OpKind.SCATTER:
            fn = get_scatter_fn(self.fn)
            if fn.name == "max_grad":
                # Zero-fill |E| rows then route |V| gradient rows.
                out = specs[self.outputs[0]]
                return 1.0 * out.elements(V, E)
            u_shape = specs[self.inputs[0]].feat_shape if fn.reads_u else None
            v_idx = 1 if fn.reads_u and fn.reads_v else 0
            v_shape = specs[self.inputs[v_idx]].feat_shape if fn.reads_v else None
            return fn.flops_per_row(u_shape, v_shape) * E
        if self.kind is OpKind.GATHER:
            edge_spec = specs[self.inputs[0]]
            return 1.0 * E * edge_spec.feat_elements
        if self.kind is OpKind.APPLY:
            fn = get_apply_fn(self.fn)
            in_shapes = [specs[n].feat_shape for n in self.inputs]
            param_shapes = [specs[n].feat_shape for n in self.params]
            out_shape = specs[self.outputs[0]].feat_shape
            per_row = fn.flops_per_row(in_shapes, param_shapes, out_shape, self.attrs)
            rows = specs[self.outputs[0]].rows(V, E)
            return per_row * rows
        if self.kind is OpKind.PARAM_GRAD:
            return self._param_grad_flops(specs, stats)
        raise AssertionError(f"unhandled kind {self.kind}")

    def _param_grad_flops(self, specs, stats: GraphStats) -> float:
        V, E = stats.num_vertices, stats.num_edges
        rows = specs[self.inputs[0]].rows(V, E)
        out_elements = specs[self.outputs[0]].feat_elements
        if self.fn in ("linear_wgrad", "head_dot_wgrad"):
            return 2.0 * rows * out_elements
        if self.fn == "bias_grad":
            return 1.0 * rows * out_elements
        if self.fn == "param_scale_wgrad":
            in_elements = specs[self.inputs[0]].elements(V, E)
            return 2.0 * in_elements
        if self.fn in ("gaussian_mu_grad", "gaussian_sigma_grad"):
            return 5.0 * rows * out_elements
        raise KeyError(f"unknown param_grad fn {self.fn!r}")

    # ------------------------------------------------------------------
    def read_rows(
        self, input_name: str, specs: Mapping[str, TensorSpec], stats: GraphStats
    ) -> int:
        """Rows of ``input_name`` this node reads at a kernel boundary.

        Implements the paper's counting convention: vertex operands of a
        Scatter (and of an edge-producing special scatter) are fetched
        once per edge; everything else is streamed in its own extent.
        """
        V, E = stats.num_vertices, stats.num_edges
        spec = specs[input_name]
        if self.kind is OpKind.SCATTER:
            fn = get_scatter_fn(self.fn)
            if fn.vertex_direct_read:
                return spec.rows(V, E)
            if spec.domain is Domain.VERTEX:
                return E
        return spec.rows(V, E)

    def read_bytes(
        self, input_name: str, specs: Mapping[str, TensorSpec], stats: GraphStats
    ) -> int:
        spec = specs[input_name]
        # ``row_bytes`` (not ``feat_elements * itemsize``): quantized
        # rows drag their per-row scale through the memory system on
        # every access, and logical dtypes charge storage width.
        return self.read_rows(input_name, specs, stats) * spec.row_bytes

    def write_bytes(
        self, output_name: str, specs: Mapping[str, TensorSpec], stats: GraphStats
    ) -> int:
        spec = specs[output_name]
        return spec.nbytes(stats.num_vertices, stats.num_edges)

    # ------------------------------------------------------------------
    def recompute_cost_per_element(
        self, specs: Mapping[str, TensorSpec], stats: GraphStats
    ) -> float:
        """§6's ``ComputationCost / MemoryCost`` numerator, per element.

        FLOPs to reproduce one element of this node's primary output.
        Gather-style reductions cost their mean segment length; per-row
        functions cost their per-element arithmetic.
        """
        out = specs[self.outputs[0]]
        out_elements = out.elements(stats.num_vertices, stats.num_edges)
        if out_elements == 0:
            return 0.0
        return self.flops(specs, stats) / out_elements

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = f" params={list(self.params)}" if self.params else ""
        macro = f" macro={self.macro}" if self.macro else ""
        return (
            f"<{self.kind.value}:{self.fn} {list(self.inputs)} -> "
            f"{list(self.outputs)}{params}{macro}>"
        )
