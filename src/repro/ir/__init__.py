"""Operator IR implementing the paper's GNN abstraction (§2.1, Appendix A).

The IR expresses a GNN layer as a DAG of fine-grained operators over
vertex-, edge-, and parameter-domain tensors:

- ``Scatter`` — per-edge binary function of the two endpoint features,
- ``Gather`` — per-vertex reduction over incident edge features,
- ``Apply`` — graph-irrelevant transformation of features within one
  domain (the paper's ``ApplyEdge`` / ``ApplyVertex``, unified because
  the function set is identical),
- ``ParamGrad`` — cross-row reductions producing weight gradients,
- ``View`` — zero-cost shape aliasing.

Composite operators (``Aggregate``, ``ReduceScatter``/edge-softmax) are
builder macros that expand into the basic set while tagging the emitted
nodes with a shared macro id — the hook baseline strategies use to model
framework-builtin fused kernels (e.g. DGL's edge-softmax and gSpMM).

Module layout:

- :mod:`tensorspec` — tensor domains and byte/element accounting,
- :mod:`functions` — the function registry with the algebraic metadata
  (linearity, concat-decomposability, FLOP formulas) that the
  reorganization pass needs,
- :mod:`ops` — operator node structures and per-node cost formulas,
- :mod:`module` / :mod:`builder` — the DAG container and the authoring
  API used by the model zoo,
- :mod:`autodiff` — backward-graph construction (Appendix B rules),
- :mod:`validate` — structural invariants,
- :mod:`printer` — Graphviz DOT dumps.
"""

from repro.ir.tensorspec import Domain, TensorSpec
from repro.ir.functions import (
    ScatterFn,
    ApplyFn,
    get_scatter_fn,
    get_apply_fn,
    list_scatter_fns,
    list_apply_fns,
)
from repro.ir.ops import OpKind, OpNode
from repro.ir.module import Module
from repro.ir.builder import Builder, Val
from repro.ir.autodiff import differentiate, TrainingGraph
from repro.ir.validate import validate_module
from repro.ir.printer import to_dot

__all__ = [
    "Domain",
    "TensorSpec",
    "ScatterFn",
    "ApplyFn",
    "get_scatter_fn",
    "get_apply_fn",
    "list_scatter_fns",
    "list_apply_fns",
    "OpKind",
    "OpNode",
    "Module",
    "Builder",
    "Val",
    "differentiate",
    "TrainingGraph",
    "validate_module",
    "to_dot",
]
