"""Model base class: module construction + parameter/input binding."""

from __future__ import annotations

import abc
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import Graph
from repro.ir.module import Module
from repro.ir.tensorspec import Domain

__all__ = ["GNNModel", "glorot", "zeros"]


def glorot(rng: np.random.Generator, shape) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    shape = tuple(shape)
    fan_in = shape[0] if len(shape) > 1 else shape[-1]
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


def zeros(shape) -> np.ndarray:
    return np.zeros(tuple(shape), dtype=np.float64)


class GNNModel(abc.ABC):
    """A GNN architecture that can emit its IR and bind its data.

    Subclasses implement :meth:`build_module` (the naive computation
    graph), :meth:`init_params`, and — when the model consumes
    graph-derived edge inputs such as MoNet's pseudo-coordinates or
    GCN's symmetric normalisation — :meth:`edge_inputs`.
    """

    #: Whether DGL's module library ships a hand-reorganized version of
    #: this model (§8.1: DGL's GAT splits the edge projection into two
    #: vertex-side projections).  The DGL baseline strategy honours it.
    dgl_library_reorganized: bool = False

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Diagnostic model name (includes the main hyper-parameters)."""

    @abc.abstractmethod
    def build_module(self) -> Module:
        """The naive (un-reorganized) forward computation graph."""

    @abc.abstractmethod
    def init_params(self, seed: int = 0) -> Dict[str, np.ndarray]:
        """Fresh parameter arrays, keyed by the module's param names."""

    @cached_property
    def _input_names(self) -> Tuple[str, ...]:
        """The module's data-input names, resolved once per instance."""
        return tuple(self.build_module().inputs)

    # ------------------------------------------------------------------
    def edge_inputs(self, graph: Graph) -> Dict[str, np.ndarray]:
        """Graph-derived edge-domain inputs (empty for most models)."""
        return {}

    def make_inputs(
        self,
        graph: Graph,
        features: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Assemble the data-input dict for a concrete run.

        Binds by the model's input names, resolved from one
        :meth:`build_module` per instance (a model's architecture is
        fixed at construction), so per-batch callers build and validate
        no module.
        """
        return self.bind_inputs(features, self.edge_inputs(graph))

    def bind_inputs(
        self,
        features: np.ndarray,
        edge: Dict[str, np.ndarray],
    ) -> Dict[str, np.ndarray]:
        """:meth:`make_inputs` from :meth:`edge_inputs` already in hand —
        a caller whose graph is fixed computes them once."""
        arrays: Dict[str, np.ndarray] = {}
        for name in self._input_names:
            if name == "h":
                arrays[name] = features
            elif name in edge:
                arrays[name] = edge[name]
            elif name.startswith("g_"):
                continue  # graph constants: the engine supplies these
            else:
                raise KeyError(
                    f"{self.name}: no binding for module input {name!r}"
                )
        return arrays
