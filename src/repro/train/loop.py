"""Loss functions and the concrete training loop."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exec.engine import Engine
from repro.frameworks.strategy import CompiledTraining
from repro.graph.csr import Graph
from repro.ir.autodiff import grad_seed_name
from repro.ir.module import GRAPH_CONSTANTS
from repro.ir.tensorspec import LOGICAL_DTYPES
from repro.train.optim import Optimizer

__all__ = ["softmax_cross_entropy", "accuracy", "Trainer"]


def softmax_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Mean masked cross-entropy and its gradient w.r.t. ``logits``.

    Returns ``(loss, grad)`` where ``grad`` has the shape of ``logits``
    and is already divided by the number of contributing rows.
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be (rows, classes), got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must be ({n},), got {labels.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    # 1e-30 is 0 in float16: floor at the dtype's smallest normal there.
    floor = max(1e-30, np.finfo(probs.dtype).tiny)
    nll = -np.log(np.maximum(probs[rows, labels], floor))
    if mask is None:
        count = n
        loss = float(nll.mean())
        grad = probs.copy()
        grad[rows, labels] -= 1.0
        grad /= count
    else:
        mask = mask.astype(bool)
        count = max(int(mask.sum()), 1)
        loss = float(nll[mask].sum() / count)
        grad = np.zeros_like(probs)
        grad[mask] = probs[mask]
        grad[rows[mask], labels[mask]] -= 1.0
        grad /= count
    return loss, grad


def accuracy(
    logits: np.ndarray, labels: np.ndarray, mask: Optional[np.ndarray] = None
) -> float:
    pred = logits.argmax(axis=1)
    hit = pred == labels
    if mask is not None:
        hit = hit[mask.astype(bool)]
    return float(hit.mean()) if hit.size else 0.0


class Trainer:
    """Drives one compiled training configuration on one graph.

    A float32 trainer runs every step from its second on in one reused
    arena: at step two it plans ``compiled.memory_plan(graph.stats())``
    once (step one ran on fresh storage; a one-step trainer never pays
    for planning), and from then on each value is written into its
    storage by its kernel — one buffer per step, kernels with no
    in-place path keeping fresh storage (see
    :class:`~repro.exec.engine.Engine`).  The stash crosses from forward
    to backward in the arrays the previous step's forward returned, so
    it is not allocated per step.  Losses and parameters are
    bit-identical to fresh storage, and the measured ledger is the
    unpinned one it was.  Trainers whose plans an arena refuses —
    float64 engines, bf16/int8 storage — never plan.

    Parameters
    ----------
    compiled:
        Output of :func:`repro.frameworks.compile_training`.
    graph:
        Concrete topology.
    params:
        Initial parameter arrays (defaults to the model's initialiser).
    precision:
        Engine float dtype.
    """

    def __init__(
        self,
        compiled: CompiledTraining,
        graph: Graph,
        *,
        params: Optional[Dict[str, np.ndarray]] = None,
        precision: str = "float64",
        seed: int = 0,
    ):
        self.compiled = compiled
        self.graph = graph
        self.engine = Engine(graph, precision=precision)
        #: Measured live-byte high-watermark of the last train/eval step
        #: (max over the forward and backward plan walks).
        self.last_peak_bytes: int = 0
        self.params = dict(
            params if params is not None else compiled.model.init_params(seed)
        )
        if len(compiled.forward.outputs) != 1:
            raise ValueError("Trainer expects a single-output model")
        self.output_name = compiled.forward.outputs[0]
        #: Graph-derived inputs (GCN's normalisation, RGCN's relation
        #: masks, MoNet's pseudo-coordinates) in engine storage: the
        #: graph is fixed, so they are computed and cast here, not on
        #: every step.
        specs = compiled.forward.specs
        self._edge_inputs = {
            name: self.engine._wrap(name, specs[name], arr)
            for name, arr in compiled.model.edge_inputs(graph).items()
            if name in specs
        }
        self._steps = 0
        self._plans_arena = (
            self.engine.precision == np.dtype("float32")
            and {s.dtype for s in specs.values()}.isdisjoint(LOGICAL_DTYPES)
        )
        #: The last step's forward results: the storage the next step's
        #: forward leaves its results in (arena steps only).
        self._stash: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def forward(
        self, features: np.ndarray, *, distance: Optional[np.ndarray] = None
    ) -> Dict[str, np.ndarray]:
        """Run the forward plan; returns outputs plus stash (wrapped).

        With ``distance`` the output holds the seeds' rows only and the
        stash the rings the backward reads (see :meth:`train_step`).
        """
        return self._forward(features, None, distance)

    def _forward(
        self,
        features: np.ndarray,
        out: Optional[Dict[str, np.ndarray]] = None,
        distance: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        arrays = self.compiled.model.bind_inputs(features, self._edge_inputs)
        arrays.update(self.params)
        env = self.engine.bind(self.compiled.forward, arrays)
        self._fwd_env = env
        return self.engine.run_plan(
            self.compiled.fwd_plan, env, unwrap=False, out=out,
            distance=distance, rings=self._rings(distance, 0),
        )

    def _rings(self, distance: Optional[np.ndarray], phase: int):
        """The ring map of ``phase`` (0 forward, 1 backward) for a step
        on ``distance``; ``None`` for a whole-field step."""
        return None if distance is None else self.compiled.rings()[phase]

    def backward(
        self,
        fwd_result: Dict[str, np.ndarray],
        seed_grad: np.ndarray,
        *,
        distance: Optional[np.ndarray] = None,
    ) -> Dict[str, np.ndarray]:
        """Run the backward plan; returns parameter gradients.

        With ``distance``, ``fwd_result`` is what a forward on the same
        ``distance`` returned and ``seed_grad`` holds the seeds' rows
        only (see :meth:`train_step`).
        """
        bwd_module = self.compiled.bwd_plan.module
        env: Dict[str, np.ndarray] = {}
        seed_name = grad_seed_name(self.output_name)
        for name in list(bwd_module.inputs) + list(bwd_module.params):
            if name == seed_name:
                env[name] = seed_grad.astype(self.engine.precision, copy=False)
            elif name in GRAPH_CONSTANTS:
                env[name] = self.engine.graph_constant(name)
            elif name in fwd_result:
                env[name] = fwd_result[name]
            elif name in self._fwd_env:
                env[name] = self._fwd_env[name]
            else:
                raise KeyError(f"backward input {name!r} unavailable")
        grads_raw = self.engine.run_plan(
            self.compiled.bwd_plan, env,
            distance=distance, rings=self._rings(distance, 1),
        )
        return {
            param: grads_raw[gname]
            for param, gname in self.compiled.param_grads.items()
        }

    # ------------------------------------------------------------------
    def train_step(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        optimizer: Optimizer,
        mask: Optional[np.ndarray] = None,
        *,
        distance: Optional[np.ndarray] = None,
    ) -> Tuple[float, float]:
        """One full step; returns ``(loss, accuracy)``.

        ``distance`` — each vertex's hop distance from the seeds, on a
        field laid out hop by hop
        (:attr:`~repro.graph.sampling.MiniBatch.distance`) — makes the
        seeds the loss's rows: they are exactly the distance-0 rows, a
        prefix, so ``mask`` must be ``None``.  Forward, loss and
        backward then compute only the rows the seeds need
        (:meth:`~repro.frameworks.strategy.CompiledTraining.rings`), and
        loss, accuracy and parameters are bit for bit those of the
        whole-field step with the seeds as ``mask``.
        """
        self._steps += 1
        if self._steps == 2 and self._plans_arena:
            self.engine._arena_plan = self.compiled.memory_plan(self.graph.stats())
        if distance is None:
            fwd = self._forward(features, self._stash)
            if self.engine._arena_plan is not None:
                self._stash = fwd
            logits = fwd[self.output_name]
        else:
            if mask is not None:
                raise ValueError(
                    "a step on distance= reads the distance-0 rows: pass no mask"
                )
            # Ring-sized results fit only a step on the same rings.
            fwd, self._stash = self._forward(features, None, distance), {}
            seeds = int(np.searchsorted(distance, 0, side="right"))
            logits, labels = fwd[self.output_name][:seeds], labels[:seeds]
            if seeds < len(distance):
                # The seed-masked loss's reductions, whatever the dtype.
                mask = np.ones(seeds, dtype=bool)
        peak = self.engine.measured_peak_bytes
        loss, grad = softmax_cross_entropy(logits, labels, mask)
        acc = accuracy(logits, labels, mask)
        grads = self.backward(fwd, grad, distance=distance)
        self.last_peak_bytes = max(peak, self.engine.measured_peak_bytes)
        optimizer.step(self.params, grads)
        return loss, acc

    def evaluate(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[float, float]:
        fwd = self.forward(features)
        logits = fwd[self.output_name]
        loss, _ = softmax_cross_entropy(logits, labels, mask)
        return loss, accuracy(logits, labels, mask)
