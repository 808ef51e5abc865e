"""Sampled mini-batch training (GraphSAGE / Cluster-GCN style).

Full-graph training — what the paper evaluates — keeps every feature
row resident, so its IO counters never include feature *gathers*.
Sampled training inverts that: per step it draws a seed batch, expands
it to the k-hop receptive field, gathers the field's feature rows, and
runs the compiled plans on the induced subgraph.  The per-step memory
footprint shrinks with the batch size, but overlapping receptive fields
re-gather shared vertices, so epoch-level IO grows — the coordinated
computation/IO/memory tradeoff this module makes measurable.

Semantics
---------
Losses and gradients are the seeds'.  For models whose edge semantics
only read quantities local to the receptive field (GraphSAGE's in-edge
mean, GAT's softmax over in-edges), the seeds' logits — and therefore
the seed-loss parameter gradients — are *exact*: the k-hop
in-neighbourhood contains the entire computation cone of a k-layer
model.  Models that read out-degrees of boundary vertices (GCN's
symmetric norm) see the Cluster-GCN approximation.

A field is laid out hop by hop, so the seeds are its first rows (ring
0) and the vertices within *d* hops a prefix (ring *d*).  Each step
hands the batch's hop distances to
:meth:`~repro.train.loop.Trainer.train_step`, so every layer, forward
and backward, runs only on the rows the seeds need
(:meth:`~repro.frameworks.strategy.CompiledTraining.rings`: the last
layer on the seeds and their in-edges, the one before on the 1-hop
ring, each gradient on its support), the loss reads only the seeds'
logits (ring 0), and parameter gradients still reduce every row.
Losses, accuracies and parameters are bit for bit those of running
each batch whole-field with the seed mask (README clause 2c).  The
analytic walker (:func:`~repro.exec.analytic.analyze_minibatch`) still
prices whole fields.

In the full-batch limit (``batch_size >= num_vertices``) the sampled
epoch *is* one full-graph :class:`~repro.train.loop.Trainer` step, bit
for bit: the receptive field is the sorted full vertex set (every vertex
is a seed, ring 0, so the step runs whole), and the induced subgraph
reproduces the original topology and edge order exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exec.analytic import vertex_data_inputs
from repro.exec.rings import receptive_hops
from repro.frameworks.strategy import CompiledTraining
from repro.graph.csr import Graph
from repro.graph.sampling import plan_minibatches
from repro.train.loop import Trainer
from repro.train.optim import Optimizer

__all__ = [
    "MiniBatchTrainer",
    "EpochResult",
    "BatchRecord",
    "receptive_hops",
]


@dataclass(frozen=True)
class BatchRecord:
    """One sampled step's outcome plus its measured feature-gather IO."""

    num_seeds: int
    field_size: int
    num_edges: int
    loss: float
    accuracy: float
    #: Bytes of vertex-domain module inputs actually bound into the
    #: engine for this step's receptive field (at engine precision);
    #: reconciles exactly with the analytic per-batch walker when the
    #: engine precision matches the accounting dtype (float32).
    gather_bytes: int
    #: Measured live-byte high-watermark of the step (max over the
    #: forward and backward walks on this batch's induced subgraph):
    #: the unpinned ledger walk over the roots at the sizes the step's
    #: rings hold them (``analyze_plan`` on the field's stats when the
    #: batch covers every seed and runs whole).
    peak_bytes: int = 0


@dataclass
class EpochResult:
    """Per-batch records plus seed-weighted epoch aggregates."""

    records: List[BatchRecord] = field(default_factory=list)

    @property
    def num_batches(self) -> int:
        return len(self.records)

    @property
    def num_seeds(self) -> int:
        return sum(r.num_seeds for r in self.records)

    @property
    def loss(self) -> float:
        """Seed-weighted mean loss across batches."""
        total = self.num_seeds
        if total == 0:
            return 0.0
        return sum(r.loss * r.num_seeds for r in self.records) / total

    @property
    def accuracy(self) -> float:
        """Seed-weighted mean accuracy across batches."""
        total = self.num_seeds
        if total == 0:
            return 0.0
        return sum(r.accuracy * r.num_seeds for r in self.records) / total

    @property
    def gather_bytes(self) -> int:
        """Feature rows the epoch fetched, in bytes (overlap included)."""
        return sum(r.gather_bytes for r in self.records)

    @property
    def peak_bytes(self) -> int:
        """Largest single-batch measured footprint (the device-fit max)."""
        return max((r.peak_bytes for r in self.records), default=0)

    @property
    def field_vertices(self) -> int:
        return sum(r.field_size for r in self.records)


class MiniBatchTrainer:
    """Drives one compiled training configuration in sampled mini-batches.

    Per epoch: draw a random vertex partition
    (:func:`~repro.graph.sampling.random_vertex_batches`), expand each
    batch to its receptive field, induce the subgraph, and take one
    optimizer step on the seeds' loss, each layer on the rings of the
    field its seeds need.  The compiled plan is topology-independent,
    so one compilation serves every batch.  Each field's radius is the
    compiled forward module's depth (:func:`receptive_hops`), and each
    step runs on fresh storage: a batch's
    :class:`~repro.train.loop.Trainer` takes one step, so it never
    plans an arena.

    Parameters
    ----------
    compiled:
        Output of :func:`repro.frameworks.compile_training`.
    graph:
        Full concrete topology batches are sampled from.
    batch_size:
        Seed vertices per step (``>= num_vertices`` = full-graph limit).
    params / precision / seed:
        As for :class:`~repro.train.loop.Trainer`.
    sampler_seed:
        Seeds the batch-sampling RNG (one stream across epochs).  The
        first epoch's schedule equals
        ``plan_minibatches(graph, batch_size, receptive_hops(
        compiled.forward), rng=np.random.default_rng(sampler_seed))`` —
        the analytic walker draws the identical schedule from the same
        seed.
    """

    def __init__(
        self,
        compiled: CompiledTraining,
        graph: Graph,
        *,
        batch_size: int,
        params: Optional[Dict[str, np.ndarray]] = None,
        precision: str = "float64",
        seed: int = 0,
        sampler_seed: int = 0,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.compiled = compiled
        self.graph = graph
        self.batch_size = int(batch_size)
        self.hops = receptive_hops(compiled.forward)
        self.precision = precision
        self.params = dict(
            params if params is not None else compiled.model.init_params(seed)
        )
        self._rng = np.random.default_rng(sampler_seed)
        self.epochs_trained = 0

    # ------------------------------------------------------------------
    def _measured_gather_bytes(self, trainer: Trainer) -> int:
        """Bytes of vertex-data inputs the engine actually bound.

        Same predicate as the analytic walker
        (:func:`repro.exec.analytic.vertex_data_inputs`) — the shared
        definition is what makes the reconciliation contract exact.
        """
        env = trainer._fwd_env
        return sum(
            int(env[name].nbytes)
            for name in vertex_data_inputs(self.compiled.forward)
        )

    def train_epoch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        optimizer: Optimizer,
    ) -> EpochResult:
        """One full pass over the vertex set; returns per-batch records."""
        result = EpochResult()
        for mb in plan_minibatches(
            self.graph, self.batch_size, self.hops, rng=self._rng
        ):
            trainer = Trainer(
                self.compiled,
                mb.subgraph,
                params=self.params,
                precision=self.precision,
            )
            loss, acc = trainer.train_step(
                features[mb.vertices],
                labels[mb.vertices],
                optimizer,
                distance=mb.distance,
            )
            self.params = trainer.params
            result.records.append(
                BatchRecord(
                    num_seeds=mb.num_seeds,
                    field_size=mb.field_size,
                    num_edges=mb.subgraph.num_edges,
                    loss=loss,
                    accuracy=acc,
                    gather_bytes=self._measured_gather_bytes(trainer),
                    peak_bytes=trainer.last_peak_bytes,
                )
            )
        self.epochs_trained += 1
        return result

    def train(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        optimizer: Optimizer,
        *,
        epochs: int,
    ) -> List[EpochResult]:
        """Run ``epochs`` passes; returns one :class:`EpochResult` each."""
        return [
            self.train_epoch(features, labels, optimizer)
            for _ in range(epochs)
        ]

    def evaluate(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[float, float]:
        """Full-graph evaluation with the current parameters."""
        trainer = Trainer(
            self.compiled,
            self.graph,
            params=self.params,
            precision=self.precision,
        )
        return trainer.evaluate(features, labels, mask)
