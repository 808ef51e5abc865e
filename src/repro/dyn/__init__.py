"""Dynamic graphs: incremental CSR deltas, versioned features, workloads.

Extends the analytic IO perspective to a read/write serving mix:

- :mod:`repro.dyn.delta` — :class:`GraphDelta` insertion batches and the
  :class:`DynamicGraph` overlay (delta-aware queries, periodic
  compaction, exact mutation IO ledger),
- :mod:`repro.dyn.featurestore` — the versioned :class:`FeatureStore`
  whose version bumps drive serve-cache invalidation with exact
  invalidation-byte accounting,
- :mod:`repro.dyn.workload` — the seeded update/read mixed-workload
  generator (:func:`mixed_workload`).
"""

from repro.dyn.delta import DynamicGraph, GraphDelta, delta_apply_bytes
from repro.dyn.featurestore import FeatureStore
from repro.dyn.workload import UpdateEvent, mixed_workload

__all__ = [
    "DynamicGraph",
    "GraphDelta",
    "FeatureStore",
    "UpdateEvent",
    "mixed_workload",
    "delta_apply_bytes",
]
