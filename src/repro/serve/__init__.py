"""Online inference serving: request batching, feature caching, and
SLO-aware multi-tenant scheduling over the compiled-plan substrate.

The serving stack reuses every existing subsystem under a new workload
shape: receptive fields come from the sampling layer, per-batch costing
from the analytic walker, the virtual clock from the GPU cost model,
pools from :class:`~repro.gpu.cluster.Cluster`, arenas from the memory
planner, and execution from the ordinary engine.  Entry points:

- :class:`InferenceServer` — the server itself,
- :func:`poisson_workload` / :func:`bursty_workload` — seeded open-loop
  request generators,
- :class:`ServeReport` — tail latency, throughput, SLO and cache
  accounting,
- ``Session.serve(...)`` — the fluent front door; a curve over offered
  load is a loop over it.
"""

from repro.serve.batcher import (
    BatchPolicy,
    MicroBatch,
    coalesce,
    receptive_field,
)
from repro.serve.cache import FeatureCache, GatherSplit
from repro.serve.metrics import BatchTrace, RequestOutcome, ServeReport
from repro.serve.request import (
    InferenceRequest,
    SeedCDF,
    bursty_workload,
    draw_seeds,
    poisson_workload,
    zipf_seed_probabilities,
)
from repro.serve.scheduler import (
    SCHEDULER_POLICIES,
    PendingBatch,
    Placement,
    place_batches,
)
from repro.serve.server import InferenceServer

__all__ = [
    "BatchPolicy",
    "MicroBatch",
    "coalesce",
    "receptive_field",
    "FeatureCache",
    "GatherSplit",
    "BatchTrace",
    "RequestOutcome",
    "ServeReport",
    "InferenceRequest",
    "poisson_workload",
    "bursty_workload",
    "draw_seeds",
    "zipf_seed_probabilities",
    "SeedCDF",
    "SCHEDULER_POLICIES",
    "PendingBatch",
    "Placement",
    "place_batches",
    "InferenceServer",
]
