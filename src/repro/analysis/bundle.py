"""Building :class:`~repro.analysis.analyzer.ArtifactBundle` from a
configured :class:`~repro.session.Session`.

One function, :func:`build_bundle`, turns whatever a session would
execute into the exact artifact set the checkers inspect:

- every compiled phase's plan with its workload stats,
- arena memory plans for each phase — except when any module spec
  carries a *logical* dtype, mirroring the Engine's own refusal to
  arena-back storage it must materialise in a wider concrete dtype
  (the precision checker proves the refusal is the only gap),
- partition stats and the analytic comm schedule: the configured
  cluster's when one is set, otherwise a synthesized 2-way
  hash-partition model — so halo consistency is checked on every
  target, not only multi-GPU ones,
- optionally the determinism-lint source trees.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.analyzer import ArtifactBundle, PlanArtifact
from repro.analysis.determinism import default_lint_paths
from repro.exec.analytic import plan_comm_records
from repro.graph.partition import PartitionStats
from repro.ir.tensorspec import LOGICAL_DTYPES

__all__ = ["build_bundle"]

#: Part count of the synthesized partition model used when the session
#: has no cluster configured — halo checking needs P >= 2 to be live.
DEFAULT_ANALYSIS_PARTS = 2


def build_bundle(
    session,
    *,
    training: Optional[bool] = None,
    lint: bool = False,
    parts: int = DEFAULT_ANALYSIS_PARTS,
    target: Optional[str] = None,
) -> ArtifactBundle:
    """Compile the session's configuration into an analyzable bundle.

    ``training`` defaults to the resolved strategy's capability;
    ``lint`` adds the determinism source trees (off by default so zoo
    sweeps lint once, not per target); ``parts`` sizes the synthesized
    partition model when no cluster is configured.
    """
    strategy = session.resolve_strategy()
    if training is None:
        training = strategy.supports_training
    compiled = session.compile(training=training)
    stats = session.resolve_stats()

    phases = compiled.phases()
    logical = any(
        spec.dtype in LOGICAL_DTYPES
        for _, plan in phases
        for spec in plan.module.specs.values()
    )
    arenas = {}
    if not logical:
        planned = session.memory_plan(training=training).phases()
        arenas = {phase: mp for (phase, _), mp in zip(phases, planned)}

    if session.resolve_cluster() is not None:
        pstats = session.resolve_partition_stats()
    else:
        pstats = PartitionStats.from_stats(stats, parts)
    comm = {
        phase: plan_comm_records(plan, pstats) for phase, plan in phases
    }

    if target is None:
        labels = session._config.labels()
        target = f"{labels['model']}/{labels['strategy']}/{labels['dataset']}"
    return ArtifactBundle(
        target=target,
        plans=[
            PlanArtifact(
                phase=phase,
                plan=plan,
                stats=stats,
                memory_plan=arenas.get(phase),
            )
            for phase, plan in phases
        ],
        module=compiled.forward,
        pstats=pstats,
        comm_records=comm,
        lint_paths=default_lint_paths() if lint else [],
    )
