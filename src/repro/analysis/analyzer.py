"""The analyzer: registered checkers over a compiled artifact bundle.

One :class:`ArtifactBundle` packages everything a ``Session.compile``
produces for a (model, strategy, dataset) triple — plans per phase,
arena memory plans, partition stats, the analytic comm schedule — plus
the source trees under the determinism contract.  The
:class:`Analyzer` runs every registered checker over the bundle and
returns one :class:`~repro.analysis.diagnostics.AnalysisReport`.

Checkers are plain objects with a ``name``, a ``codes`` tuple, and a
``check(bundle) -> list[Diagnostic]`` method; :data:`DEFAULT_CHECKERS`
is the shipped set.  A checker whose scope is absent from the bundle
(no partition, no memory plan, no concrete arrays) returns nothing but
still registers as *run*, so a clean report always shows full coverage
rather than silence-by-skipping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.arena import ArenaChecker
from repro.analysis.determinism import DeterminismChecker, default_lint_paths
from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    sort_diagnostics,
)
from repro.analysis.differential import DifferentialChecker
from repro.analysis.halo import HaloChecker
from repro.analysis.partition_checks import PartitionChecker
from repro.analysis.precision_flow import PrecisionFlowChecker
from repro.analysis.races import RaceChecker
from repro.analysis.structure import StructureChecker
from repro.exec.plan import ExecPlan

__all__ = [
    "PlanArtifact",
    "ArtifactBundle",
    "Analyzer",
    "DEFAULT_CHECKERS",
    "make_default_checkers",
]


@dataclass
class PlanArtifact:
    """One compiled phase: its plan, stats, and optional arena plan.

    ``proposed_order`` lets a pass submit a kernel reordering for race
    checking without constructing the reordered plan (an illegal order
    could not even be constructed — ``ExecPlan`` rejects use-before-def
    schedules at build time).
    """

    phase: str
    plan: ExecPlan
    stats: object
    memory_plan: Optional[object] = None
    proposed_order: Optional[Sequence[int]] = None


@dataclass
class ArtifactBundle:
    """Everything the checkers inspect for one analysis target."""

    target: str
    plans: List[PlanArtifact] = field(default_factory=list)
    module: Optional[object] = None
    pstats: Optional[object] = None
    #: phase -> per-GPU ``CommRecord`` lists (the analytic schedule).
    comm_records: Dict[str, list] = field(default_factory=dict)
    partition: Optional[object] = None
    lint_paths: List[Path] = field(default_factory=list)
    #: virtual filename -> source text, linted in addition to the trees
    #: (the mutation harness injects corrupted code through this).
    extra_sources: Dict[str, str] = field(default_factory=dict)
    engine: Optional[object] = None
    arrays: Optional[Mapping] = None


def make_default_checkers(*, lint: bool = True) -> List[object]:
    """Fresh instances of the shipped checker set, in report order."""
    checkers: List[object] = [
        StructureChecker(),
        RaceChecker(),
        ArenaChecker(),
        PrecisionFlowChecker(),
        HaloChecker(),
        PartitionChecker(),
        DifferentialChecker(),
    ]
    if lint:
        checkers.append(DeterminismChecker())
    return checkers


DEFAULT_CHECKERS = tuple(c.name for c in make_default_checkers())


class Analyzer:
    """Run registered checkers over an :class:`ArtifactBundle`."""

    def __init__(self, checkers: Optional[Sequence[object]] = None):
        self.checkers = (
            list(checkers) if checkers is not None else make_default_checkers()
        )

    def run(self, bundle: ArtifactBundle) -> AnalysisReport:
        diagnostics: List[Diagnostic] = []
        run_names: List[str] = []
        for checker in self.checkers:
            diagnostics.extend(checker.check(bundle))
            run_names.append(checker.name)
        return AnalysisReport(
            target=bundle.target,
            diagnostics=sort_diagnostics(diagnostics),
            checkers_run=run_names,
        )
