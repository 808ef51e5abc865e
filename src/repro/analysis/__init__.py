"""Static plan analysis: prove a configuration sound before running it.

The runtime layers each guard their own invariants with scattered
asserts that fire mid-execution; this package is the unified *static*
layer that proves them up front over a compiled artifact bundle — the
prerequisite for reordering or co-running kernels (no kernel overlap
without a race proof) and the autotuner (candidates rejected
statically, not by crashing).

Entry points
------------
- :func:`repro.session.Session.analyze` — analyze the configured
  session, returning an :class:`AnalysisReport`,
- ``python -m repro.lint`` — CLI over registry triples, ``--all`` for
  the zoo, ``--self-test`` for the mutation harness,
- :func:`may_overlap` / :func:`check_order` / :func:`hazard_waves` —
  the race-detector API a reordering and ``MultiEngine``'s threaded
  overlap mode consult directly.

Diagnostics carry stable ``RPxyz`` codes (see
:mod:`repro.analysis.diagnostics`); the mutation harness in
:mod:`repro.analysis.mutate` keeps every checker honest.
"""

from repro.analysis.analyzer import Analyzer, ArtifactBundle, PlanArtifact
from repro.analysis.arena import ArenaChecker
from repro.analysis.bundle import build_bundle
from repro.analysis.determinism import DeterminismChecker, lint_paths
from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
    SourceLocation,
    describe_code,
)
from repro.analysis.differential import DifferentialChecker, check_plan_equivalence
from repro.analysis.halo import HaloChecker
from repro.analysis.mutate import self_test
from repro.analysis.partition_checks import PartitionChecker, check_partition
from repro.analysis.precision_flow import PrecisionFlowChecker
from repro.analysis.races import (
    RaceChecker,
    check_order,
    conflicts,
    hazard_waves,
    may_overlap,
)
from repro.analysis.structure import StructureChecker, check_module

__all__ = [
    "Analyzer",
    "ArtifactBundle",
    "PlanArtifact",
    "build_bundle",
    "AnalysisReport",
    "Diagnostic",
    "Severity",
    "SourceLocation",
    "CODES",
    "describe_code",
    # checkers
    "StructureChecker",
    "RaceChecker",
    "ArenaChecker",
    "PrecisionFlowChecker",
    "HaloChecker",
    "PartitionChecker",
    "DifferentialChecker",
    "DeterminismChecker",
    # checker functions
    "check_module",
    "check_partition",
    "check_plan_equivalence",
    "lint_paths",
    # races API
    "conflicts",
    "may_overlap",
    "check_order",
    "hazard_waves",
    # mutation harness
    "self_test",
]
