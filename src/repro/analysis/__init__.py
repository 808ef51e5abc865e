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
  the race-detector API schedulers and ``MultiEngine``'s threaded
  overlap mode consult directly.

Diagnostics carry stable ``RPxyz`` codes (see
:mod:`repro.analysis.diagnostics`); the mutation harness in
:mod:`repro.analysis.mutate` keeps every checker honest.
"""

from repro.analysis.analyzer import (
    Analyzer,
    ArtifactBundle,
    DEFAULT_CHECKERS,
    PlanArtifact,
    make_default_checkers,
)
from repro.analysis.arena import ArenaChecker, check_memory_plan
from repro.analysis.bundle import build_bundle
from repro.analysis.determinism import (
    DeterminismChecker,
    lint_paths,
    lint_source,
)
from repro.analysis.diagnostics import (
    CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
    SourceLocation,
    describe_code,
)
from repro.analysis.differential import DifferentialChecker, check_plan_equivalence
from repro.analysis.halo import HaloChecker, check_comm_records, expected_exchanges
from repro.analysis.mutate import MUTANTS, run_mutant, self_test
from repro.analysis.partition_checks import PartitionChecker, check_partition
from repro.analysis.precision_flow import PrecisionFlowChecker, check_precision_flow
from repro.analysis.races import (
    RaceChecker,
    check_order,
    conflicts,
    happens_before,
    hazard_waves,
    kernel_access,
    may_overlap,
    overlap_diagnostics,
)
from repro.analysis.structure import StructureChecker, check_module

__all__ = [
    "Analyzer",
    "ArtifactBundle",
    "PlanArtifact",
    "DEFAULT_CHECKERS",
    "make_default_checkers",
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
    "check_memory_plan",
    "check_precision_flow",
    "check_comm_records",
    "expected_exchanges",
    "check_partition",
    "check_plan_equivalence",
    "lint_source",
    "lint_paths",
    # races API
    "kernel_access",
    "conflicts",
    "happens_before",
    "may_overlap",
    "check_order",
    "hazard_waves",
    "overlap_diagnostics",
    # mutation harness
    "MUTANTS",
    "run_mutant",
    "self_test",
]
