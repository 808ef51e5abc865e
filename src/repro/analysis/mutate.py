"""Seeded corruption harness: mutation testing of the static analyzer.

A checker that has never caught a bug is indistinguishable from a
checker that cannot.  This module manufactures the bugs: each *mutant*
applies one seeded corruption to a freshly built artifact bundle —
exactly the class of defect its checker exists to catch — and
:func:`self_test` asserts the checker kills it (reports an ERROR with
the expected code) while the uncorrupted bundle stays clean.

=====================  ==========  ======  ===============================
Mutant                 Checker     Kills   Corruption
=====================  ==========  ======  ===============================
``swap_kernels``       races       RP101   invert a RAW-dependent kernel
                                           pair in the proposed order
``shrink_slab``        arena       RP202   halve the largest slab's extent
``overlap_slab``       arena       RP201   slide a slab onto a live
                                           neighbour's bytes
``drop_slab``          arena       RP205   delete a slab outright
``wrong_ledger_peak``  arena       RP204   record a ledger peak one byte
                                           off the re-walked one
``leak_qint8``         precision   RP301   re-dtype a derived value qint8
``drop_comm``          halo        RP401   delete one analytic CommRecord
``dup_comm``           halo        RP402   duplicate one CommRecord
``global_rng``         determin.   RP501   inject np.random.rand() source
``wallclock``          determin.   RP503   inject time.time() source
=====================  ==========  ======  ===============================

Every mutation works on a deep copy of the bundle, so the plan cache's
shared artifacts are never corrupted.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.analysis.analyzer import Analyzer, ArtifactBundle
from repro.analysis.races import conflicts

__all__ = ["MUTANTS", "Mutant", "MutationOutcome", "run_mutant", "self_test"]


@dataclass(frozen=True)
class Mutant:
    """One named corruption and the diagnostic that must kill it."""

    name: str
    checker: str
    expected_code: str
    apply: Callable[[ArtifactBundle], ArtifactBundle]
    description: str


@dataclass
class MutationOutcome:
    mutant: Mutant
    killed: bool
    codes_seen: Tuple[str, ...]

    def render(self) -> str:
        status = "killed" if self.killed else "SURVIVED"
        return (
            f"{self.mutant.name:<14} {self.mutant.checker:<12} "
            f"expect {self.mutant.expected_code}  {status}  "
            f"(saw {', '.join(self.codes_seen) or 'nothing'})"
        )


# ----------------------------------------------------------------------
# Corruptions.  Each takes a private deep copy and returns it mutated.
# ----------------------------------------------------------------------
def _raw_pair(plan) -> Optional[Tuple[int, int]]:
    """First (producer, consumer) kernel pair with a value hazard."""
    n = len(plan.kernels)
    for j in range(n):
        for i in range(j):
            if conflicts(plan, i, j):
                return i, j
    return None


def _swap_kernels(bundle: ArtifactBundle) -> ArtifactBundle:
    for artifact in bundle.plans:
        pair = _raw_pair(artifact.plan)
        if pair is None:
            continue
        i, j = pair
        order = list(range(len(artifact.plan.kernels)))
        order[i], order[j] = order[j], order[i]
        artifact.proposed_order = order
        return bundle
    raise ValueError("no RAW-dependent kernel pair to swap in any phase")


def _arena_artifact(bundle: ArtifactBundle):
    for artifact in bundle.plans:
        if artifact.memory_plan is not None and artifact.memory_plan.slabs:
            return artifact
    raise ValueError("bundle has no arena memory plan to corrupt")


def _shrink_slab(bundle: ArtifactBundle) -> ArtifactBundle:
    mp = _arena_artifact(bundle).memory_plan
    name, slab = max(mp.slabs.items(), key=lambda kv: (kv[1].size, kv[0]))
    mp.slabs[name] = replace(slab, size=max(slab.size // 2, 0))
    return bundle


def _overlap_slab(bundle: ArtifactBundle) -> ArtifactBundle:
    mp = _arena_artifact(bundle).memory_plan
    slabs = sorted(mp.slabs.values(), key=lambda s: (s.birth, s.offset, s.name))
    for i, s1 in enumerate(slabs):
        for s2 in slabs[i + 1 :]:
            if s1.name != s2.name and s1.overlaps(s2):
                # Simultaneously live (so placed on disjoint bytes):
                # slide s2 onto s1's bytes.
                mp.slabs[s2.name] = replace(s2, offset=s1.offset)
                return bundle
    raise ValueError("no pair of simultaneously-live slabs to collide")


def _drop_slab(bundle: ArtifactBundle) -> ArtifactBundle:
    mp = _arena_artifact(bundle).memory_plan
    name = max(mp.slabs, key=lambda n: (mp.slabs[n].size, n))
    del mp.slabs[name]
    return bundle


def _wrong_ledger_peak(bundle: ArtifactBundle) -> ArtifactBundle:
    _arena_artifact(bundle).memory_plan.ledger_peak_bytes += 1
    return bundle


def _leak_qint8(bundle: ArtifactBundle) -> ArtifactBundle:
    for artifact in bundle.plans:
        module = artifact.plan.module
        for node in module.nodes:
            out = node.outputs[0]
            spec = module.specs[out]
            if spec.dtype == "float32":
                module.specs[out] = spec.with_dtype("qint8")
                return bundle
    raise ValueError("no float32 derived value to re-dtype as qint8")


def _halo_records(bundle: ArtifactBundle):
    for phase in sorted(bundle.comm_records):
        per_gpu = bundle.comm_records[phase]
        for p, records in enumerate(per_gpu):
            if records:
                return per_gpu, p
    raise ValueError(
        "bundle schedules no comm records to corrupt (model has no "
        "halo exchanges on this partition)"
    )


def _drop_comm(bundle: ArtifactBundle) -> ArtifactBundle:
    per_gpu, p = _halo_records(bundle)
    per_gpu[p] = per_gpu[p][1:]
    return bundle


def _dup_comm(bundle: ArtifactBundle) -> ArtifactBundle:
    per_gpu, p = _halo_records(bundle)
    per_gpu[p] = per_gpu[p] + [per_gpu[p][0]]
    return bundle


_GLOBAL_RNG_SRC = (
    "import numpy as np\n"
    "\n"
    "def jitter(x):\n"
    "    return x + np.random.rand()\n"
)

_WALLCLOCK_SRC = (
    "import time\n"
    "\n"
    "def stamp(row):\n"
    "    row['at'] = time.time()\n"
    "    return row\n"
)


def _global_rng(bundle: ArtifactBundle) -> ArtifactBundle:
    bundle.extra_sources["mutant_rng.py"] = _GLOBAL_RNG_SRC
    return bundle


def _wallclock(bundle: ArtifactBundle) -> ArtifactBundle:
    bundle.extra_sources["mutant_clock.py"] = _WALLCLOCK_SRC
    return bundle


#: The shipped mutant set — one (or more) per checker class.
MUTANTS: Tuple[Mutant, ...] = (
    Mutant("swap_kernels", "races", "RP101", _swap_kernels,
           "invert a RAW-dependent kernel pair in the proposed order"),
    Mutant("shrink_slab", "arena", "RP202", _shrink_slab,
           "halve the largest arena slab"),
    Mutant("overlap_slab", "arena", "RP201", _overlap_slab,
           "slide a slab onto a simultaneously-live neighbour"),
    Mutant("drop_slab", "arena", "RP205", _drop_slab,
           "delete a boundary value's slab"),
    Mutant("wrong_ledger_peak", "arena", "RP204", _wrong_ledger_peak,
           "record a ledger peak the re-walk does not reproduce"),
    Mutant("leak_qint8", "precision", "RP301", _leak_qint8,
           "re-dtype a derived value to qint8"),
    Mutant("drop_comm", "halo", "RP401", _drop_comm,
           "delete one analytic CommRecord"),
    Mutant("dup_comm", "halo", "RP402", _dup_comm,
           "schedule one CommRecord twice"),
    Mutant("global_rng", "determinism", "RP501", _global_rng,
           "inject np.random.rand() into a linted source"),
    Mutant("wallclock", "determinism", "RP503", _wallclock,
           "inject time.time() into a linted source"),
)


# ----------------------------------------------------------------------
def run_mutant(
    mutant: Mutant, bundle: ArtifactBundle, analyzer: Optional[Analyzer] = None
) -> MutationOutcome:
    """Corrupt a private copy of ``bundle``; did the checker kill it?"""
    analyzer = analyzer if analyzer is not None else Analyzer()
    mutated = mutant.apply(copy.deepcopy(bundle))
    report = analyzer.run(mutated)
    codes = tuple(report.codes())
    return MutationOutcome(
        mutant=mutant,
        killed=mutant.expected_code in {d.code for d in report.errors},
        codes_seen=codes,
    )


def self_test(
    bundle: ArtifactBundle, *, analyzer: Optional[Analyzer] = None
) -> List[MutationOutcome]:
    """Run every mutant against ``bundle``; raise unless all are killed.

    Also asserts the *unmutated* bundle analyzes clean — a harness that
    passes on an already-broken bundle proves nothing.
    """
    analyzer = analyzer if analyzer is not None else Analyzer()
    clean = analyzer.run(copy.deepcopy(bundle))
    if not clean.ok:
        raise AssertionError(
            "mutation self-test needs a clean baseline bundle; got:\n"
            + clean.summary()
        )
    outcomes = [run_mutant(m, bundle, analyzer) for m in MUTANTS]
    survivors = [o for o in outcomes if not o.killed]
    if survivors:
        lines = "\n".join("  " + o.render() for o in survivors)
        raise AssertionError(
            f"{len(survivors)} mutant(s) survived the analyzer:\n{lines}"
        )
    return outcomes
