"""Arena-overlap checking: slab soundness and watermark reconciliation.

The arena planner (:mod:`repro.exec.memory`) recycles bytes between
lifetime-disjoint values.  This checker *proves* the resulting plan is
sound instead of trusting the planner:

- no two simultaneously-live slabs intersect in bytes (RP201),
- every slab is large enough for the aligned value it holds (RP202)
  and fits inside the declared arena extent (RP203),
- the recorded ledger peaks reconcile with an independent re-walk of
  the liveness ledger (RP204), and the arena provisions at least the
  unpinned live watermark — ``pinned + arena`` can never dip under the
  ledger peak (RP206),
- every boundary root is accounted for: slabbed, pinned, or a free
  graph constant (RP205).
"""

from __future__ import annotations

from typing import List

from repro.analysis.diagnostics import Diagnostic, Severity, SourceLocation
from repro.exec.memory import MemoryPlan, _align, ledger_walk, root_sizes

__all__ = ["check_memory_plan", "ArenaChecker"]


def check_memory_plan(
    memory_plan: MemoryPlan, stats, *, phase: str = "forward"
) -> List[Diagnostic]:
    """All RP2xx findings for one phase's arena plan on ``stats``."""
    mp = memory_plan
    plan = mp.plan
    diags: List[Diagnostic] = []
    loc = lambda value=None: SourceLocation(phase=phase, value=value)  # noqa: E731

    slabs = sorted(mp.slabs.values(), key=lambda s: (s.offset, s.name))
    for i, s1 in enumerate(slabs):
        for s2 in slabs[i + 1 :]:
            if s2.offset >= s1.offset + s1.size:
                break  # sorted by offset: no later slab can intersect s1
            if s1.overlaps(s2):
                diags.append(
                    Diagnostic(
                        code="RP201",
                        severity=Severity.ERROR,
                        message=(
                            f"slabs {s1.name!r} [{s1.offset},"
                            f"{s1.offset + s1.size}) live k{s1.birth}..k"
                            f"{s1.death} and {s2.name!r} [{s2.offset},"
                            f"{s2.offset + s2.size}) live k{s2.birth}..k"
                            f"{s2.death} are simultaneously live on "
                            "intersecting bytes"
                        ),
                        location=loc(f"{s1.name}|{s2.name}"),
                    )
                )

    sizes = root_sizes(plan, stats)
    for slab in slabs:
        need = sizes[slab.name]
        if slab.size < _align(need) or slab.nbytes < need:
            diags.append(
                Diagnostic(
                    code="RP202",
                    severity=Severity.ERROR,
                    message=(
                        f"slab {slab.name!r} reserves {slab.size} byte(s) "
                        f"but the value needs {need} "
                        f"(aligned {_align(need)})"
                    ),
                    location=loc(slab.name),
                )
            )
        if slab.offset < 0 or slab.offset + slab.size > mp.arena_bytes:
            diags.append(
                Diagnostic(
                    code="RP203",
                    severity=Severity.ERROR,
                    message=(
                        f"slab {slab.name!r} [{slab.offset},"
                        f"{slab.offset + slab.size}) extends past the "
                        f"declared arena of {mp.arena_bytes} byte(s)"
                    ),
                    location=loc(slab.name),
                )
            )

    # Coverage: every root the ledger charges must be slabbed or pinned.
    for root in sorted(sizes):
        if root in mp.slabs or root in mp.pinned:
            continue
        diags.append(
            Diagnostic(
                code="RP205",
                severity=Severity.ERROR,
                message=(
                    f"boundary value {root!r} has no arena slab and is "
                    "neither pinned nor a graph constant — an arena-backed "
                    "run would have nowhere to store it"
                ),
                location=loc(root),
            )
        )

    # Watermarks: re-walk the ledger and reconcile the recorded peaks.
    walk = ledger_walk(plan, sizes, pinned=mp.pinned)
    peak, live_peak = walk.peak_bytes, walk.live_peak_bytes
    if peak != mp.ledger_peak_bytes or live_peak != mp.live_peak_bytes:
        diags.append(
            Diagnostic(
                code="RP204",
                severity=Severity.ERROR,
                message=(
                    f"recorded ledger peaks ({mp.ledger_peak_bytes}, live "
                    f"{mp.live_peak_bytes}) disagree with the re-walked "
                    f"ledger ({peak}, live {live_peak})"
                ),
                location=loc(),
            )
        )
    if mp.arena_bytes < live_peak or mp.planned_peak_bytes < peak:
        diags.append(
            Diagnostic(
                code="RP206",
                severity=Severity.ERROR,
                message=(
                    f"arena of {mp.arena_bytes} byte(s) (+ pinned "
                    f"{mp.pinned_bytes}) cannot deliver the ledger "
                    f"watermark (peak {peak}, live {live_peak})"
                ),
                location=loc(),
            )
        )
    return diags


class ArenaChecker:
    """Bundle checker: RP2xx over every phase carrying a memory plan."""

    name = "arena"
    codes = ("RP201", "RP202", "RP203", "RP204", "RP205", "RP206")

    def check(self, bundle) -> List[Diagnostic]:
        diags: List[Diagnostic] = []
        for artifact in bundle.plans:
            if artifact.memory_plan is None:
                continue
            diags.extend(
                check_memory_plan(
                    artifact.memory_plan, artifact.stats, phase=artifact.phase
                )
            )
        return diags
