"""Diagnostic vocabulary of the static plan analyzer.

Every invariant the analyzer proves (or refutes) reports through one
:class:`Diagnostic` shape: a **stable code** (``RPxyz`` — the leading
digit names the checker family, the trailing digits the specific
violation), a severity, a human-readable message, and a
:class:`SourceLocation` pointing into the artifact that violated the
invariant — a kernel index inside a plan, a value name inside a module,
a slab inside a memory plan, a GPU inside a partition, or a file/line
for source-level lints.

Codes are API: tests, CI gates, and downstream tooling key on them, so
a code is never renumbered.  A code leaves :data:`CODES` only when its
checker is removed, and a removed number is never reused (CHANGES.md
records each retirement).  :func:`describe_code` resolves a live one.

========  ============================================================
Family    Checker
========  ============================================================
``RP0xx`` structural IR validation (migrated ``validate_module``)
``RP1xx`` kernel race detection / schedule legality
``RP2xx`` arena-overlap and memory-watermark checking
``RP3xx`` precision flow (logical dtypes, fp32 accumulation)
``RP4xx`` halo/communication consistency (multi-GPU)
``RP5xx`` determinism lint (RNG and wall-clock hygiene)
``RP6xx`` graph-partition invariants (migrated ``validate``)
``RP7xx`` differential plan equivalence (``verify_plan`` shim)
========  ============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Severity",
    "SourceLocation",
    "Diagnostic",
    "AnalysisReport",
    "CODES",
    "describe_code",
]


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` — the invariant is violated; executing the artifact can
    produce wrong values, corrupt memory, or diverge between runs.
    ``WARNING`` — legal but suspicious (e.g. a provably-dead exchange).
    ``INFO`` — advisory facts (e.g. overlap opportunities).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __lt__(self, other: "Severity") -> bool:
        order = {"error": 0, "warning": 1, "info": 2}
        return order[self.value] < order[other.value]


#: code -> (checker family, one-line description).  New codes take
#: fresh numbers; gaps are retired codes and stay unused.
CODES: Dict[str, Tuple[str, str]] = {
    # -- RP0xx: structural IR validation -------------------------------
    "RP001": ("structure", "interface value has no spec"),
    "RP002": ("structure", "duplicate definition of a value"),
    "RP003": ("structure", "value used before definition"),
    "RP004": ("structure", "node fails shape/domain re-inference"),
    "RP005": ("structure", "recorded spec disagrees with inference"),
    "RP006": ("structure", "module output is never defined"),
    "RP007": ("structure", "spec recorded for an undefined value"),
    "RP008": ("structure", "param is not PARAM domain"),
    "RP009": ("structure", "graph constant carries the wrong spec"),
    "RP010": ("structure", "node output missing from specs"),
    # -- RP1xx: kernel races / schedule legality -----------------------
    "RP101": ("races", "proposed order breaks a RAW dependence"),
    "RP103": ("races", "proposed order is not a permutation of the plan"),
    "RP104": ("races", "slab-sharing kernels reordered against reuse"),
    # -- RP2xx: arena overlap / memory watermarks ----------------------
    "RP201": ("arena", "lifetime-overlapping slabs intersect in bytes"),
    "RP202": ("arena", "slab smaller than the value it must hold"),
    "RP203": ("arena", "slab extends past the declared arena extent"),
    "RP204": ("arena", "recorded ledger peak disagrees with the walk"),
    "RP205": ("arena", "boundary value has no slab and is not pinned"),
    "RP206": ("arena", "planned watermark exceeds the ledger peak"),
    # -- RP3xx: precision flow -----------------------------------------
    "RP301": ("precision", "quantized dtype on a derived/non-input value"),
    "RP302": ("precision", "logical dtype placed on an arena slab"),
    "RP303": ("precision", "reduction without an fp32-accumulation rule"),
    "RP304": ("precision", "dtype changes across a view alias"),
    # -- RP4xx: halo consistency ---------------------------------------
    "RP401": ("halo", "ghost read not covered by a comm record"),
    "RP402": ("halo", "ghost read covered by more than one comm record"),
    "RP403": ("halo", "comm record bytes disagree with the halo extent"),
    "RP404": ("halo", "comm record matches no ghost read (spurious)"),
    # -- RP5xx: determinism lint ---------------------------------------
    "RP501": ("determinism", "global NumPy RNG state used"),
    "RP502": ("determinism", "default_rng() without an explicit seed"),
    "RP503": ("determinism", "wall-clock read outside measure.py"),
    "RP504": ("determinism", "random module used instead of seeded Generator"),
    # -- RP6xx: partition invariants -----------------------------------
    "RP601": ("partition", "assignment does not cover every vertex"),
    "RP602": ("partition", "assignment value out of part range"),
    "RP603": ("partition", "owned vertex sets do not tile the graph"),
    "RP604": ("partition", "owned edge sets do not tile the edge set"),
    # -- RP7xx: differential plan equivalence --------------------------
    "RP701": ("differential", "plan output diverges from per-op reference"),
}


def describe_code(code: str) -> str:
    """One-line description of a stable diagnostic code."""
    family, text = CODES[code]
    return f"{code} [{family}] {text}"


@dataclass(frozen=True)
class SourceLocation:
    """Where inside the analyzed artifact a finding points.

    All fields are optional — a race points at ``(plan, kernels)``, a
    spec leak at ``value``, a lint hit at ``(file, line)``.  ``phase``
    distinguishes forward/backward plans of one compiled step.
    """

    phase: Optional[str] = None
    kernel: Optional[int] = None
    kernel2: Optional[int] = None
    value: Optional[str] = None
    gpu: Optional[int] = None
    file: Optional[str] = None
    line: Optional[int] = None

    def __str__(self) -> str:
        parts: List[str] = []
        if self.file is not None:
            parts.append(
                f"{self.file}:{self.line}" if self.line is not None else self.file
            )
        if self.phase is not None:
            parts.append(self.phase)
        if self.kernel is not None:
            k = f"kernel {self.kernel}"
            if self.kernel2 is not None:
                k += f"<->{self.kernel2}"
            parts.append(k)
        if self.value is not None:
            parts.append(f"value {self.value!r}")
        if self.gpu is not None:
            parts.append(f"gpu {self.gpu}")
        return ":".join(parts) if parts else "<artifact>"


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding with a stable code."""

    code: str
    severity: Severity
    message: str
    location: SourceLocation = field(default_factory=SourceLocation)
    checker: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(
                f"unknown diagnostic code {self.code!r}; stable codes must "
                "be registered in repro.analysis.diagnostics.CODES"
            )
        if not self.checker:
            object.__setattr__(self, "checker", CODES[self.code][0])

    def render(self) -> str:
        return (
            f"{self.code} {self.severity.value:<7} {self.location}: "
            f"{self.message}"
        )


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced over one artifact bundle.

    ``ok`` holds when no ERROR-severity diagnostic was reported;
    warnings and infos never gate.  ``checkers_run`` records coverage —
    a checker that had nothing to analyze (e.g. halo checks on a
    single-GPU bundle with no partition) still counts as *run* with an
    empty scope, so "clean" is never silence-by-skipping.
    """

    target: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    checkers_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def summary(self) -> str:
        head = (
            f"{self.target}: "
            f"{len(self.errors)} error(s), "
            f"{sum(1 for d in self.diagnostics if d.severity is Severity.WARNING)}"
            f" warning(s) from {len(self.checkers_run)} checker(s)"
        )
        lines = [head]
        for d in sorted(self.diagnostics, key=lambda d: (d.severity, d.code)):
            lines.append("  " + d.render())
        return "\n".join(lines)


def sort_diagnostics(diags: Sequence[Diagnostic]) -> List[Diagnostic]:
    """Stable severity-then-code ordering used by reports."""
    return sorted(diags, key=lambda d: (d.severity, d.code, str(d.location)))
