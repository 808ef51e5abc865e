"""Halo-consistency checking: every ghost read has exactly one exchange.

A partitioned run (:class:`~repro.exec.multi.MultiEngine`) only computes
correct values if every remote row a kernel touches is fetched by the
exchange schedule — and the analytic cost model only prices the run
correctly if it schedules *exactly* those fetches, once each.  This
checker re-derives the required exchanges from first principles — a
node-level walk of the plan over the partition's halo extents — and
reconciles them against the analytic
:class:`~repro.exec.profiler.CommRecord` schedule.  The rules
(:func:`expected_exchanges`): a source-side Scatter needs ghost source
rows, an out-edge aggregation ghost destination rows and its weight's
remote edge rows, any other out-edge Gather its operand's remote edge
rows, a sharded parameter gradient an all-reduce.  The codes:

- RP401: a ghost read (or gradient reduction) with no covering record —
  the concrete run would compute on stale/absent rows,
- RP402: a ghost read covered more than once — double-priced traffic,
- RP403: a covering record whose byte count disagrees with the halo
  extent times the row width,
- RP404: a record matching no ghost read — phantom traffic.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity, SourceLocation
from repro.exec.plan import ExecPlan
from repro.graph.partition import PartitionStats, allreduce_bytes_per_gpu
from repro.ir.functions import get_scatter_fn
from repro.ir.ops import OpKind
from repro.ir.tensorspec import Domain

__all__ = ["expected_exchanges", "check_comm_records", "HaloChecker"]


def expected_exchanges(
    plan: ExecPlan, pstats: PartitionStats
) -> List[Dict[Tuple[str, str], List[int]]]:
    """Per-GPU required exchanges: ``(kind, label) -> bytes``, once per
    kernel that needs it (kernel labels repeat: two layers' fused
    kernels may read one root under one label).

    Derived from the ownership semantics alone (destination-owned
    edges, owned + ghost vertex rows per part):

    - a Scatter reading a vertex tensor through the edge *source* needs
      that tensor's ghost rows — once per (kernel, storage root),
    - an out-edge aggregation (a ``copy_v`` → × weight → ``sum|mean``
      over out-edges chain of the kernel) reduces each owned source's
      out-edges, whose destinations another part may own: it needs its
      vertex operand's ghost-destination rows and, when weighted, the
      remotely-owned rows of its edge weight — its messages are built
      where they are reduced, so none cross,
    - any other out-orientation Gather needs the remotely-owned rows of
      its edge operand,
    - a parameter-gradient over row-distributed operands needs a ring
      all-reduce of its output; gradients of replicated (PARAM/DENSE)
      operands are computed identically everywhere and are exempt.
    """
    specs = plan.module.specs
    P = pstats.num_parts
    expected: List[Dict[Tuple[str, str], List[int]]] = [dict() for _ in range(P)]
    if P <= 1:
        return expected
    for index, kernel in enumerate(plan.kernels):
        per_kernel: Dict[Tuple[str, str], int] = {}

        def halo(kind: str, name: str) -> None:
            label = f"{kernel.label}:{plan.root_of(name)}"
            per_kernel[(kind, label)] = specs[name].row_bytes

        aggregated = set()
        for chain in plan.chains(index).values():
            if chain.scatter is None and chain.head.orientation == "out":
                aggregated.add(chain.head.name)
                halo("halo_dst", chain.operands[0])
                if chain.weight is not None:
                    halo("halo_out", chain.weight)
        for node in kernel.nodes:
            if node.kind is OpKind.SCATTER:
                fn = get_scatter_fn(node.fn)
                if fn.reads_u and not fn.vertex_direct_read:
                    name = node.inputs[0]
                    if specs[name].domain is Domain.VERTEX:
                        halo("halo_in", name)
            elif (
                node.kind is OpKind.GATHER and node.orientation == "out"
                and node.name not in aggregated
            ):
                halo("halo_out", node.inputs[0])
            elif node.kind is OpKind.PARAM_GRAD:
                if {specs[n].domain for n in node.inputs} <= {
                    Domain.PARAM,
                    Domain.DENSE,
                }:
                    continue
                per_kernel[("allreduce", f"{kernel.label}:{node.name}")] = (
                    specs[node.outputs[0]].row_bytes
                )
        rows = {
            "halo_in": pstats.halo_in_rows,
            "halo_dst": pstats.halo_dst_rows,
            "halo_out": pstats.halo_out_rows,
        }
        for (kind, label), row_bytes in per_kernel.items():
            for p in range(P):
                if kind == "allreduce":
                    nbytes = allreduce_bytes_per_gpu(row_bytes, P)
                else:
                    nbytes = rows[kind][p] * row_bytes
                expected[p].setdefault((kind, label), []).append(nbytes)
    return expected


def check_comm_records(
    plan: ExecPlan,
    pstats: PartitionStats,
    records,
    *,
    phase: str = "forward",
) -> List[Diagnostic]:
    """Reconcile recorded per-GPU ``CommRecord`` lists with the ghost
    reads the plan provably performs on this partition."""
    diags: List[Diagnostic] = []
    expected = expected_exchanges(plan, pstats)
    for p in range(pstats.num_parts):
        want = expected[p]
        got: Dict[Tuple[str, str], List[int]] = {}
        for rec in records[p]:
            got.setdefault((rec.kind, rec.label), []).append(rec.bytes)
        loc = lambda value: SourceLocation(  # noqa: E731
            phase=phase, gpu=p, value=value
        )
        for (kind, label), sizes in sorted(want.items()):
            have = got.get((kind, label), [])
            nbytes = sizes[0]
            if len(have) < len(sizes):
                diags.append(
                    Diagnostic(
                        code="RP401",
                        severity=Severity.ERROR,
                        message=(
                            f"ghost read {label!r} ({kind}, {nbytes} "
                            f"byte(s)) lacks a covering comm record in "
                            f"{len(sizes) - len(have)} of its {len(sizes)} "
                            "kernel(s) — the partitioned run would compute "
                            "on stale rows"
                        ),
                        location=loc(label),
                    )
                )
                continue
            if len(have) > len(sizes):
                diags.append(
                    Diagnostic(
                        code="RP402",
                        severity=Severity.ERROR,
                        message=(
                            f"ghost read {label!r} ({kind}) is covered by "
                            f"{len(have)} comm records for {len(sizes)} "
                            "kernel(s); exchanges are deduplicated per "
                            "(kernel, tensor)"
                        ),
                        location=loc(label),
                    )
                )
            if any(b != nbytes for b in have):
                diags.append(
                    Diagnostic(
                        code="RP403",
                        severity=Severity.ERROR,
                        message=(
                            f"comm record {label!r} ({kind}) moves "
                            f"{have} byte(s) but the halo extent requires "
                            f"{nbytes}"
                        ),
                        location=loc(label),
                    )
                )
        for (kind, label) in sorted(set(got) - set(want)):
            diags.append(
                Diagnostic(
                    code="RP404",
                    severity=Severity.ERROR,
                    message=(
                        f"comm record {label!r} ({kind}) matches no ghost "
                        "read of the plan on this partition (phantom "
                        "traffic)"
                    ),
                    location=loc(label),
                )
            )
    return diags


class HaloChecker:
    """Bundle checker: RP4xx over every phase of a partitioned bundle."""

    name = "halo"
    codes = ("RP401", "RP402", "RP403", "RP404")

    def check(self, bundle) -> List[Diagnostic]:
        if bundle.pstats is None:
            return []
        diags: List[Diagnostic] = []
        for artifact in bundle.plans:
            records = bundle.comm_records.get(artifact.phase)
            if records is None:
                continue
            diags.extend(
                check_comm_records(
                    artifact.plan, bundle.pstats, records, phase=artifact.phase
                )
            )
        return diags
