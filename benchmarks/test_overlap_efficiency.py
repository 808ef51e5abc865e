"""Overlap efficiency — the async pipelined runtime extension.

Not a figure from the paper: the paper's lockstep multi-GPU model
charges one "all-exchange, then all-compute" round per kernel, but its
coordinated computation/IO thesis implies the two channels should be
pipelined.  The overlap-efficiency table reports, per (workload, GPU
count, interconnect, phase), the serialized and overlapped makespans of
the event-driven runtime, their ratio, the number of co-scheduled
kernel pairs (every one certified by ``may_overlap``), and the comm
channel's busy share.

Qualitative shape asserted here:

- the overlapped makespan **never** exceeds the serialized one on any
  row (the overlapped constraint set is a subset of the serial
  engine's barrier discipline),
- at least one comm-bound narrow-link row shows a strict pipelining
  win, and co-scheduling actually happens somewhere,
- the narrow link raises the comm busy share on every backward row
  (comm-bound is where pipelining matters),
- single-phase sanity: forward rows exchange less than backward rows.
"""

import pytest



@pytest.fixture(scope="module")
def figure(figures):
    return figures["fig_overlap_efficiency"]


class TestOverlapEfficiency:
    def test_overlapped_never_slower(self, figure):
        for r in figure.normalized:
            assert r["overlapped_s"] <= r["serialized_s"] + 1e-12, (
                f"{r['workload']} x{r['gpus']} {r['phase']}: overlapped "
                "makespan exceeds serialized"
            )
            assert r["overlap_efficiency"] >= 1.0 - 1e-12

    def test_comm_bound_rows_strictly_improve(self, figure):
        narrow = [
            r
            for r in figure.normalized
            if r["interconnect_gbps"] is not None
        ]
        assert narrow
        assert any(r["overlap_efficiency"] > 1.0 for r in narrow), (
            "no comm-bound row shows a strict pipelining win"
        )

    def test_co_scheduling_happens(self, figure):
        assert any(r["co_scheduled"] > 0 for r in figure.normalized)

    def test_narrow_link_raises_comm_share(self, figure):
        by_key = {
            (r["workload"], r["gpus"], r["phase"], r["interconnect_gbps"]): r
            for r in figure.normalized
        }
        for (workload, gpus, phase, gbps), row in by_key.items():
            if gbps is None or phase != "backward":
                continue
            wide = by_key[(workload, gpus, phase, None)]
            assert row["comm_busy_fraction"] > wide["comm_busy_fraction"], (
                f"{workload} x{gpus}: narrow link did not raise comm share"
            )

    def test_backward_exchanges_more(self, figure):
        by_key = {
            (r["workload"], r["gpus"], r["phase"], r["interconnect_gbps"]): r
            for r in figure.normalized
        }
        for (workload, gpus, phase, gbps), row in by_key.items():
            if phase != "forward":
                continue
            bwd = by_key[(workload, gpus, "backward", gbps)]
            assert bwd["comm_bytes"] > row["comm_bytes"]
