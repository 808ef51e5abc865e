"""Tests for plan inspection utilities."""

import numpy as np
import pytest

from repro.exec import analyze_plan, plan_module
from repro.exec.inspect import format_memory_timeline, format_plan, memory_timeline
from repro.graph import GraphStats
from repro.ir import Builder, Domain

from tests.helpers import naive_ledger


def sample_plan(mode="per_op", keep=()):
    b = Builder("m")
    h = b.input("h", Domain.VERTEX, (8,))
    e = b.scatter("copy_u", u=h, name="e")
    x = b.apply("exp", e, name="x")
    b.output(b.gather("sum", x, name="out"))
    return plan_module(b.build(), mode=mode, keep=keep)


def stats():
    return GraphStats(
        50, 300,
        np.full(50, 6, dtype=np.int64),
        np.full(50, 6, dtype=np.int64),
    )


class TestFormatPlan:
    def test_contains_all_kernels(self):
        plan = sample_plan()
        text = format_plan(plan, stats())
        assert text.count("\n") >= len(plan.kernels)
        assert "scatter:copy_u" in text and "gather:sum" in text

    def test_flags_rendered(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, ())
        e = b.scatter("u_add_v", u=h, v=h)
        b.output(b.gather("sum", b.edge_softmax(e)))
        plan = plan_module(b.build(), mode="unified")
        text = format_plan(plan, stats())
        assert "[smem]" in text


class TestMemoryTimeline:
    def test_starts_with_inputs(self):
        timeline = memory_timeline(sample_plan(), stats())
        label, nbytes = timeline[0]
        assert label == "<inputs>"
        assert nbytes == 50 * 8 * 4

    def test_peak_matches_analytic_walker(self):
        # Against the from-scratch oracle, step by step, and through
        # it against the phase counters read off the same walk.
        plan = sample_plan()
        s = stats()
        timeline = memory_timeline(plan, s)
        steps, _, _ = naive_ledger(plan, s, pinned=["h"])
        assert tuple(b for _, b in timeline) == steps
        phase = analyze_plan(plan, s, pinned=["h"])
        assert max(steps) == phase.peak_memory_bytes

    def test_keep_raises_tail(self):
        s = stats()
        base = memory_timeline(sample_plan(), s)
        kept = memory_timeline(sample_plan(keep=["e"]), s)
        assert kept[-1][1] >= base[-1][1]

    def test_fused_timeline_flat(self):
        s = stats()
        fused = memory_timeline(sample_plan(mode="unified"), s)
        per_op = memory_timeline(sample_plan(), s)
        assert max(b for _, b in fused) <= max(b for _, b in per_op)

    def test_ascii_rendering(self):
        text = format_memory_timeline(sample_plan(), stats())
        assert "MiB" in text and "|" in text
        assert "peak" in text.splitlines()[0]
