"""Tests for the analytic walker: counters, ledger, work shapes."""

import numpy as np
import pytest

from repro.exec import analyze_plan, plan_module
from repro.exec.analytic import analyze_training
from repro.graph import GraphStats
from repro.ir import Builder, Domain


def stats(V=100, E=600, max_in=None):
    ind = np.full(V, E // V, dtype=np.int64)
    outd = np.full(V, E // V, dtype=np.int64)
    if max_in is not None:
        ind[0] = max_in
        ind[1:] = (E - max_in) // (V - 1)
        ind[1] += E - int(ind.sum())
    return GraphStats(V, E, ind, outd)


def chain_module(f=4):
    b = Builder("m")
    h = b.input("h", Domain.VERTEX, (f,))
    e = b.scatter("copy_u", u=h, name="e")
    x = b.apply("exp", e, name="x")
    v = b.gather("sum", x, name="v")
    b.output(v)
    return b.build()


class TestKernelRecords:
    def test_scatter_reads_per_edge(self):
        m = chain_module(4)
        plan = plan_module(m, mode="per_op")
        s = stats()
        rec = analyze_plan(plan, s).records[0]
        # Vertex operand fetched once per edge: |E|·f·4 bytes.
        assert rec.read_bytes == 600 * 4 * 4
        assert rec.write_bytes == 600 * 4 * 4
        assert rec.mapping == "edge"
        assert rec.work == "uniform"
        assert rec.rows == 600

    def test_gather_record(self):
        m = chain_module(4)
        plan = plan_module(m, mode="per_op")
        s = stats()
        rec = analyze_plan(plan, s).records[2]
        assert rec.mapping == "vertex"
        assert rec.work == "degree_in"
        assert rec.rows == 100
        assert rec.flops == 600 * 4  # one FLOP per reduced element
        assert rec.write_bytes == 100 * 4 * 4

    def test_fused_record_merges(self):
        m = chain_module(4)
        plan = plan_module(m, mode="unified")
        s = stats()
        rec = analyze_plan(plan, s).records[0]
        assert rec.fused_ops == 3
        assert rec.read_bytes == 600 * 4 * 4   # h per edge
        assert rec.write_bytes == 100 * 4 * 4  # v only

    def test_out_orientation_work(self):
        b = Builder("m")
        h = b.input("h", Domain.VERTEX, (2,))
        e = b.scatter("copy_u", u=h)
        b.output(b.gather("sum", e, orientation="out"))
        plan = plan_module(b.build(), mode="per_op")
        rec = analyze_plan(plan, stats()).records[1]
        assert rec.work == "degree_out"


class TestMemoryLedger:
    def test_peak_includes_inputs(self):
        m = chain_module(4)
        plan = plan_module(m, mode="per_op")
        s = stats()
        phase = analyze_plan(plan, s, pinned=["h"])
        h_bytes = 100 * 4 * 4
        assert phase.peak_memory_bytes >= h_bytes

    def test_fusion_reduces_peak(self):
        m = chain_module(16)
        s = stats()
        per_op = analyze_plan(plan_module(m, mode="per_op"), s, pinned=["h"])
        fused = analyze_plan(plan_module(m, mode="unified"), s, pinned=["h"])
        assert fused.peak_memory_bytes < per_op.peak_memory_bytes

    def test_peak_counts_live_edge_tensor(self):
        m = chain_module(16)
        s = stats()
        per_op = analyze_plan(plan_module(m, mode="per_op"), s, pinned=["h"])
        # At the exp kernel both e and x are live: 2·|E|·f·4 + h.
        expected_peak = 2 * 600 * 16 * 4 + 100 * 16 * 4
        assert per_op.peak_memory_bytes == expected_peak

    def test_dead_values_freed(self):
        m = chain_module(16)
        s = stats()
        phase = analyze_plan(plan_module(m, mode="per_op"), s, pinned=["h"])
        # After the walk only h and the output remain.
        assert phase.end_resident_bytes == 100 * 16 * 4 * 2

    def test_keep_extends_residency(self):
        m = chain_module(16)
        s = stats()
        plan = plan_module(m, mode="per_op", keep=["e"])
        phase = analyze_plan(plan, s, pinned=["h"])
        assert phase.end_resident_bytes == (
            100 * 16 * 4 * 2 + 600 * 16 * 4
        )


class TestTrainingCounters:
    def test_stash_bytes_reported(self):
        from repro.frameworks import compile_training, get_strategy
        from repro.models import GCN

        model = GCN(8, (6, 4))
        c = compile_training(model, get_strategy("ours"))
        s = stats()
        counters = c.counters(s)
        assert counters.stash_bytes > 0
        assert counters.backward is not None
        assert counters.flops > counters.forward.flops

    def test_more_stash_more_memory(self):
        from repro.frameworks import compile_training, get_strategy
        from repro.models import GAT

        model = GAT(8, (8, 4), heads=2)
        s = stats(V=200, E=8000)
        ours = compile_training(model, get_strategy("ours")).counters(s)
        dgl = compile_training(model, get_strategy("dgl-like")).counters(s)
        assert dgl.stash_bytes > ours.stash_bytes
        assert dgl.peak_memory_bytes > ours.peak_memory_bytes
