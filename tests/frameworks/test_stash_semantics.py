"""Fine-grained tests of the per-strategy stash/recompute semantics."""

import numpy as np
import pytest

from repro.frameworks import compile_training, get_strategy
from repro.graph import GraphStats
from repro.ir.tensorspec import Domain
from repro.models import GAT, MoNet
from repro.opt.pipeline import _boundary_values


@pytest.fixture(scope="module")
def stats():
    return GraphStats.from_degree_model(5000, 40, alpha=1.6, seed=1)


def edge_stash_bytes(compiled, stats):
    V, E = stats.num_vertices, stats.num_edges
    return sum(
        compiled.forward.specs[s].nbytes(V, E)
        for s in compiled.stash
        if compiled.forward.specs[s].domain is Domain.EDGE
    )


class TestBoundaryProbe:
    def test_unified_boundary_is_interface_dominated(self):
        model = GAT(16, (16,), heads=2)
        ours = get_strategy("ours")
        forward = ours.prepare_forward(model)
        boundary = _boundary_values(forward, ours, mode=ours.fusion_mode)
        # Under unified fusion, graph-op chains collapse: only values
        # feeding/leaving dense kernels (projections) and outputs cross.
        edge_boundary = [
            b for b in boundary
            if forward.specs[b].domain is Domain.EDGE
        ]
        assert edge_boundary == []

    def test_macro_boundary_includes_edge_tensors(self):
        model = GAT(16, (16,), heads=2)
        dgl = get_strategy("dgl-like")
        forward = dgl.prepare_forward(model)
        boundary = _boundary_values(forward, dgl, mode=dgl.fusion_mode)
        edge_boundary = [
            b for b in boundary
            if forward.specs[b].domain is Domain.EDGE
        ]
        assert edge_boundary  # attention logits etc. hit DRAM

    def test_recompute_boundary_mode_overrides(self):
        # ours-stash probes macro boundaries even though it fuses fully.
        stash_strategy = get_strategy("ours-stash")
        assert stash_strategy.fusion_mode == "unified"
        assert stash_strategy.recompute_boundary_mode == "macro"


class TestStashComposition:
    def test_gat_stash_ordering(self, stats):
        model = GAT(32, (32, 8), heads=4)
        sizes = {}
        for sname in ("dgl-like", "fusegnn-like", "ours-stash", "ours"):
            compiled = compile_training(model, get_strategy(sname))
            sizes[sname] = edge_stash_bytes(compiled, stats)
        # Save-everything stashes the most edge data; §6 recomputation
        # eliminates it entirely; fuse-without-recompute sits at the
        # save-everything level (fusing the forward does not shrink what
        # backward needs — §6's motivating observation).  FuseGNN lands
        # below DGL because its fused edge-chain kernels regenerate
        # their internal pre-activations.
        assert sizes["dgl-like"] >= sizes["fusegnn-like"]
        assert sizes["dgl-like"] >= sizes["ours-stash"] * 0.99
        assert sizes["ours-stash"] > 0
        assert sizes["ours"] == 0

    def test_monet_gaussian_weights_stashed_vs_recomputed(self, stats):
        model = MoNet(16, (8, 4), num_kernels=2, pseudo_dim=1)
        stash_c = compile_training(model, get_strategy("ours-stash"))
        ours_c = compile_training(model, get_strategy("ours"))
        gauss_names = [
            n.outputs[0]
            for n in ours_c.forward.nodes
            if n.fn == "gaussian"
        ]
        assert gauss_names
        for g in gauss_names:
            assert g in stash_c.stash
            assert g not in ours_c.stash
            assert g in ours_c.decision.recomputed

    def test_stash_is_subset_of_forward_values(self, stats):
        model = GAT(16, (8, 4), heads=2)
        for sname in ("dgl-like", "fusegnn-like", "ours", "ours-stash"):
            compiled = compile_training(model, get_strategy(sname))
            produced = {
                o for n in compiled.forward.nodes for o in n.outputs
            }
            assert set(compiled.stash) <= produced, sname

    def test_recompute_cone_inside_backward_kernels(self, stats):
        # The fusion–recomputation combo: cone nodes must share fused
        # kernels with backward nodes (not run as separate launches
        # writing O(|E|) tensors).
        model = GAT(16, (16,), heads=2)
        compiled = compile_training(model, get_strategy("ours"))
        cone_names = {n.name for n in compiled.decision.cone}
        assert cone_names
        for kernel in compiled.bwd_plan.kernels:
            names = {n.name for n in kernel.nodes}
            if names & cone_names and kernel.mapping in ("edge", "vertex"):
                # At least one cone-containing graph kernel also holds
                # backward work.
                if names - cone_names:
                    return
        pytest.fail("no fused kernel mixes recompute cone and backward ops")
