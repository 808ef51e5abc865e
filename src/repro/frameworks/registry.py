"""Named strategies: the paper's baselines plus ablation variants.

Built-ins are registered on the unified :data:`repro.registry.STRATEGIES`
registry; user code adds its own with
:func:`repro.registry.register_strategy` — see
``examples/custom_strategy.py``.  ``get_strategy`` / ``list_strategies``
read that registry by name.
"""

from __future__ import annotations

from typing import List

from repro.frameworks.strategy import ExecutionStrategy
from repro.registry import STRATEGIES, register_strategy

__all__ = ["get_strategy", "list_strategies"]

# Deep Graph Library: per-operator kernels plus hand-fused builtins
# (edge-softmax, gSpMM aggregate).  Saves every kernel output for
# backward; builtin kernels regenerate their internals.
register_strategy(ExecutionStrategy(
    name="dgl-like",
    reorg_scope="library",
    fusion_mode="macro",
    recompute_policy="boundary",
    stash_scope="all_boundary",
))

# FuseGNN: fuses chains of same-centricity operators, cannot cross
# the vertex/edge boundary, stashes what backward needs.
register_strategy(ExecutionStrategy(
    name="fusegnn-like",
    reorg_scope="library",
    fusion_mode="edge_chains",
    recompute_policy="boundary",
    stash_scope="needed",
))

# Huang et al. (PPoPP'21): full forward fusion, no training support
# because fused intermediates are discarded (§8.1).
register_strategy(ExecutionStrategy(
    name="huang-like",
    reorg_scope="library",
    fusion_mode="unified",
    supports_training=False,
))

# This paper: all three techniques.
register_strategy(ExecutionStrategy(
    name="ours",
    reorg_scope="full",
    fusion_mode="unified",
    recompute_policy="recompute",
    stash_scope="needed",
))

# Ablations ------------------------------------------------------------
# Fig. 8 baseline: reorganization off, everything else per-op.
register_strategy(ExecutionStrategy(
    name="ours-noreorg",
    reorg_scope="none",
    fusion_mode="unified",
    recompute_policy="recompute",
    stash_scope="needed",
))

# Fig. 10 "w/ fusion & stashing": forward fuses fully, but without
# the §6 pass the backward may only regenerate what framework
# builtins regenerate (macro boundaries) — everything else the
# backward needs is written out and stashed.
register_strategy(ExecutionStrategy(
    name="ours-stash",
    reorg_scope="full",
    fusion_mode="unified",
    recompute_policy="boundary",
    recompute_boundary_mode="macro",
    stash_scope="needed",
))

# Fig. 10 "w/o fusion": §5 fusion disabled; framework-builtin fused
# kernels (edge-softmax, gSpMM) remain, as in any real system.
register_strategy(ExecutionStrategy(
    name="ours-nofusion",
    reorg_scope="full",
    fusion_mode="macro",
    recompute_policy="boundary",
    stash_scope="needed",
))

# Mapping ablation: unified fusion under edge-balanced mapping
# (atomic reductions, Fig. 5(d)).
register_strategy(ExecutionStrategy(
    name="ours-edgemap",
    reorg_scope="full",
    fusion_mode="unified",
    prefer_mapping="edge",
    recompute_policy="recompute",
    stash_scope="needed",
))


def get_strategy(name: str) -> ExecutionStrategy:
    return STRATEGIES.get(name)


def list_strategies() -> List[str]:
    return STRATEGIES.names()
