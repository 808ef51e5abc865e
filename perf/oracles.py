"""Independent reference computations the workloads are checked against.

Nothing here calls into ``repro.exec`` kernels or ``repro.graph``
sampling: the GCN forward is a plain edge-list loop over ``np.add.at``,
and the served-request check rebuilds each batch's graph/feature
snapshot and receptive field from edge lists before handing that field
to a bare :class:`repro.Engine`.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple

import numpy as np

import repro


def digest(arrays: Iterable[np.ndarray]) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
def gcn_forward(
    src: np.ndarray, dst: np.ndarray, num_vertices: int,
    features: np.ndarray, params: Dict[str, np.ndarray],
) -> np.ndarray:
    """Kipf & Welling GCN in float64: h' = relu(b + sum_u e_uv (h_u W)),
    e_uv = 1/sqrt(outdeg(u) indeg(v)), no activation on the last layer."""
    out_deg = np.maximum(np.bincount(src, minlength=num_vertices), 1)
    in_deg = np.maximum(np.bincount(dst, minlength=num_vertices), 1)
    norm = 1.0 / np.sqrt(out_deg[src].astype(np.float64) * in_deg[dst])
    layers = sum(1 for name in params if name.endswith("_w"))
    h = np.asarray(features, dtype=np.float64)
    for layer in range(layers):
        projected = h @ np.asarray(params[f"l{layer}_w"], dtype=np.float64)
        agg = np.zeros_like(projected)
        np.add.at(agg, dst, projected[src] * norm[:, None])
        h = agg + np.asarray(params[f"l{layer}_bias"], dtype=np.float64)
        if layer < layers - 1:
            h = np.maximum(h, 0.0)
    return h


# ----------------------------------------------------------------------
def serve_report_digest(report) -> str:
    """Every timing, placement, cache and version field plus the
    delivered logits: equal digests mean the whole report repeated."""
    h = hashlib.sha256()
    for o in report.outcomes:
        h.update(repr((o.request_id, o.arrival_s, o.start_s, o.finish_s,
                       o.deadline_s, o.gpu, o.snapshot_s)).encode())
    for b in report.batches:
        h.update(repr((b.request_ids, b.dispatch_s, b.start_s, b.finish_s, b.gpu,
                       b.hit_bytes, b.miss_bytes, b.invalidated_bytes,
                       b.graph_version, b.feature_version,
                       b.cost.seeds, b.cost.field, b.cost.edges,
                       b.cost.gather_bytes)).encode())
    h.update(repr((report.gpu_busy_s, report.graph_version, report.feature_version,
                   report.compactions, report.delta_apply_bytes,
                   report.compact_bytes, report.feature_put_bytes)).encode())
    h.update(digest(report.outputs[k] for k in sorted(report.outputs)).encode())
    return h.hexdigest()


def _in_neighbourhood(
    src: np.ndarray, dst: np.ndarray, num_vertices: int,
    seeds: np.ndarray, hops: int,
) -> np.ndarray:
    """Sorted vertices with a directed path of length <= hops into a seed."""
    visited = np.zeros(num_vertices, dtype=bool)
    visited[seeds] = True
    frontier = visited.copy()
    for _ in range(hops):
        reached = np.zeros(num_vertices, dtype=bool)
        reached[src[frontier[dst]]] = True
        frontier = reached & ~visited
        visited |= frontier
    return np.nonzero(visited)[0]


def check_served_sample(
    session, report, kwargs: Dict[str, object], *,
    dataset: str, feature_dim: int, tenant: str, sample: int, corrupt: bool,
) -> Tuple[bool, str]:
    """Delivered logits of ``sample`` requests vs a direct Engine run.

    The stream is regenerated from the seed with the public generators
    (and checked against the report's arrivals, so a drift between the
    two is itself a failure).  For each sampled request, the graph and
    feature state at its batch's dispatch time is rebuilt from the base
    edge list plus every update that had arrived, the batch's k-hop
    field is induced from it, and the compiled forward plan runs on
    that field through a bare Engine.
    """
    seed = int(kwargs["seed"])
    ds = repro.get_dataset(dataset)
    graph = ds.graph()
    compiled = session.compile(training=False)
    params = compiled.model.init_params(0)
    hops = len({name.split("_")[0] for name in params})
    common = dict(
        qps=kwargs["qps"], num_vertices=graph.num_vertices,
        seeds_per_request=kwargs["seeds_per_request"],
        zipf_alpha=kwargs["zipf_alpha"], tenant=tenant,
        rng=np.random.default_rng(seed),
    )
    if kwargs.get("update_frac"):
        requests, updates = repro.mixed_workload(
            kwargs["num_requests"], feature_dim=feature_dim,
            update_frac=kwargs["update_frac"], **common,
        )
    else:
        requests, updates = repro.poisson_workload(kwargs["num_requests"], **common), []
    arrivals = [o.arrival_s for o in report.outcomes]
    if arrivals != [r.arrival_s for r in requests]:
        return False, "regenerated request stream differs from the served one"

    by_id = {r.request_id: r for r in requests}
    rng = np.random.default_rng(seed + 1)
    chosen = set(
        rng.choice(len(requests), size=min(sample, len(requests)), replace=False)
        .tolist()
    )
    features = ds.features(dim=feature_dim, seed=seed)
    if corrupt:
        features = features * 2.0
    src, dst = graph.src, graph.dst
    updates = sorted(updates, key=lambda u: (u.arrival_s, u.update_id))
    applied = 0
    worst, checked = 0.0, 0
    # Batches are in dispatch order, so the snapshot only moves forward.
    for trace in report.batches:
        wanted = chosen.intersection(trace.request_ids)
        if not wanted:
            continue
        while applied < len(updates) and updates[applied].arrival_s <= trace.dispatch_s:
            event = updates[applied]
            if event.num_feature_rows:
                features[event.feature_vertices] = event.feature_rows
            if event.delta is not None:
                src = np.concatenate([src, event.delta.src])
                dst = np.concatenate([dst, event.delta.dst])
            applied += 1
        seeds = np.unique(np.concatenate([by_id[i].seeds for i in trace.request_ids]))
        field = _in_neighbourhood(src, dst, graph.num_vertices, seeds, hops)
        if field.size != trace.cost.field:
            return False, (f"batch {trace.request_ids}: field of {field.size} "
                           f"vertices, server used {trace.cost.field}")
        local = np.full(graph.num_vertices, -1, dtype=np.int64)
        local[field] = np.arange(field.size)
        keep = (local[src] >= 0) & (local[dst] >= 0)
        subgraph = repro.Graph(local[src[keep]], local[dst[keep]], int(field.size))
        engine = repro.Engine(subgraph)
        arrays = compiled.model.make_inputs(subgraph, features[field])
        arrays.update(params)
        logits = engine.run_plan(
            compiled.plan, engine.bind(compiled.forward, arrays)
        )[compiled.forward.outputs[0]]
        for request_id in sorted(wanted):
            want = logits[local[by_id[request_id].seeds]]
            got = report.outputs[request_id]
            err = float(np.abs(got - want).max() / (np.abs(want).max() + 1e-12))
            worst = max(worst, err)
            checked += 1
    ok = checked == len(chosen) and worst <= 1e-5
    return ok, f"{checked}/{len(chosen)} requests, max rel err {worst:.3e}"
