"""Smoke test of the benchmark itself (collected by tier-1).

Runs ``perf/run.py --quick`` — every workload, tiny iteration counts,
one process, traced pass included — twice, side by side, plus one run
with a deliberately corrupted oracle input, and checks what the
benchmark promises that does not depend on the clock.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

from perf.metrics import END_TO_END, EXACT, PER_LAYER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git_status():
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    return done.stdout if done.returncode == 0 else None   # not a checkout


def _launch(out, *extra):
    return subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"), "--quick",
         "--out", str(out), *extra],
        cwd=ROOT, stdout=subprocess.DEVNULL,
    )


def test_quick_run(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    status_before = _git_status()

    paths = [tmp_path / "a" / "bench.json", tmp_path / "b" / "bench.json"]
    corrupt_path = tmp_path / "c" / "bench.json"
    runs = [_launch(path) for path in paths]
    # Documented corruption: --corrupt-oracle doubles the features fed
    # to the float64 dgl-like reference (workloads.py), so the loss
    # comparison must fail and failed_frac must rise above 0.
    corrupt = _launch(corrupt_path, "--workload", "train-gat-cora", "--corrupt-oracle")
    assert [run.wait(timeout=170) for run in runs] == [0, 0]
    assert corrupt.wait(timeout=170) == 1
    a, b = (json.loads(path.read_text()) for path in paths)

    # BENCHMARK.json and the metric tables name the same things.
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(a["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in PER_LAYER
    ]

    for name, entry in a["workloads"].items():
        for metric, _, _ in END_TO_END:
            value = entry["end_to_end"][metric]["median"]
            assert math.isfinite(value) and value > 0, (name, metric, value)
        for metric, *_ in PER_LAYER:
            value = entry["per_layer"][metric]
            assert value is None or math.isfinite(value), (name, metric, value)
        assert entry["missing_wrap_targets"] == [], name
        assert entry["failed_frac"]["value"] == 0, (name, entry["checks"])
        assert os.path.getsize(tmp_path / "a" / f"trace_{name}.json") > 0
        # Counts made by the program repeat exactly for one seed.
        other = b["workloads"][name]["per_layer"]
        for metric in EXACT:
            assert entry["per_layer"][metric] == other[metric], (name, metric)

    layers = {name: entry["per_layer"] for name, entry in a["workloads"].items()}
    assert layers["serve-read"]["dyn.apply_calls"] == 0
    assert layers["serve-mixed"]["dyn.apply_calls"] > 0
    assert layers["sweep-analytic"]["exec.run_plan_calls"] == 0
    assert layers["multi4-gat-cora"]["exec.multi.comm_bytes"] > 0

    failed = json.loads(corrupt_path.read_text())["workloads"]["train-gat-cora"]
    assert failed["failed_frac"]["value"] > 0

    assert _git_status() == status_before
