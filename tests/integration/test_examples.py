"""Smoke tests: the example scripts must run end to end.

Each script is executed in a subprocess with reduced workloads where it
accepts arguments; assertions check exit status and headline output.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(script: str, *args: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "after reorganization" in out
        assert "modelled RTX 3090 latency" in out
        assert "done." in out

    def test_gat_citation_training(self):
        out = run_example(
            "gat_citation_training.py",
            "--epochs", "3", "--dataset", "cora", "--hidden", "8",
            "--heads", "2",
        )
        assert "per-step cost" in out
        assert "val acc" in out

    def test_edgeconv_pointcloud(self):
        out = run_example(
            "edgeconv_pointcloud.py",
            "--clouds", "4", "--points", "96", "--k", "8", "--epochs", "25",
        )
        assert "redundant FLOPs eliminated" in out
        assert "final accuracy" in out

    def test_small_gpu_budget(self):
        out = run_example("small_gpu_budget.py")
        assert "OOM" in out
        assert "confirmed." in out

    def test_plan_inspection(self):
        out = run_example("plan_inspection.py")
        assert "memory timeline" in out
        assert "serialized optimized module" in out

    def test_custom_strategy(self):
        out = run_example("custom_strategy.py")
        assert "stash-audit" in out
        assert "boundary-chains" in out
        assert "custom strategy ran end to end." in out

    def test_minibatch_clustergcn(self):
        out = run_example(
            "minibatch_clustergcn.py",
            "--vertices", "600", "--edges", "5000",
            "--batch", "200", "--epochs", "2",
        )
        assert "receptive field" in out
        assert "seed-set accuracy" in out

    def test_minibatch_training(self):
        out = run_example(
            "minibatch_training.py",
            "--dataset", "cora", "--feature-dim", "16",
            "--batch", "256", "--epochs", "2",
        )
        assert "analytic batch-size sweep" in out
        assert "feature gather" in out
        assert "epoch totals reconcile exactly" in out

    def test_multi_gpu_scaling(self):
        out = run_example("multi_gpu_scaling.py")
        assert "halo exchange" in out
        assert "comm" in out
        assert "partitioned execution matches single-GPU execution" in out

    def test_serving(self):
        out = run_example(
            "serving.py", "--dataset", "cora", "--requests", "48"
        )
        assert "Session.serve" in out
        assert "violations by tenant" in out
        assert "bit-identical to the direct engine run" in out

    def test_measured_execution(self):
        out = run_example(
            "measured_execution.py",
            "--vertices", "800", "--edges", "6000",
            "--feature-dim", "16", "--repeats", "1",
        )
        assert "measured execution (forward plan)" in out
        assert "calibration table" in out
        assert "kernel-calibration (gat training step" in out
        assert "done." in out

    def test_dynamic_serving(self):
        out = run_example(
            "dynamic_serving.py", "--dataset", "cora", "--requests", "48"
        )
        assert "Session.serve with updates" in out
        assert "update_frac sweep" in out
        assert "invalidated" in out
        assert "bit-identical to the from-scratch rebuild" in out
        assert "done." in out

    def test_static_analysis(self):
        out = run_example(
            "static_analysis.py", "--model", "gat", "--dataset", "cora"
        )
        assert "0 error(s)" in out
        assert "racing candidate rejected: RP101" in out
        assert "all mutants killed" in out
