"""Tests for one configuration through ``repro.session()`` and the model registry."""

import pytest

import repro
from repro.registry import MODELS
from repro.session import ExperimentReport


def run_experiment(
    model, dataset, *, strategy="ours", gpu="RTX3090", feature_dim=None,
    train_steps=0, seed=0,
) -> ExperimentReport:
    return (
        repro.session()
        .model(model).dataset(dataset).strategy(strategy).gpu(gpu)
        .feature_dim(feature_dim)
        .report(train_steps=train_steps, seed=seed)
    )


class TestMakeModel:
    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            MODELS.get("transformer")

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_all_registry_models_buildable(self, name):
        model = MODELS.get(name)(8, 4)
        module = model.build_module()
        assert module.outputs
        assert model.hidden_dims[-1] == 4


class TestRunExperiment:
    def test_analytic_only(self):
        report = run_experiment("gcn", "cora", feature_dim=16)
        assert report.counters.flops > 0
        assert report.latency_s > 0
        assert report.fits_device
        assert report.losses == []
        text = report.summary()
        assert "gcn on cora" in text
        assert "modelled step" in text

    def test_with_training(self):
        report = run_experiment(
            "gcn", "cora", feature_dim=16, train_steps=3, seed=1
        )
        assert len(report.losses) == 3
        assert report.final_accuracy is not None
        assert "training" in report.summary()

    def test_stats_only_dataset_analytic(self):
        report = run_experiment("gat", "reddit-full", feature_dim=32)
        assert report.counters.peak_memory_bytes > 0

    def test_stats_only_dataset_rejects_training(self):
        with pytest.raises(RuntimeError, match="stats-only"):
            run_experiment(
                "gcn", "reddit-full", feature_dim=16, train_steps=1
            )

    def test_strategy_and_gpu_selection(self):
        ours = run_experiment("gat", "pubmed", feature_dim=32)
        dgl = run_experiment(
            "gat", "pubmed", strategy="dgl-like", feature_dim=32
        )
        slow = run_experiment(
            "gat", "pubmed", gpu="RTX2080", feature_dim=32
        )
        assert dgl.counters.io_bytes > ours.counters.io_bytes
        assert slow.latency_s > ours.latency_s

    def test_oom_reported_not_raised(self):
        report = run_experiment(
            "gat", "reddit-full", strategy="dgl-like", gpu="RTX2080",
        )
        assert not report.fits_device
        assert "exceeds device DRAM" in report.summary()
