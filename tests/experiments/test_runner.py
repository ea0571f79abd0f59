"""Unit tests for the head-to-head experiment runners."""

import numpy as np
import pytest

from repro.experiments.runner import compare_on_network, compare_on_operator, default_trials
from repro.networks.graph import NetworkGraph, Subgraph
from repro.tensor.workloads import gemm, softmax


@pytest.fixture
def tiny_network():
    return NetworkGraph(
        name="runner-net",
        subgraphs=[
            Subgraph("mm", gemm(128, 128, 128, name="runner_mm"), weight=4, similarity_group="gemm"),
            Subgraph("soft", softmax(128, 64, name="runner_soft"), weight=2, similarity_group="softmax"),
        ],
    )


class TestDefaultTrials:
    def test_scaled_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_TRIALS", raising=False)
        assert default_trials(1000, 60) == 60

    def test_full_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert default_trials(1000, 60) == 1000

    def test_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_TRIALS", "25")
        assert default_trials(1000, 60) == 25


class TestOperatorComparison:
    def test_runs_both_schedulers(self, tiny_config, gemm_dag):
        comparison = compare_on_operator(
            gemm_dag, n_trials=12, config=tiny_config, seed=0, schedulers=("ansor", "harl")
        )
        assert set(comparison.results) == {"ansor", "harl"}
        perf = comparison.normalized_performance()
        assert max(perf.values()) == pytest.approx(1.0)
        times = comparison.normalized_search_time()
        assert max(times.values()) == pytest.approx(1.0)

    def test_ablation_scheduler_supported(self, tiny_config, gemm_dag):
        comparison = compare_on_operator(
            gemm_dag, n_trials=8, config=tiny_config, seed=0,
            schedulers=("ansor", "hierarchical-rl"),
        )
        assert comparison.results["hierarchical-rl"].scheduler == "hierarchical-rl"

    def test_results_are_independent_instances(self, tiny_config, gemm_dag):
        comparison = compare_on_operator(
            gemm_dag, n_trials=8, config=tiny_config, seed=0, schedulers=("ansor", "harl")
        )
        # Each scheduler got its own trial budget (no shared measurer).
        for result in comparison.results.values():
            assert result.trials_used >= 8


class TestNetworkComparison:
    def test_runs_both_schedulers(self, tiny_config, tiny_network):
        comparison = compare_on_network(
            tiny_network, n_trials=24, config=tiny_config, seed=0, schedulers=("ansor", "harl")
        )
        assert set(comparison.results) == {"ansor", "harl"}
        for result in comparison.results.values():
            assert np.isfinite(result.best_latency)
        assert max(comparison.normalized_performance().values()) == pytest.approx(1.0)


class TestCompetitorRecordLogs:
    """Each competitor's <records_dir>/<name>.jsonl is closed after its run."""

    @pytest.fixture
    def closed_logs(self, monkeypatch):
        from repro.records import RecordStore

        closed = []

        def spy(self, _close=RecordStore.close):
            closed.append(self.path.name)
            _close(self)

        monkeypatch.setattr(RecordStore, "close", spy)
        return closed

    def test_operator_comparison_closes_each_log(self, tiny_config, gemm_dag, tmp_path,
                                                 closed_logs):
        compare_on_operator(gemm_dag, n_trials=4, config=tiny_config, seed=0,
                            schedulers=("ansor", "harl"), records_dir=tmp_path)
        assert closed_logs == ["ansor.jsonl", "harl.jsonl"]

    def test_network_comparison_closes_each_log(self, tiny_config, tiny_network, tmp_path,
                                                closed_logs):
        compare_on_network(tiny_network, n_trials=4, config=tiny_config, seed=0,
                           schedulers=("ansor", "harl"), records_dir=tmp_path)
        assert closed_logs == ["ansor.jsonl", "harl.jsonl"]

    def test_result_lines_land_in_each_log(self, tiny_config, gemm_dag, tmp_path):
        from repro.records import RecordStore

        compare_on_operator(gemm_dag, n_trials=4, config=tiny_config, seed=0,
                            schedulers=("ansor", "harl"), records_dir=tmp_path)
        for name in ("ansor", "harl"):
            log = RecordStore.load(tmp_path / f"{name}.jsonl")
            assert [r.scheduler for r in log.query(kind="result")] == [name]


class TestSchedulerConstruction:
    def test_no_scheduler_takes_a_record_store(self):
        """The measurer is the one holder of the record log."""
        import inspect

        from repro.baselines.ansor import AnsorScheduler
        from repro.baselines.autotvm import SimulatedAnnealingScheduler
        from repro.baselines.flextensor import FlextensorScheduler
        from repro.core.allocation import RoundScheduler
        from repro.core.scheduler import HARLScheduler
        from repro.experiments.runner import make_scheduler

        for fn in (RoundScheduler, HARLScheduler, AnsorScheduler, FlextensorScheduler,
                   SimulatedAnnealingScheduler, make_scheduler):
            assert "record_store" not in inspect.signature(fn).parameters, fn
