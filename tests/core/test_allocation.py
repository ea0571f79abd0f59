"""Tests for the one network-tuning loop (repro.core.allocation).

* golden runs: seeded Ansor, HARL + ``"gradient"`` and ``NetworkTuner`` runs
  on tiny networks must reproduce their pinned ``latency_history`` /
  ``allocations`` bit for bit (``tests/data/golden_network_runs.json`` was
  captured from the separate per-scheduler loops this module replaced),
* budget starvation: a coarse config whose round measures more than
  ``n_trials / #tasks`` still measures every task and ends with a finite
  f(S),
* the loop's contract: first-visit fair-share cap, exhausted tasks leave the
  live set, schedulers without ``tune_round`` are rejected.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.ansor import AnsorConfig, AnsorScheduler
from repro.core.allocation import (
    GradientTaskScheduler,
    RoundScheduler,
    allocate_rounds,
    tune_network,
)
from repro.core.config import HARLConfig
from repro.core.scheduler import HARLScheduler
from repro.experiments.network_runner import NetworkTuner
from repro.networks.graph import NetworkGraph, Subgraph
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningService
from repro.tensor.workloads import conv1d, gemm, softmax

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "data" / "golden_network_runs.json").read_text()
)


def tiny_network():
    """Two GEMMs and a softmax: the 3-task network of the scheduler tests."""
    return NetworkGraph(
        name="tiny-net",
        subgraphs=[
            Subgraph("mm_big", gemm(128, 128, 128, name="tiny_mm_big"), weight=4,
                     similarity_group="gemm"),
            Subgraph("mm_small", gemm(64, 64, 64, name="tiny_mm_small"), weight=2,
                     similarity_group="gemm"),
            Subgraph("softmax", softmax(128, 64, name="tiny_softmax"), weight=2,
                     similarity_group="softmax"),
        ],
    )


def toy_network():
    return NetworkGraph(
        name="toy",
        subgraphs=[
            Subgraph("mm", gemm(64, 64, 64, name="toy_mm"), weight=4,
                     similarity_group="gemm"),
            Subgraph("c1d", conv1d(64, 16, 32, 3, 1, 1, name="toy_c1d"), weight=2,
                     similarity_group="conv1d"),
        ],
    )


def as_pairs(history):
    return [[trials, latency] for trials, latency in history]


@pytest.mark.network_smoke
class TestGoldenRuns:
    """Seeded network runs stay bit-reproducible."""

    def test_ansor(self, tiny_config):
        scheduler = AnsorScheduler(config=AnsorConfig.from_harl(tiny_config), seed=0)
        result = scheduler.tune_network(tiny_network(), n_trials=40)
        assert as_pairs(result.latency_history) == GOLDEN["ansor"]["latency_history"]
        assert result.allocations == GOLDEN["ansor"]["allocations"]

    def test_harl_gradient(self, tiny_config):
        scheduler = HARLScheduler(config=tiny_config, seed=0)
        result = scheduler.tune_network(tiny_network(), n_trials=40, policy="gradient")
        assert as_pairs(result.latency_history) == GOLDEN["harl-gradient"]["latency_history"]
        assert result.allocations == GOLDEN["harl-gradient"]["allocations"]

    def test_network_tuner(self, tiny_config):
        service = TuningService(registry=ScheduleRegistry(), config=tiny_config, seed=0)
        report = NetworkTuner(toy_network(), service).tune(n_trials=24)
        assert as_pairs(report.trajectory) == GOLDEN["network-tuner"]["trajectory"]
        assert {t.task: t.trials for t in report.tasks} == GOLDEN["network-tuner"]["allocations"]


class TestStarvation:
    """A 32-measure round on a 36-trial, 3-task budget must not starve tasks."""

    @pytest.mark.parametrize("name", ["harl", "ansor"])
    def test_every_task_measured_and_fs_finite(self, name):
        config = HARLConfig.scaled(0.5)
        assert config.measures_per_round == 32
        if name == "harl":
            scheduler = HARLScheduler(config=config, seed=0)
        else:
            scheduler = AnsorScheduler(config=AnsorConfig.from_harl(config), seed=0)
        result = scheduler.tune_network(tiny_network(), n_trials=36)
        assert all(trials > 0 for trials in result.allocations.values()), result.allocations
        assert sum(result.allocations.values()) == 36
        assert np.isfinite(result.best_latency)


class _StubScheduler(RoundScheduler):
    """Spends ``min(cap, per_round)`` trials per round until ``budget`` runs out."""

    name = "stub"
    config = None
    seed = 0

    def __init__(self, per_round, budget=None):
        self.per_round = per_round
        self.budget = dict(budget or {})
        self.caps = []
        self.measurer = self

    def tune_round(self, dag, max_measures=None):
        self.caps.append((dag.name, max_measures))
        spent = min(max_measures, self.per_round, self.budget.get(dag.name, 10**9))
        if dag.name in self.budget:
            self.budget[dag.name] -= spent
        return spent

    def best_latency(self, workload):
        return 1e-3

    def finalize(self, dag):
        return dag.name


class _Preferring(GradientTaskScheduler):
    """Always picks the first live task of a fixed preference order."""

    name = "preferring"

    def __init__(self, network, order):
        super().__init__(network)
        self.order = order

    def next_task(self, among=None):
        return next(name for name in self.order if name in among)


class TestLoopContract:
    def test_first_visit_capped_at_fair_share(self):
        scheduler = _StubScheduler(per_round=32)
        result = tune_network(scheduler, tiny_network(), n_trials=36)
        assert scheduler.caps[:3] == [
            ("tiny_mm_big", 12), ("tiny_mm_small", 12), ("tiny_softmax", 12)
        ]
        assert result.allocations == {"mm_big": 12, "mm_small": 12, "softmax": 12}
        assert [t for t, _ in result.latency_history] == [12, 24, 36]

    def test_exhausted_task_leaves_live_set(self):
        # mm_small's search space is exhausted after 4 trials: its next
        # round spends nothing and the policy never sees it again.
        scheduler = _StubScheduler(per_round=4, budget={"tiny_mm_small": 4})
        policy = _Preferring(tiny_network(), ["mm_small", "mm_big", "softmax"])
        result = tune_network(scheduler, tiny_network(), n_trials=40, policy=policy)
        assert result.allocations == {"mm_big": 36, "mm_small": 4, "softmax": 0}
        picks = [name for name, _cap in scheduler.caps]
        assert picks.count("tiny_mm_small") == 2
        assert result.extras["policy"] == "preferring"

    def test_loop_stops_when_every_task_is_exhausted(self):
        policy = GradientTaskScheduler(tiny_network())
        trajectory, live = allocate_rounds(
            policy, tiny_network(), ["mm_big", "softmax"], 100,
            run_round=lambda task, cap: 0, latency=lambda task: float("inf"),
        )
        assert live == []
        assert [t for t, _ in trajectory] == [0, 0]

    def test_tune_stops_on_an_exhausted_search(self, gemm_dag):
        scheduler = _StubScheduler(per_round=4, budget={gemm_dag.name: 6})
        assert scheduler.tune(gemm_dag, n_trials=100) == gemm_dag.name
        assert [cap for _name, cap in scheduler.caps] == [100, 96, 94]

    def test_rejects_schedulers_without_rounds(self):
        class OperatorOnly:
            name = "operator-only"

        with pytest.raises(NotImplementedError):
            tune_network(OperatorOnly(), tiny_network(), n_trials=8)
