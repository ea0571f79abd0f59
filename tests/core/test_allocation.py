"""Tests for the one network-tuning loop (repro.core.allocation).

* golden runs: seeded network runs (Ansor, HARL under both policies,
  ``NetworkTuner``) and single-operator runs (all four schedulers, plain,
  warm-started and resumed) must reproduce their pinned traces bit for bit
  (``tests/data/golden_network_runs.json`` was captured from the separate
  per-scheduler loops and skeletons that ``RoundScheduler`` replaced),
* budget starvation: a coarse config whose round measures more than
  ``n_trials / #tasks`` still measures every task and ends with a finite
  f(S),
* the loop's contract: first-visit fair-share cap, exhausted tasks leave the
  live set,
* the scheduler contract, for each of the four schedulers: capped rounds,
  spent budgets, resume replay, direct warm-start batches, network tuning.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.ansor import AnsorConfig, AnsorScheduler
from repro.baselines.autotvm import SimulatedAnnealingScheduler
from repro.baselines.flextensor import FlextensorScheduler
from repro.core.allocation import (
    GradientTaskScheduler,
    RoundScheduler,
    allocate_rounds,
    tune_network,
)
from repro.core.config import HARLConfig
from repro.core.scheduler import HARLScheduler
from repro.experiments.network_runner import NetworkTuner
from repro.hardware.measurer import Measurer
from repro.hardware.target import cpu_target
from repro.networks.graph import NetworkGraph, Subgraph
from repro.records import RecordStore
from repro.serving.registry import ScheduleRegistry
from repro.serving.service import TuningService
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches
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


def tiny_gemm():
    return gemm(64, 64, 64, name="tiny_gemm")


def fixed_schedules(dag, count=6, seed=123):
    """Schedules drawn independently of any scheduler's RNG."""
    sketch = generate_sketches(dag)[0]
    return sample_initial_schedules(sketch, count, np.random.default_rng(seed))


def small_store(dag, path):
    """A record store holding one seeded measurement batch of ``dag``."""
    store = RecordStore(path)
    Measurer(cpu_target(), seed=5, record_store=store).measure(fixed_schedules(dag, 10, 7))
    store.close()
    return RecordStore.load(path)


def op_summary(result):
    """The JSON-comparable trace of one single-operator run."""
    return json.loads(json.dumps({
        "history": as_pairs(result.history),
        "trials_used": result.trials_used,
        "search_steps": result.search_steps,
        "extras": result.extras,
    }))


def _sa(config, **kwargs):
    return SimulatedAnnealingScheduler(
        num_chains=8, steps_per_round=8, measures_per_round=4, **kwargs
    )


#: Every scheduler of the repo, built on the tiny config: name -> factory(config, **kwargs).
SCHEDULERS = {
    "harl": lambda config, **kwargs: HARLScheduler(config=config, **kwargs),
    "ansor": lambda config, **kwargs: AnsorScheduler(
        config=AnsorConfig.from_harl(config), **kwargs
    ),
    "autotvm-sa": _sa,
    "flextensor": lambda config, **kwargs: FlextensorScheduler(config=config, **kwargs),
}


def _plain(name):
    return lambda config, tmp: SCHEDULERS[name](config, seed=0).tune(tiny_gemm(), n_trials=10)


def _warm_started(name):
    return lambda config, tmp: SCHEDULERS[name](
        config, seed=0, warm_start_provider=fixed_schedules
    ).tune(tiny_gemm(), n_trials=14)


def _resumed(name):
    return lambda config, tmp: SCHEDULERS[name](config, seed=1).resume_from(
        small_store(tiny_gemm(), tmp / "log.jsonl")
    ).tune(tiny_gemm(), n_trials=10)


#: Seeded single-operator runs pinned in the golden file: name -> run(config, tmp_path).
OPERATOR_RUNS = {
    "autotvm-sa": _plain("autotvm-sa"),
    "flextensor": _plain("flextensor"),
    "harl-warm-start": _warm_started("harl"),
    "ansor-warm-start": _warm_started("ansor"),
    **{f"{name}-resume": _resumed(name) for name in SCHEDULERS},
}


@pytest.mark.network_smoke
class TestGoldenRuns:
    """Seeded network and single-operator runs stay bit-reproducible."""

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

    def test_harl_bandit(self, tiny_config):
        result = HARLScheduler(config=tiny_config, seed=0).tune_network(
            tiny_network(), n_trials=40
        )
        assert result.extras["policy"] == "bandit"
        assert as_pairs(result.latency_history) == GOLDEN["harl-bandit"]["latency_history"]
        assert result.allocations == GOLDEN["harl-bandit"]["allocations"]

    @pytest.mark.parametrize("name", sorted(OPERATOR_RUNS))
    def test_operator_run(self, name, tiny_config, tmp_path):
        result = OPERATOR_RUNS[name](tiny_config, tmp_path)
        assert op_summary(result) == GOLDEN[name]

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


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
class TestSchedulerContract:
    """What every RoundScheduler owes its callers."""

    def test_round_respects_its_cap(self, name, tiny_config):
        scheduler = SCHEDULERS[name](tiny_config, seed=0)
        assert scheduler.tune_round(tiny_gemm(), 0) == 0
        assert 0 < scheduler.tune_round(tiny_gemm(), 3) <= 3

    def test_tune_spends_the_budget(self, name, tiny_config):
        result = SCHEDULERS[name](tiny_config, seed=0).tune(tiny_gemm(), n_trials=10)
        assert result.trials_used >= 10
        assert np.isfinite(result.best_latency)

    def test_resume_replays(self, name, tiny_config, tmp_path):
        store = small_store(tiny_gemm(), tmp_path / "log.jsonl")
        scheduler = SCHEDULERS[name](tiny_config, seed=1).resume_from(store)
        # finalize alone prepares the workload: no trial is spent, yet the
        # measurer knows the log's best and the cost model learned the log.
        result = scheduler.finalize(tiny_gemm())
        assert result.trials_used == 0
        assert result.best_latency == min(m.latency for m in store.query(kind="measure"))
        assert scheduler.cost_model.num_samples(tiny_gemm().name) == 10

    def test_warm_start_is_one_direct_batch(self, name, tiny_config):
        scheduler = SCHEDULERS[name](tiny_config, seed=0, warm_start_provider=fixed_schedules)
        assert scheduler.tune_round(tiny_gemm()) == 6
        assert scheduler._workload(tiny_gemm()).warm_start_trials == 6

    def test_tune_network(self, name, tiny_config):
        scheduler = SCHEDULERS[name](tiny_config, seed=0)
        result = scheduler.tune_network(tiny_network(), n_trials=24)
        assert all(trials > 0 for trials in result.allocations.values()), result.allocations
        assert sum(result.allocations.values()) == 24
        assert np.isfinite(result.best_latency)
