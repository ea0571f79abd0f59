"""Ansor-like auto-scheduler (the paper's main baseline).

Ansor's search differs from HARL's exactly where Table 1 says it does:

* subgraph selection — **greedy** gradient allocation (no bandit),
* sketch selection — **uniform** random,
* schedule selection — **evolutionary search** guided by the cost model
  (no RL agent),
* time allocation — fixed-length rounds with a fixed number of measured
  candidates per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.caching import cached_sketches_for_target
from repro.baselines.evolutionary import EvolutionarySearch
from repro.core.allocation import RoundScheduler
from repro.core.config import HARLConfig
from repro.core.tuner import TuningResult
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget, cpu_target
from repro.tensor.dag import ComputeDAG
from repro.tensor.schedule import Schedule
from repro.tensor.sketch import Sketch

__all__ = ["AnsorConfig", "AnsorScheduler"]


@dataclass(frozen=True)
class AnsorConfig:
    """Search-scale parameters of the Ansor baseline.

    ``population_size x (generations + 1)`` schedules are visited per round
    and ``measures_per_round`` of them are measured — the paper configures
    Ansor and HARL with the same number of measured candidates per round for
    a fair comparison.
    """

    population_size: int = 256
    generations: int = 4
    measures_per_round: int = 64
    mutation_prob: float = 0.85
    crossover_prob: float = 0.4

    @staticmethod
    def from_harl(config: HARLConfig) -> "AnsorConfig":
        """Match the episode width of a HARL configuration."""
        return AnsorConfig(
            population_size=config.num_tracks,
            generations=max(2, config.episode_length // 8),
            measures_per_round=config.measures_per_round,
        )


class AnsorScheduler(RoundScheduler):
    """Evolutionary-search auto-scheduler with greedy task allocation.

    ``tune`` / ``tune_network`` come from
    :class:`~repro.core.allocation.RoundScheduler`; the network policy is
    the greedy ``"gradient"`` allocator.
    """

    name = "ansor"

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        config: Optional[AnsorConfig] = None,
        seed: int = 0,
        cost_model: Optional[ScheduleCostModel] = None,
        measurer: Optional[Measurer] = None,
        record_store=None,
        warm_start_provider=None,
    ):
        self.target = target or cpu_target()
        self.config = config or AnsorConfig()
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self.measurer = measurer or Measurer(self.target, seed=seed)
        self.cost_model = cost_model or ScheduleCostModel(seed=seed)
        self.record_store = record_store
        if record_store is not None and self.measurer.record_store is None:
            self.measurer.record_store = record_store
        self.warm_start_provider = warm_start_provider
        self._resume_store = None
        self._resumed: set = set()
        self._warm_started: set = set()
        self._pending_warm: Dict[str, List[Schedule]] = {}
        self._search_steps: Dict[str, int] = {}
        self._best_schedules: Dict[str, List[Schedule]] = {}
        self._rounds: Dict[str, int] = {}
        self._sketch_lists: Dict[str, List[Sketch]] = {}

    # ------------------------------------------------------------------ #
    def resume_from(self, store) -> "AnsorScheduler":
        """Resume tuning from a persisted record store.

        Replayed lazily per workload: the cost model is warm-started with
        the recorded measurements, the measurer's best-known statistics are
        preloaded, and the best recorded schedules seed the evolutionary
        warm starts.  Returns ``self`` for chaining.
        """
        self._resume_store = store
        self._resumed.clear()
        return self

    def _maybe_replay(self, dag: ComputeDAG) -> None:
        if self._resume_store is None or dag.name in self._resumed:
            return
        self._resumed.add(dag.name)
        restored = self._resume_store.replay(
            dag, cost_model=self.cost_model, measurer=self.measurer
        )
        if restored:
            self._best_schedules[dag.name] = list(reversed(restored[:8]))

    def _maybe_warm_start(self, dag: ComputeDAG) -> None:
        """Queue transferred (registry) schedules for direct measurement."""
        if self.warm_start_provider is None or dag.name in self._warm_started:
            return
        self._warm_started.add(dag.name)
        seeds = list(self.warm_start_provider(dag) or [])
        if seeds:
            self._pending_warm[dag.name] = seeds

    def _sketches(self, dag: ComputeDAG) -> List[Sketch]:
        sketches = self._sketch_lists.get(dag.name)
        if sketches is None:
            sketches = cached_sketches_for_target(dag, self.target)
            self._sketch_lists[dag.name] = sketches
        return sketches

    # ------------------------------------------------------------------ #
    def _measure(self, dag: ComputeDAG, schedules: List[Schedule]) -> None:
        """Measure one batch, train the cost model, keep the best as a warm start."""
        results = self.measurer.measure(schedules)
        self.cost_model.update([r.schedule for r in results], [r.throughput for r in results])
        if results:
            bucket = self._best_schedules.setdefault(dag.name, [])
            bucket.append(min(results, key=lambda r: r.latency).schedule)
            del bucket[:-8]

    def _run_round(self, dag: ComputeDAG, max_measures: Optional[int] = None) -> None:
        """One round: uniform sketch choice, evolutionary search, measure top-K."""
        pending = self._pending_warm.get(dag.name)
        if pending:
            # Transferred schedules are measured directly (one batch) before
            # the evolutionary search starts, mirroring HARL's warm start.
            budget = len(pending) if max_measures is None else min(len(pending), max_measures)
            self._pending_warm[dag.name] = pending[budget:]
            self._measure(dag, pending[:budget])
            return
        cfg = self.config
        sketches = self._sketches(dag)
        sketch = sketches[int(self._rng.integers(0, len(sketches)))]
        search = EvolutionarySearch(
            cost_model=self.cost_model,
            population_size=cfg.population_size,
            generations=cfg.generations,
            mutation_prob=cfg.mutation_prob,
            crossover_prob=cfg.crossover_prob,
            rng=self._rng,
        )
        warm_start = self._best_schedules.get(dag.name)
        candidates = search.search(sketch, self.target.unroll_depths, warm_start=warm_start)
        self._search_steps[dag.name] = self._search_steps.get(dag.name, 0) + search.visited

        budget = cfg.measures_per_round
        if max_measures is not None:
            budget = min(budget, max_measures)
        self._measure(dag, [schedule for schedule, _score in candidates[:budget]])
        self._rounds[dag.name] = self._rounds.get(dag.name, 0) + 1

    def tune_round(self, dag: ComputeDAG, max_measures: Optional[int] = None) -> int:
        """Run one incremental tuning round; returns trials consumed.

        The incremental counterpart of :meth:`tune`, used by the
        multi-tenant :class:`~repro.serving.service.TuningService` to
        interleave rounds of several jobs under one budget allocator.
        """
        if max_measures is not None and max_measures <= 0:
            return 0
        self._maybe_replay(dag)
        self._maybe_warm_start(dag)
        before = self.measurer.trials(dag.name)
        self._run_round(dag, max_measures=max_measures)
        return self.measurer.trials(dag.name) - before

    def finalize(self, dag: ComputeDAG) -> TuningResult:
        """Build (and persist) the current tuning result of one workload."""
        result = self._build_result(dag)
        if self.record_store is not None:
            self.record_store.append_result(result)
        return result

    def _build_result(self, dag: ComputeDAG) -> TuningResult:
        best_latency = self.measurer.best_latency(dag.name)
        return TuningResult(
            workload=dag.name,
            scheduler=self.name,
            best_latency=best_latency,
            best_throughput=dag.flops / best_latency if np.isfinite(best_latency) else 0.0,
            best_schedule=self.measurer.best_schedule(dag.name),
            trials_used=self.measurer.trials(dag.name),
            search_steps=self._search_steps.get(dag.name, 0),
            history=self.measurer.history(dag.name),
            extras={"rounds": self._rounds.get(dag.name, 0)},
        )
