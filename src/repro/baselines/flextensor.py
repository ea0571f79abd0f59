"""Flextensor-like baseline: fixed-length RL search on single operators.

Flextensor applies an RL agent to the low-level parameter search but (per
Table 1) supports neither subgraph nor sketch selection and uses uniform
fixed-length allocations for every schedule track.  This baseline therefore
reuses HARL's PPO parameter search with a :class:`FixedLengthStopper`, pinned
to the first (plain multi-level tiling) sketch, and exposes the per-track
critical-step positions needed for the Fig. 1(c) observation.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.caching import cached_sketches_for_target
from repro.core.actor_critic import PPOAgent
from repro.core.adaptive_stopping import FixedLengthStopper
from repro.core.config import HARLConfig
from repro.core.parameter_search import ParameterSearcher
from repro.core.tuner import TuningResult
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget, cpu_target
from repro.tensor.actions import ActionSpace
from repro.tensor.dag import ComputeDAG
from repro.tensor.features import FEATURE_SIZE

__all__ = ["FlextensorScheduler"]


class FlextensorScheduler:
    """Fixed-length RL parameter search without the hierarchical levels."""

    name = "flextensor"

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        config: Optional[HARLConfig] = None,
        seed: int = 0,
        cost_model: Optional[ScheduleCostModel] = None,
        measurer: Optional[Measurer] = None,
        record_store=None,
    ):
        self.target = target or cpu_target()
        self.config = config or HARLConfig()
        self.seed = int(seed)
        self.measurer = measurer or Measurer(self.target, seed=seed)
        self.cost_model = cost_model or ScheduleCostModel(seed=seed)
        self.record_store = record_store
        if record_store is not None and self.measurer.record_store is None:
            self.measurer.record_store = record_store
        self._resume_store = None
        self._resumed: set = set()
        self._searchers: Dict[str, ParameterSearcher] = {}
        self._search_steps: Dict[str, int] = {}
        #: Per-workload list of relative critical-step positions (Fig. 1c data).
        self.critical_positions: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------ #
    def _searcher(self, dag: ComputeDAG) -> ParameterSearcher:
        searcher = self._searchers.get(dag.name)
        if searcher is None:
            # Flextensor works from a single general template: the plain
            # multi-level tiling sketch.
            sketch = cached_sketches_for_target(dag, self.target)[0]
            agent = PPOAgent(
                feature_size=FEATURE_SIZE,
                head_sizes=ActionSpace(sketch).head_sizes,
                config=self.config,
                seed=self.seed + len(dag.name),
            )
            searcher = ParameterSearcher(
                sketch=sketch,
                agent=agent,
                cost_model=self.cost_model,
                measurer=self.measurer,
                config=self.config,
                stopper=FixedLengthStopper(episode_length=self.config.episode_length),
                rng=np.random.default_rng(self.seed + 13),
            )
            self._searchers[dag.name] = searcher
        return searcher

    def resume_from(self, store) -> "FlextensorScheduler":
        """Resume from a persisted record store (lazy per-workload replay).

        Warm-starts the cost model with the recorded measurements and
        preloads the measurer's best-known statistics; returns ``self``.
        """
        self._resume_store = store
        self._resumed.clear()
        return self

    def tune(self, dag: ComputeDAG, n_trials: int) -> TuningResult:
        """Tune a single operator with fixed-length RL episodes."""
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self._resume_store is not None and dag.name not in self._resumed:
            self._resumed.add(dag.name)
            self._resume_store.replay(
                dag, cost_model=self.cost_model, measurer=self.measurer
            )
        searcher = self._searcher(dag)
        start_trials = self.measurer.trials(dag.name)
        positions = self.critical_positions.setdefault(dag.name, [])

        while self.measurer.trials(dag.name) - start_trials < n_trials:
            remaining = n_trials - (self.measurer.trials(dag.name) - start_trials)
            episode = searcher.run_episode(max_measures=remaining)
            self._search_steps[dag.name] = (
                self._search_steps.get(dag.name, 0) + episode.num_visited
            )
            positions.extend(episode.critical_positions)

        best_latency = self.measurer.best_latency(dag.name)
        result = TuningResult(
            workload=dag.name,
            scheduler=self.name,
            best_latency=best_latency,
            best_throughput=dag.flops / best_latency if np.isfinite(best_latency) else 0.0,
            best_schedule=self.measurer.best_schedule(dag.name),
            trials_used=self.measurer.trials(dag.name),
            search_steps=self._search_steps.get(dag.name, 0),
            history=self.measurer.history(dag.name),
            extras={"critical_positions": list(positions)},
        )
        if self.record_store is not None:
            self.record_store.append_result(result)
        return result
