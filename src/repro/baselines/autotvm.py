"""AutoTVM-like baseline: simulated-annealing parameter search.

AutoTVM explores a user-template search space with simulated annealing guided
by a learned cost model.  Here the "template" is the first generated sketch,
and the annealer proposes random modification actions, accepting worse states
with a temperature-controlled probability.  Included for completeness of the
related-work comparison (the paper's evaluation uses Ansor as its only
baseline because Ansor dominates AutoTVM).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.caching import cached_sketches_for_target
from repro.core.tuner import TuningResult
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget, cpu_target
from repro.tensor.actions import ActionSpace, apply_action
from repro.tensor.dag import ComputeDAG
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.schedule import Schedule

__all__ = ["SimulatedAnnealingScheduler"]


class SimulatedAnnealingScheduler:
    """Simulated annealing over schedule states, guided by the cost model."""

    name = "autotvm-sa"

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        seed: int = 0,
        num_chains: int = 64,
        steps_per_round: int = 64,
        measures_per_round: int = 64,
        initial_temperature: float = 1.0,
        cooling: float = 0.9,
        cost_model: Optional[ScheduleCostModel] = None,
        measurer: Optional[Measurer] = None,
        record_store=None,
    ):
        if num_chains < 1 or steps_per_round < 1:
            raise ValueError("num_chains and steps_per_round must be >= 1")
        self.target = target or cpu_target()
        self.seed = int(seed)
        self.num_chains = int(num_chains)
        self.steps_per_round = int(steps_per_round)
        self.measures_per_round = int(measures_per_round)
        self.initial_temperature = float(initial_temperature)
        self.cooling = float(cooling)
        self._rng = np.random.default_rng(seed)
        self.measurer = measurer or Measurer(self.target, seed=seed)
        self.cost_model = cost_model or ScheduleCostModel(seed=seed)
        self.record_store = record_store
        if record_store is not None and self.measurer.record_store is None:
            self.measurer.record_store = record_store
        self._resume_store = None
        self._resumed: set = set()
        self._search_steps: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def resume_from(self, store) -> "SimulatedAnnealingScheduler":
        """Resume from a persisted record store (lazy per-workload replay).

        Warm-starts the cost model with the recorded measurements and
        preloads the measurer's best-known statistics; returns ``self``.
        """
        self._resume_store = store
        self._resumed.clear()
        return self

    def tune(self, dag: ComputeDAG, n_trials: int) -> TuningResult:
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self._resume_store is not None and dag.name not in self._resumed:
            self._resumed.add(dag.name)
            self._resume_store.replay(
                dag, cost_model=self.cost_model, measurer=self.measurer
            )
        sketch = cached_sketches_for_target(dag, self.target)[0]
        action_space = ActionSpace(sketch)
        temperature = self.initial_temperature
        start_trials = self.measurer.trials(dag.name)

        while self.measurer.trials(dag.name) - start_trials < n_trials:
            remaining = n_trials - (self.measurer.trials(dag.name) - start_trials)
            history = self._anneal_round(dag, sketch, action_space, temperature)
            budget = min(self.measures_per_round, remaining)
            candidates = sorted(history.values(), key=lambda pair: pair[1], reverse=True)
            top = [schedule for schedule, _score in candidates[:budget]]
            results = self.measurer.measure(top)
            self.cost_model.update([r.schedule for r in results], [r.throughput for r in results])
            temperature *= self.cooling

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
            extras={"final_temperature": temperature},
        )
        if self.record_store is not None:
            self.record_store.append_result(result)
        return result

    def _anneal_round(
        self,
        dag: ComputeDAG,
        sketch,
        action_space: ActionSpace,
        temperature: float,
    ) -> Dict[Tuple, Tuple[Schedule, float]]:
        chains = sample_initial_schedules(
            sketch, self.num_chains, self._rng, self.target.unroll_depths
        )
        scores = np.asarray(self.cost_model.predict(chains), dtype=np.float64)
        history: Dict[Tuple, Tuple[Schedule, float]] = {
            s.signature(): (s, float(sc)) for s, sc in zip(chains, scores)
        }

        for _step in range(self.steps_per_round):
            proposals = [
                apply_action(chain, action_space.sample(self._rng)) for chain in chains
            ]
            new_scores = np.asarray(self.cost_model.predict(proposals), dtype=np.float64)
            delta = new_scores - scores
            accept = (delta >= 0) | (
                self._rng.random(len(chains)) < np.exp(delta / max(temperature, 1e-6))
            )
            for i, accepted in enumerate(accept):
                if accepted:
                    chains[i] = proposals[i]
                    scores[i] = new_scores[i]
                key = proposals[i].signature()
                prev = history.get(key)
                if prev is None or new_scores[i] > prev[1]:
                    history[key] = (proposals[i], float(new_scores[i]))
            self._search_steps[dag.name] = self._search_steps.get(dag.name, 0) + len(chains)

        return history
