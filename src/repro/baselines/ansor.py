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
from typing import Optional

from repro.caching import cached_sketches_for_target
from repro.baselines.evolutionary import EvolutionarySearch
from repro.core.allocation import RoundScheduler, WorkloadState
from repro.core.config import HARLConfig
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget

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

    Everything but the search round comes from
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
        warm_start_provider=None,
    ):
        super().__init__(
            target=target, config=config or AnsorConfig(), seed=seed,
            cost_model=cost_model, measurer=measurer,
            warm_start_provider=warm_start_provider,
        )

    def _search_round(self, state: WorkloadState, max_measures: Optional[int]) -> int:
        """Uniform sketch choice, evolutionary search, measure the top-K."""
        cfg = self.config
        sketches = cached_sketches_for_target(state.dag, self.target)
        sketch = sketches[int(self._rng.integers(0, len(sketches)))]
        search = EvolutionarySearch(
            cost_model=self.cost_model,
            population_size=cfg.population_size,
            generations=cfg.generations,
            mutation_prob=cfg.mutation_prob,
            crossover_prob=cfg.crossover_prob,
            rng=self._rng,
        )
        candidates = search.search(
            sketch, self.target.unroll_depths, warm_start=state.best_schedules
        )
        budget = cfg.measures_per_round
        if max_measures is not None:
            budget = min(budget, max_measures)
        self._measure(state, [schedule for schedule, _score in candidates[:budget]])
        return search.visited

    def _extras(self, state: WorkloadState) -> dict:
        return {"rounds": state.rounds}
