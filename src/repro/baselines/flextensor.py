"""Flextensor-like baseline: fixed-length RL parameter search.

Flextensor applies an RL agent to the low-level parameter search but (per
Table 1) has neither subgraph nor sketch selection of its own and uses
uniform fixed-length allocations for every schedule track.  This baseline
therefore reuses HARL's PPO parameter search with a
:class:`FixedLengthStopper`, pinned to the first (plain multi-level tiling)
sketch, and exposes the per-track critical-step positions needed for the
Fig. 1(c) observation.  Networks are tuned through the shared round loop of
:class:`~repro.core.allocation.RoundScheduler` (greedy ``"gradient"``
allocation).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.caching import cached_sketches_for_target
from repro.core.actor_critic import PPOAgent
from repro.core.adaptive_stopping import FixedLengthStopper
from repro.core.allocation import RoundScheduler, WorkloadState
from repro.core.config import HARLConfig
from repro.core.parameter_search import ParameterSearcher
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget
from repro.tensor.actions import ActionSpace
from repro.tensor.dag import ComputeDAG
from repro.tensor.features import FEATURE_SIZE

__all__ = ["FlextensorScheduler"]


class _EpisodeState(WorkloadState):
    """One workload's fixed-length searcher and its critical-step positions."""

    def __init__(self, dag: ComputeDAG, scheduler: "FlextensorScheduler"):
        super().__init__(dag)
        # Flextensor works from a single general template: the plain
        # multi-level tiling sketch.
        sketch = cached_sketches_for_target(dag, scheduler.target)[0]
        config = scheduler.config
        agent = PPOAgent(
            feature_size=FEATURE_SIZE,
            head_sizes=ActionSpace(sketch).head_sizes,
            config=config,
            seed=scheduler.seed + len(dag.name),
        )
        self.searcher = ParameterSearcher(
            sketch=sketch,
            agent=agent,
            cost_model=scheduler.cost_model,
            measurer=scheduler.measurer,
            config=config,
            stopper=FixedLengthStopper(episode_length=config.episode_length),
            rng=np.random.default_rng(scheduler.seed + 13),
        )
        #: Relative critical-step position of every track (Fig. 1c data).
        self.critical_positions: List[float] = []


class FlextensorScheduler(RoundScheduler):
    """Fixed-length RL parameter search without the hierarchical levels.

    One round is one fixed-length episode on the workload's tiling sketch.
    """

    name = "flextensor"

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        config: Optional[HARLConfig] = None,
        seed: int = 0,
        cost_model: Optional[ScheduleCostModel] = None,
        measurer: Optional[Measurer] = None,
        warm_start_provider=None,
    ):
        super().__init__(
            target=target, config=config or HARLConfig(), seed=seed,
            cost_model=cost_model, measurer=measurer,
            warm_start_provider=warm_start_provider,
        )

    def _new_state(self, dag: ComputeDAG) -> _EpisodeState:
        return _EpisodeState(dag, self)

    def _search_round(self, state: _EpisodeState, max_measures: Optional[int]) -> int:
        episode = state.searcher.run_episode(max_measures=max_measures)
        state.critical_positions.extend(episode.critical_positions)
        return episode.num_visited

    def _extras(self, state: _EpisodeState) -> dict:
        return {"critical_positions": list(state.critical_positions)}
