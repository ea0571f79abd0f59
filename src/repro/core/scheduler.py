"""The HARL auto-scheduler.

:class:`HARLScheduler` ties the three hierarchical decision levels together:

* **subgraph selection** — a non-stationary SW-UCB bandit fed by the Ansor
  gradient-estimation reward (the ``"bandit"`` policy of
  :mod:`repro.core.allocation`, used for end-to-end network tuning),
* **sketch selection** — a SW-UCB bandit per subgraph whose reward is the
  normalised best performance achieved by episodes run under each sketch,
* **parameter search** — a PPO agent per (subgraph, sketch) driving
  Algorithm 1 episodes with adaptive stopping.

The ``adaptive_stopping`` switch reproduces the "Hierarchical-RL" variant
of the evaluation section; "HARL w/o subgraph MAB"
is HARL under the greedy ``"gradient"`` network policy
(``tune_network(..., policy="gradient")``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.caching import cached_sketches_for_target
from repro.core.actor_critic import PPOAgent
from repro.core.adaptive_stopping import AdaptiveStopper, FixedLengthStopper
from repro.core.allocation import RoundScheduler, WorkloadState
from repro.core.bandit import SlidingWindowUCB
from repro.core.config import HARLConfig
from repro.core.parameter_search import ParameterSearcher
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.hardware.target import HardwareTarget
from repro.tensor.actions import ActionSpace
from repro.tensor.dag import ComputeDAG
from repro.tensor.features import FEATURE_SIZE
from repro.tensor.sketch import Sketch

__all__ = ["HARLScheduler"]


class _TaskContext(WorkloadState):
    """Per-subgraph tuning state: sketches, sketch bandit, searchers."""

    def __init__(self, dag: ComputeDAG, scheduler: "HARLScheduler"):
        super().__init__(dag)
        # Sketch families are memoised per (workload, target depths): repeat
        # jobs for one workload — service resubmissions, network sweeps —
        # share one generation instead of regenerating per task context.
        self.sketches: List[Sketch] = cached_sketches_for_target(dag, scheduler.target)
        cfg = scheduler.config
        self.sketch_mab = SlidingWindowUCB(
            len(self.sketches),
            exploration=cfg.ucb_constant,
            window=cfg.ucb_window,
            rng=scheduler._rng,
        )
        self.searchers: Dict[int, ParameterSearcher] = {}
        self.critical_positions: List[float] = []
        self.track_lengths: List[int] = []


class HARLScheduler(RoundScheduler):
    """Hierarchical Adaptive RL auto-scheduler (the paper's contribution).

    The pipeline arguments (``target``, ``seed``, ``cost_model``,
    ``measurer``, ``warm_start_provider``) are those of
    :class:`~repro.core.allocation.RoundScheduler`; the default measurer
    repeats for ``config.min_repeat_seconds``.

    Parameters
    ----------
    config:
        Hyper-parameters; defaults to the paper's Table 5 values.
    adaptive_stopping:
        Disable to obtain the fixed-length "Hierarchical-RL" ablation.
    """

    name = "harl"
    task_policy = "bandit"

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        config: Optional[HARLConfig] = None,
        seed: int = 0,
        adaptive_stopping: bool = True,
        cost_model: Optional[ScheduleCostModel] = None,
        measurer: Optional[Measurer] = None,
        warm_start_provider=None,
    ):
        super().__init__(
            target=target, config=config or HARLConfig(), seed=seed,
            cost_model=cost_model, measurer=measurer,
            warm_start_provider=warm_start_provider,
        )
        self.adaptive_stopping = bool(adaptive_stopping)
        if not adaptive_stopping:
            self.name = "hierarchical-rl"

    def _new_state(self, dag: ComputeDAG) -> _TaskContext:
        return _TaskContext(dag, self)

    def _make_stopper(self):
        if self.adaptive_stopping:
            return AdaptiveStopper(
                window_size=self.config.window_size,
                elimination_ratio=self.config.elimination_ratio,
                min_tracks=self.config.min_tracks,
            )
        return FixedLengthStopper(episode_length=self.config.episode_length)

    def _searcher(self, ctx: _TaskContext, sketch_index: int) -> ParameterSearcher:
        searcher = ctx.searchers.get(sketch_index)
        if searcher is None:
            sketch = ctx.sketches[sketch_index]
            agent = PPOAgent(
                feature_size=FEATURE_SIZE,
                head_sizes=ActionSpace(sketch).head_sizes,
                config=self.config,
                seed=self.seed + 97 * sketch_index + len(ctx.dag.name),
            )
            searcher = ParameterSearcher(
                sketch=sketch,
                agent=agent,
                cost_model=self.cost_model,
                measurer=self.measurer,
                config=self.config,
                stopper=self._make_stopper(),
                rng=np.random.default_rng(self.seed + 31 * sketch_index + 7),
            )
            ctx.searchers[sketch_index] = searcher
        return searcher

    def _search_round(self, ctx: _TaskContext, max_measures: Optional[int]) -> int:
        """Pick a sketch, run one parameter-search episode, reward the sketch."""
        sketch_index = ctx.sketch_mab.select()
        searcher = self._searcher(ctx, sketch_index)
        warm_start = ctx.best_schedules[-4:] if ctx.best_schedules else None
        episode = searcher.run_episode(warm_start=warm_start, max_measures=max_measures)
        ctx.critical_positions.extend(episode.critical_positions)
        ctx.track_lengths.extend(episode.track_lengths)

        best_overall = self.cost_model.best_throughput(ctx.dag.name)
        if episode.best_throughput > 0 and best_overall > 0:
            reward = float(np.clip(episode.best_throughput / best_overall, 0.0, 1.0))
        else:
            reward = 0.0
        ctx.sketch_mab.update(sketch_index, reward)
        ctx.remember(episode.measured)
        return episode.num_visited

    def _extras(self, ctx: _TaskContext) -> dict:
        return {
            "episodes": ctx.rounds,
            "warm_start_trials": ctx.warm_start_trials,
            "critical_positions": list(ctx.critical_positions),
            "track_lengths": list(ctx.track_lengths),
            "sketch_plays": ctx.sketch_mab.total_plays().tolist(),
            "sketch_keys": [s.key for s in ctx.sketches],
        }
