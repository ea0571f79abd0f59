"""HARL core: the paper's primary contribution.

The hierarchical adaptive auto-scheduler consists of

* non-stationary multi-armed bandits (Sliding-Window UCB) for the subgraph and
  sketch selection levels of the search hierarchy,
* an actor-critic (PPO) agent for the low-level parameter modification level,
* an adaptive-stopping module that prunes schedule tracks with poor advantage
  values, and
* the parameter-search episode loop (Algorithm 1) with cost-model-based
  top-K selection, tied together by :class:`~repro.core.scheduler.HARLScheduler`,
* the network-level round allocation loop, its two task policies (greedy
  Eq. 3 gradient, SW-UCB bandit) and :class:`RoundScheduler`, the skeleton
  every scheduler subclasses, in :mod:`repro.core.allocation`.
"""

from repro.core.config import HARLConfig
from repro.core.bandit import SlidingWindowUCB
from repro.core.adaptive_stopping import AdaptiveStopper, FixedLengthStopper
from repro.core.actor_critic import PPOAgent
from repro.core.allocation import (
    BanditTaskScheduler,
    GradientTaskScheduler,
    RoundScheduler,
    tune_network,
)
from repro.core.parameter_search import EpisodeResult, ParameterSearcher
from repro.core.scheduler import HARLScheduler
from repro.core.tuner import TuningResult

__all__ = [
    "AdaptiveStopper",
    "BanditTaskScheduler",
    "EpisodeResult",
    "FixedLengthStopper",
    "GradientTaskScheduler",
    "HARLConfig",
    "HARLScheduler",
    "PPOAgent",
    "ParameterSearcher",
    "RoundScheduler",
    "SlidingWindowUCB",
    "TuningResult",
    "tune_network",
]
