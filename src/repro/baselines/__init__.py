"""Baseline auto-schedulers.

* :class:`~repro.baselines.ansor.AnsorScheduler` — the paper's main baseline:
  uniform sketch selection, evolutionary low-level search, greedy
  gradient-based task allocation, fixed-length rounds.
* :class:`~repro.baselines.flextensor.FlextensorScheduler` — fixed-length RL
  search on one tiling sketch (no sketch level of its own), used for the
  motivation observation of Fig. 1(c).
* :class:`~repro.baselines.autotvm.SimulatedAnnealingScheduler` — an
  AutoTVM-style simulated-annealing parameter search.

All of them, like HARL, are :class:`~repro.core.allocation.RoundScheduler`
subclasses that supply only their search round.  Ansor's greedy
gradient-based subgraph allocator is the ``"gradient"`` policy of
:mod:`repro.core.allocation`, the network policy of every baseline.
"""

from repro.baselines.evolutionary import EvolutionarySearch
from repro.baselines.ansor import AnsorScheduler
from repro.baselines.flextensor import FlextensorScheduler
from repro.baselines.autotvm import SimulatedAnnealingScheduler

__all__ = [
    "AnsorScheduler",
    "EvolutionarySearch",
    "FlextensorScheduler",
    "SimulatedAnnealingScheduler",
]
