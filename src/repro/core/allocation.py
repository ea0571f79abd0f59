"""Network-level round allocation: the one loop that spends a network budget.

A network is ``N`` weighted subgraphs (tasks) and the end-to-end latency
``f(S) = sum_n w_n * g_n`` is minimised by giving one tuning round at a time
to the task an allocation *policy* picks.  The paper's subgraph level is this
single decision with two policies (Table 1, Eq. 3 / 4):

* :class:`GradientTaskScheduler` — Ansor's greedy argmax of the Eq. 3
  gradient estimate,
* :class:`BanditTaskScheduler` — HARL's non-stationary SW-UCB bandit over the
  same reward.

:func:`allocate_rounds` is the loop.  It has two callers:
:func:`tune_network` steps a :class:`RoundScheduler` (HARL, Ansor,
AutoTVM-SA, Flextensor) through its own ``tune_round``, and
:class:`~repro.experiments.network_runner.NetworkTuner` steps the jobs of a
shared tuning service through ``TuningService.advance``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.bandit import SlidingWindowUCB
from repro.core.config import HARLConfig
from repro.core.subgraph_reward import SubgraphState, normalized_rewards
from repro.core.tuner import NetworkTuningResult, TuningResult
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import MeasureResult, Measurer
from repro.hardware.target import HardwareTarget, cpu_target
from repro.networks.graph import NetworkGraph
from repro.tensor.dag import ComputeDAG
from repro.tensor.schedule import Schedule

__all__ = [
    "BanditTaskScheduler",
    "GradientTaskScheduler",
    "RoundScheduler",
    "WorkloadState",
    "allocate_rounds",
    "make_task_policy",
    "policy_name",
    "tune_network",
]


class GradientTaskScheduler:
    """Deterministic greedy task selector driven by the Eq. 3 gradient reward."""

    name = "gradient"

    def __init__(
        self,
        network: NetworkGraph,
        alpha: float = 0.2,
        beta: float = 2.0,
        backward_window: int = 3,
    ):
        self.network = network
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.backward_window = int(backward_window)
        self.states: Dict[str, SubgraphState] = {
            sg.name: SubgraphState(
                name=sg.name,
                weight=sg.weight,
                flops=sg.dag.flops,
                similarity_group=sg.reward_group,
            )
            for sg in network
        }
        self.task_names: List[str] = [sg.name for sg in network]
        self.allocations: Dict[str, int] = {name: 0 for name in self.task_names}

    # ------------------------------------------------------------------ #
    def rewards(self) -> np.ndarray:
        """Current normalised gradient reward of every task."""
        return normalized_rewards(
            [self.states[name] for name in self.task_names],
            alpha=self.alpha,
            beta=self.beta,
            backward_window=self.backward_window,
        )

    def _candidates(self, among: Optional[Sequence[str]]) -> List[str]:
        """Resolve (and validate) the candidate task names of one selection."""
        if among is None:
            return list(self.task_names)
        allowed = set(among)
        candidates = [name for name in self.task_names if name in allowed]
        if not candidates:
            raise ValueError("next_task needs at least one candidate task")
        return candidates

    def _untuned(self, candidates: Sequence[str]) -> Optional[str]:
        """First never-tuned candidate: the shared warm-up discipline.

        Every candidate gets one round before any reward-driven selection,
        so every gradient estimate is grounded in a measurement.
        """
        for name in candidates:
            if self.states[name].rounds == 0:
                return name
        return None

    def next_task(self, among: Optional[Sequence[str]] = None) -> str:
        """Greedy selection: the task with the largest expected benefit.

        Never-tuned tasks are warmed up first (one round each).  ``among``
        restricts the choice to a subset of task names (the network loop
        skips tasks whose budget is already settled).
        """
        candidates = self._candidates(among)
        untuned = self._untuned(candidates)
        if untuned is not None:
            return untuned
        rewards = self.rewards()
        by_name = dict(zip(self.task_names, rewards))
        return max(candidates, key=lambda name: by_name[name])

    def record(self, task_name: str, best_latency: float, trials: int = 0) -> None:
        """Record the outcome of a tuning round on ``task_name``.

        ``best_latency`` is the subgraph's best latency after the round:
        ``+inf`` marks a round whose measurements all failed, but zero,
        negative and NaN latencies are programming errors and raise, as do
        negative ``trials`` (mirroring ``HardwareTarget.__post_init__``).
        """
        if task_name not in self.states:
            raise KeyError(task_name)
        latency = float(best_latency)
        if math.isnan(latency):
            raise ValueError(f"latency for task {task_name!r} must not be NaN")
        if latency <= 0:
            raise ValueError(
                f"latency for task {task_name!r} must be positive, got {latency}"
            )
        trials = int(trials)
        if trials < 0:
            raise ValueError(
                f"trials for task {task_name!r} must be non-negative, got {trials}"
            )
        self.states[task_name].record(latency)
        self.allocations[task_name] += trials

    def estimated_latency(self) -> float:
        """Current end-to-end latency estimate ``sum_n w_n * g_n``."""
        return self.network.estimated_latency(
            {name: state.best_latency for name, state in self.states.items()}
        )

    def best_latencies(self) -> Dict[str, float]:
        return {name: state.best_latency for name, state in self.states.items()}


class BanditTaskScheduler(GradientTaskScheduler):
    """HARL's subgraph-selection policy: SW-UCB over the Eq. 3 reward.

    Shares state/validation with the greedy baseline but replaces the
    deterministic argmax with a non-stationary sliding-window UCB bandit, so
    task selection keeps exploring as the per-task reward distributions drift
    during the run (Observation 1 / Eq. 4 of the paper).
    """

    name = "bandit"

    def __init__(
        self,
        network: NetworkGraph,
        alpha: float = 0.2,
        beta: float = 2.0,
        backward_window: int = 3,
        exploration: float = 0.25,
        window: int = 256,
        seed: int = 0,
    ):
        super().__init__(network, alpha=alpha, beta=beta, backward_window=backward_window)
        self.mab = SlidingWindowUCB(
            len(self.task_names),
            exploration=exploration,
            window=window,
            rng=np.random.default_rng(seed),
        )
        self._index = {name: i for i, name in enumerate(self.task_names)}

    def next_task(self, among: Optional[Sequence[str]] = None) -> str:
        candidates = self._candidates(among)
        # Warm-up discipline is shared with the greedy scheduler: every
        # candidate is grounded in one round before the bandit takes over.
        untuned = self._untuned(candidates)
        if untuned is not None:
            return untuned
        arm = self.mab.select(among=[self._index[name] for name in candidates])
        return self.task_names[arm]

    def record(self, task_name: str, best_latency: float, trials: int = 0) -> None:
        super().record(task_name, best_latency, trials=trials)
        rewards = self.rewards()
        arm = self._index[task_name]
        self.mab.update(arm, float(rewards[arm]))


def make_task_policy(
    policy: str,
    network: NetworkGraph,
    config: Optional[HARLConfig] = None,
    seed: int = 0,
):
    """Build a task-allocation policy by name (``"gradient"`` or ``"bandit"``).

    The Eq. 3 and SW-UCB knobs come from ``config`` (the paper's Table 5
    defaults when ``None``).
    """
    config = config if config is not None else HARLConfig()
    if policy == "gradient":
        return GradientTaskScheduler(
            network,
            alpha=config.alpha,
            beta=config.beta,
            backward_window=config.backward_window,
        )
    if policy == "bandit":
        return BanditTaskScheduler(
            network,
            alpha=config.alpha,
            beta=config.beta,
            backward_window=config.backward_window,
            exploration=config.ucb_constant,
            window=config.ucb_window,
            seed=seed,
        )
    raise KeyError(f"unknown task policy {policy!r}; known: bandit, gradient")


def policy_name(policy) -> str:
    """Display name of a policy object (its ``name``, else its class name)."""
    return getattr(policy, "name", type(policy).__name__)


def allocate_rounds(
    policy,
    network: NetworkGraph,
    live: Sequence[str],
    n_trials: int,
    run_round: Callable[[str, int], int],
    latency: Callable[[str], float],
    done: Callable[[str], bool] = lambda task: False,
) -> Tuple[List[Tuple[int, float]], List[str]]:
    """Spend ``n_trials`` measurement trials on the ``live`` tasks of ``network``.

    Every round ``policy.next_task(among=live)`` picks a task,
    ``run_round(task, cap)`` runs one round of at most ``cap`` trials on it
    and returns the trials spent, ``policy.record`` sees the task's new best
    ``latency(task)``, and one ``(trials spent so far, f(S))`` point is
    appended to the trajectory.

    A task's first round is capped at a fair share ``n_trials // len(live)``
    of the budget: a config whose regular round measures more than that would
    otherwise exhaust the budget before the warm-up pass reaches every task,
    leaving f(S) infinite.  A task leaves the live set once ``done(task)`` or
    once one of its rounds spends nothing (its search is exhausted).

    Returns the trajectory and the tasks still live when the budget ran out.
    """
    live = list(live)
    names = [sg.name for sg in network]
    fair_share = max(1, n_trials // max(len(live), 1))
    visited: Set[str] = set()
    trajectory: List[Tuple[int, float]] = []
    spent_total = 0
    while live and spent_total < n_trials:
        task = policy.next_task(among=live)
        cap = n_trials - spent_total
        if task not in visited:
            visited.add(task)
            cap = min(cap, fair_share)
        spent = run_round(task, cap)
        spent_total += spent
        policy.record(task, latency(task), trials=spent)
        trajectory.append(
            (spent_total, network.estimated_latency({n: latency(n) for n in names}))
        )
        live = [n for n in live if not (done(n) or (n == task and spent == 0))]
    return trajectory, live


#: Best schedules remembered per workload as search warm starts (newest last).
_MEMORY = 8


class WorkloadState:
    """Per-workload state of a :class:`RoundScheduler`.

    Subclasses extend it with their own search state (agents, sketches,
    temperature); the base fields are owned by :class:`RoundScheduler`.
    """

    def __init__(self, dag: ComputeDAG):
        self.dag = dag
        #: Best schedule of each recent batch, newest last (search warm starts).
        self.best_schedules: List[Schedule] = []
        #: Transferred schedules still to be measured directly.
        self.pending_warm_start: List[Schedule] = []
        #: Trials spent measuring transferred schedules (provenance: these
        #: trials bought donor knowledge, not fresh search).
        self.warm_start_trials = 0
        self.search_steps = 0
        self.rounds = 0

    def remember(self, results: Sequence[MeasureResult]) -> None:
        """Keep the best schedule of one measured batch as a warm start."""
        if results:
            self.best_schedules.append(min(results, key=lambda r: r.latency).schedule)
            del self.best_schedules[:-_MEMORY]


class RoundScheduler:
    """The one scheduler skeleton: HARL, Ansor, AutoTVM-SA and Flextensor.

    A subclass supplies only its search round, :meth:`_search_round`, and
    the ``extras`` of its results (:meth:`_extras`), and may extend the
    per-workload :class:`WorkloadState` (:meth:`_new_state`).  This class
    owns everything around the round:

    * the pipeline: target and seed defaults, measurer, cost model,
      ``warm_start_provider`` (a callable ``provider(dag) ->
      Sequence[Schedule]``, e.g.
      :meth:`~repro.serving.registry.ScheduleRegistry.warm_start_schedules`),
    * :meth:`resume_from`, replayed lazily per workload,
    * warm starts: transferred schedules are measured directly, as one batch,
      before the first search round,
    * :meth:`tune_round`, :meth:`finalize` (persisting each result to the
      measurer's record log, which the measurer alone holds), and the budget
      loops :meth:`tune` / :meth:`tune_network`.

    ``task_policy`` names the network allocation policy used when
    :meth:`tune_network` is given none.
    """

    task_policy = "gradient"

    def __init__(
        self,
        target: Optional[HardwareTarget] = None,
        config=None,
        seed: int = 0,
        cost_model: Optional[ScheduleCostModel] = None,
        measurer: Optional[Measurer] = None,
        warm_start_provider=None,
    ):
        self.target = target or cpu_target()
        self.config = config
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        # A HARLConfig carries r_min; other configs leave the measurer default.
        self.measurer = measurer or Measurer(
            self.target,
            min_repeat_seconds=getattr(config, "min_repeat_seconds", 1.0),
            seed=seed,
        )
        self.cost_model = cost_model or ScheduleCostModel(seed=seed)
        self.warm_start_provider = warm_start_provider
        self._resume_store = None
        self._workloads: Dict[str, WorkloadState] = {}

    # ------------------------------------------------------------------ #
    # what a subclass supplies
    # ------------------------------------------------------------------ #
    def _new_state(self, dag: ComputeDAG) -> WorkloadState:
        return WorkloadState(dag)

    def _search_round(self, state: WorkloadState, max_measures: Optional[int]) -> int:
        """Run one search round measuring at most ``max_measures`` schedules.

        Returns the number of schedules the search visited.
        """
        raise NotImplementedError

    def _extras(self, state: WorkloadState) -> dict:
        return {}

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def resume_from(self, store) -> "RoundScheduler":
        """Resume tuning from a previously persisted record store.

        The store's measurements are replayed lazily, per workload, the first
        time each workload is touched: the cost model is warm-started with
        the recorded (schedule, throughput) pairs, the measurer's best-known
        statistics are preloaded, and the best recorded schedules seed the
        search warm starts.  Per-workload state built before the call is
        dropped, since it would miss the replay.  Returns ``self``.
        """
        self._resume_store = store
        self._workloads.clear()
        return self

    def _workload(self, dag: ComputeDAG) -> WorkloadState:
        """The state of ``dag``, prepared on first touch (including by
        :meth:`finalize`): resume replay, then the warm-start fetch."""
        state = self._workloads.get(dag.name)
        if state is None:
            state = self._new_state(dag)
            self._workloads[dag.name] = state
            if self._resume_store is not None:
                restored = self._resume_store.replay(
                    dag, cost_model=self.cost_model, measurer=self.measurer
                )
                state.best_schedules = list(reversed(restored[:_MEMORY]))
            if self.warm_start_provider is not None:
                state.pending_warm_start = list(self.warm_start_provider(dag) or [])
        return state

    # ------------------------------------------------------------------ #
    # rounds and results
    # ------------------------------------------------------------------ #
    def _measure(self, state: WorkloadState, schedules: Sequence[Schedule]) -> List[MeasureResult]:
        """Measure one batch, train the cost model, remember the batch's best."""
        results = self.measurer.measure(schedules)
        self.cost_model.update([r.schedule for r in results], [r.throughput for r in results])
        state.remember(results)
        return results

    def tune_round(self, dag: ComputeDAG, max_measures: Optional[int] = None) -> int:
        """Run one incremental tuning round; returns trials consumed.

        This is the unit of work the multi-tenant
        :class:`~repro.serving.service.TuningService` interleaves across
        jobs: pending transferred schedules are measured first, as one
        direct batch; after that each round is the subclass's search round.
        At most ``max_measures`` schedules are measured.  Call
        :meth:`finalize` once the caller's budget is exhausted.
        """
        if max_measures is not None and max_measures <= 0:
            return 0
        state = self._workload(dag)
        before = self.measurer.trials(dag.name)
        if state.pending_warm_start:
            pending = state.pending_warm_start
            budget = len(pending) if max_measures is None else min(len(pending), max_measures)
            state.pending_warm_start = pending[budget:]
            state.warm_start_trials += len(self._measure(state, pending[:budget]))
        else:
            state.search_steps += self._search_round(state, max_measures)
            state.rounds += 1
        return self.measurer.trials(dag.name) - before

    def finalize(self, dag: ComputeDAG) -> TuningResult:
        """Build (and persist) the current tuning result of one workload."""
        state = self._workload(dag)
        best_latency = self.measurer.best_latency(dag.name)
        result = TuningResult(
            workload=dag.name,
            scheduler=self.name,
            best_latency=best_latency,
            best_throughput=dag.flops / best_latency if np.isfinite(best_latency) else 0.0,
            best_schedule=self.measurer.best_schedule(dag.name),
            trials_used=self.measurer.trials(dag.name),
            search_steps=state.search_steps,
            history=self.measurer.history(dag.name),
            extras=self._extras(state),
        )
        if self.measurer.record_store is not None:
            self.measurer.record_store.append_result(result)
        return result

    def tune(self, dag: ComputeDAG, n_trials: int) -> TuningResult:
        """Tune one operator / subgraph within a budget of measurement trials."""
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        spent = 0
        while spent < n_trials:
            step = self.tune_round(dag, max_measures=n_trials - spent)
            if step == 0:
                break
            spent += step
        return self.finalize(dag)

    def tune_network(
        self, network: NetworkGraph, n_trials: int, policy=None
    ) -> NetworkTuningResult:
        """Tune every subgraph of ``network`` within a total trial budget."""
        return tune_network(self, network, n_trials, policy=policy)


def tune_network(
    scheduler, network: NetworkGraph, n_trials: int, policy=None
) -> NetworkTuningResult:
    """Drive ``scheduler``'s rounds across a network's tasks.

    ``policy`` is a policy name (see :func:`make_task_policy`), a ready-made
    policy object, or ``None`` for the scheduler's own ``task_policy``.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if policy is None:
        policy = scheduler.task_policy
    if isinstance(policy, str):
        config = scheduler.config if isinstance(scheduler.config, HARLConfig) else None
        policy = make_task_policy(policy, network, config, seed=scheduler.seed)
    dags = {sg.name: sg.dag for sg in network}

    def latency(task: str) -> float:
        return scheduler.measurer.best_latency(dags[task].name)

    trajectory, _live = allocate_rounds(
        policy,
        network,
        list(dags),
        n_trials,
        run_round=lambda task, cap: scheduler.tune_round(dags[task], max_measures=cap),
        latency=latency,
    )
    task_results = {name: scheduler.finalize(dag) for name, dag in dags.items()}
    return NetworkTuningResult(
        network=network.name,
        scheduler=scheduler.name,
        task_results=task_results,
        task_weights=network.weights(),
        latency_history=trajectory,
        allocations=dict(policy.allocations),
        extras={"policy": policy_name(policy), "task_names": list(dags)},
    )
