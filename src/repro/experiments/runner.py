"""Head-to-head experiment runners.

These functions build fresh scheduler instances (each with its own measurer
and cost model so no information leaks between competitors), run them on the
same workload with the same trial budget and seed, and package the outcomes
for the metric / reporting helpers.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.baselines.ansor import AnsorConfig, AnsorScheduler
from repro.baselines.autotvm import SimulatedAnnealingScheduler
from repro.baselines.flextensor import FlextensorScheduler
from repro.core.allocation import tune_network
from repro.core.config import HARLConfig
from repro.core.scheduler import HARLScheduler
from repro.core.tuner import NetworkTuningResult, TuningResult
from repro.experiments.metrics import normalized_performance, normalized_search_time
from repro.hardware.measurer import Measurer
from repro.hardware.parallel import ParallelMeasurer
from repro.hardware.target import HardwareTarget, cpu_target
from repro.networks.graph import NetworkGraph
from repro.records import RecordStore
from repro.tensor.dag import ComputeDAG

__all__ = [
    "OperatorComparison",
    "NetworkComparison",
    "compare_on_operator",
    "compare_on_network",
    "default_trials",
    "make_measurer",
    "make_scheduler",
    "resolve_registry",
]


#: Session-scoped registries opened by path, so repeated comparison calls
#: (one benchmark session runs dozens) reuse one instance — one shard load,
#: one set of append handles — instead of re-reading the directory per call.
_REGISTRY_INSTANCES: Dict[str, object] = {}


def resolve_registry(registry=None):
    """Resolve the schedule registry a benchmark run should populate.

    An explicit :class:`~repro.serving.registry.ScheduleRegistry` (or path)
    wins; otherwise the ``REPRO_REGISTRY`` environment variable names the
    registry directory, and when neither is set no registry is populated.
    Path-named registries are opened once per process and cached.  Every
    comparison run records its per-scheduler best results as a side effect,
    so benchmark sessions grow the shared schedule database.
    """
    from repro.serving.registry import ScheduleRegistry

    if registry is None:
        env = os.environ.get("REPRO_REGISTRY", "")
        if not env:
            return None
        registry = env
    if isinstance(registry, (str, Path)):
        key = str(Path(registry).resolve())
        if key not in _REGISTRY_INSTANCES:
            _REGISTRY_INSTANCES[key] = ScheduleRegistry(registry)
        return _REGISTRY_INSTANCES[key]
    return registry


def default_trials(paper_trials: int, fallback: int) -> int:
    """Trial budget for a bench: ``REPRO_FULL=1`` selects the paper budget,
    ``REPRO_TRIALS=<n>`` overrides it, otherwise the scaled-down default."""
    if os.environ.get("REPRO_FULL", "") == "1":
        return paper_trials
    override = os.environ.get("REPRO_TRIALS", "")
    if override:
        return max(1, int(override))
    return fallback


@dataclass
class OperatorComparison:
    """Results of running several schedulers on one operator."""

    dag_name: str
    results: Dict[str, TuningResult]

    @property
    def schedulers(self) -> List[str]:
        return list(self.results)

    def normalized_performance(self) -> Dict[str, float]:
        return normalized_performance(self.results)

    def normalized_search_time(self, baseline: str = "ansor") -> Dict[str, float]:
        return normalized_search_time(self.results, baseline=baseline)


@dataclass
class NetworkComparison:
    """Results of running several schedulers on one end-to-end network."""

    network_name: str
    results: Dict[str, NetworkTuningResult]

    def normalized_performance(self) -> Dict[str, float]:
        return normalized_performance(self.results)

    def normalized_search_time(self, baseline: str = "ansor") -> Dict[str, float]:
        return normalized_search_time(self.results, baseline=baseline)


def make_measurer(
    target: HardwareTarget,
    config: HARLConfig,
    seed: int,
    num_workers: int,
    record_store=None,
) -> Optional[Measurer]:
    """Build the measurement backend selected by pipeline options.

    This is the single policy shared by the CLI and the comparison runners:
    returns ``None`` when neither parallelism nor persistence was requested
    (so callers fall back to each scheduler's default measurer, preserving
    plain-run seed semantics), a :class:`ParallelMeasurer` when
    ``num_workers > 1``, and a serial :class:`Measurer` bound to the record
    store otherwise.  The measurer is the only holder of the record store:
    it appends every measurement and its scheduler appends each final result
    through it.
    """
    if num_workers <= 1 and record_store is None:
        return None
    kwargs = dict(
        min_repeat_seconds=config.min_repeat_seconds, seed=seed, record_store=record_store
    )
    if num_workers > 1:
        return ParallelMeasurer(target, num_workers=num_workers, **kwargs)
    return Measurer(target, **kwargs)


def make_scheduler(
    name: str,
    target: HardwareTarget,
    config: HARLConfig,
    seed: int,
    measurer: Optional[Measurer] = None,
    warm_start_provider=None,
):
    """Build a scheduler by name.

    The one name -> scheduler factory shared by the CLI, the comparison
    runners and :class:`~repro.serving.service.TuningService`.
    ``"harl-no-subgraph-mab"`` (the Table 4 / Fig. 10 ablation) is HARL under
    the greedy ``"gradient"`` network policy instead of its SW-UCB bandit.
    """
    if name in ("harl", "hierarchical-rl", "harl-no-subgraph-mab"):
        scheduler = HARLScheduler(
            target=target, config=config, seed=seed,
            adaptive_stopping=(name != "hierarchical-rl"),
            measurer=measurer, warm_start_provider=warm_start_provider,
        )
        if name == "harl-no-subgraph-mab":
            scheduler.task_policy = "gradient"
        return scheduler
    if name == "ansor":
        return AnsorScheduler(
            target=target, config=AnsorConfig.from_harl(config), seed=seed,
            measurer=measurer, warm_start_provider=warm_start_provider,
        )
    if name == "flextensor":
        return FlextensorScheduler(
            target=target, config=config, seed=seed,
            measurer=measurer, warm_start_provider=warm_start_provider,
        )
    if name == "autotvm":
        return SimulatedAnnealingScheduler(
            target=target, seed=seed, measurer=measurer,
            warm_start_provider=warm_start_provider,
        )
    raise KeyError(f"unknown scheduler {name!r}")


@contextmanager
def _competitor(
    name: str,
    target: HardwareTarget,
    config: HARLConfig,
    seed: int,
    num_workers: int,
    records_dir: Optional[Union[str, Path]],
) -> Iterator:
    """A fresh scheduler for one competitor of a head-to-head run.

    Each competitor gets its own measurer and record store file
    (``<records_dir>/<name>.jsonl``) so no information leaks between them;
    the store is closed when the competitor's run ends, however it ends.
    """
    store = None
    if records_dir is not None:
        store = RecordStore(Path(records_dir) / f"{name}.jsonl")
    try:
        measurer = make_measurer(target, config, seed, num_workers, store)
        yield make_scheduler(name, target, config, seed, measurer=measurer)
    finally:
        if store is not None:
            store.close()


def compare_on_operator(
    dag: ComputeDAG,
    n_trials: int,
    target: Optional[HardwareTarget] = None,
    config: Optional[HARLConfig] = None,
    seed: int = 0,
    schedulers: Sequence[str] = ("ansor", "harl"),
    num_workers: int = 1,
    records_dir: Optional[Union[str, Path]] = None,
    registry=None,
) -> OperatorComparison:
    """Tune one operator with every requested scheduler under the same budget.

    Parameters
    ----------
    num_workers:
        When > 1, each scheduler measures through a
        :class:`~repro.hardware.parallel.ParallelMeasurer` with this many
        workers; results are identical to serial runs for the same seed.
    records_dir:
        When set, each scheduler streams its measurements to
        ``<records_dir>/<scheduler>.jsonl``.
    registry:
        Optional :class:`~repro.serving.registry.ScheduleRegistry` (or its
        directory path) to populate with every competitor's best result; the
        ``REPRO_REGISTRY`` environment variable supplies a default, so
        benchmark runs grow the shared schedule database as a side effect.
    """
    target = target or cpu_target()
    config = config or HARLConfig.scaled()
    registry = resolve_registry(registry)
    results: Dict[str, TuningResult] = {}
    for name in schedulers:
        with _competitor(name, target, config, seed, num_workers, records_dir) as scheduler:
            results[name] = scheduler.tune(dag, n_trials)
        if registry is not None:
            registry.record_result(dag, target, results[name], source=f"runner:{name}")
    return OperatorComparison(dag_name=dag.name, results=results)


def compare_on_network(
    network: NetworkGraph,
    n_trials: int,
    target: Optional[HardwareTarget] = None,
    config: Optional[HARLConfig] = None,
    seed: int = 0,
    schedulers: Sequence[str] = ("ansor", "harl"),
    num_workers: int = 1,
    records_dir: Optional[Union[str, Path]] = None,
    registry=None,
) -> NetworkComparison:
    """Tune one network end-to-end with every requested scheduler.

    ``num_workers``, ``records_dir`` and ``registry`` behave as in
    :func:`compare_on_operator`; every subgraph's best result lands in the
    registry.
    """
    target = target or cpu_target()
    config = config or HARLConfig.scaled()
    registry = resolve_registry(registry)
    results: Dict[str, NetworkTuningResult] = {}
    for name in schedulers:
        with _competitor(name, target, config, seed, num_workers, records_dir) as scheduler:
            results[name] = tune_network(scheduler, network, n_trials)
        if registry is not None:
            for sg in network:
                task_result = results[name].task_results.get(sg.name)
                if task_result is not None:
                    registry.record_result(
                        sg.dag, target, task_result, source=f"runner:{name}"
                    )
    return NetworkComparison(network_name=network.name, results=results)
