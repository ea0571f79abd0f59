"""Measurement harness on top of the latency simulator.

The :class:`Measurer` mirrors the role of TVM's RPC measurer in the paper:
given candidate schedules it returns measured latencies (simulated latency
plus log-normal measurement noise, averaged over repeats so that at least
``min_repeat_seconds`` of wall time is covered — the ``r_min`` parameter of
Table 5), and it keeps global statistics: the number of measurement trials
consumed and the best schedule found so far per workload.

The pipeline is built for batched, possibly parallel evaluation:

* **Noise is pre-drawn in submission order.**  Before a batch is evaluated,
  one standard-normal noise draw per schedule is taken from the measurer's
  sequential RNG.  Each task is then a *pure function* of (schedule, target,
  noise parameters, draw), so a worker pool can evaluate the batch in any
  order — see :class:`~repro.hardware.parallel.ParallelMeasurer` — and still
  produce results identical to a serial run.
* **Statistics are committed atomically per batch**, in submission order, on
  the controlling thread.  Trial counters, best-per-workload tracking and
  progress histories are therefore identical between serial and parallel
  execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.simulator import LatencySimulator
from repro.hardware.target import HardwareTarget
from repro.tensor.schedule import Schedule

__all__ = [
    "MeasureResult",
    "Measurer",
    "simulate_measurement_batch",
]


@dataclass(frozen=True)
class MeasureResult:
    """Outcome of measuring one schedule.

    Attributes
    ----------
    schedule:
        The measured schedule candidate.
    latency:
        Measured execution latency in seconds (simulated latency times a
        log-normal noise factor).
    throughput:
        Achieved FLOP/s, i.e. ``schedule.dag.flops / latency``.
    repeats:
        Number of timing repetitions that were averaged (the ``r_min``
        repeat semantics of the paper).
    trial_index:
        Global 1-based index of this measurement across the measurer's
        lifetime; used as the x-axis of tuning-progress curves.
    """

    schedule: Schedule
    latency: float
    throughput: float
    repeats: int
    trial_index: int

    @property
    def is_valid(self) -> bool:
        """Whether the measurement produced a usable (finite, positive) latency."""
        return np.isfinite(self.latency) and self.latency > 0


@dataclass
class _WorkloadStats:
    best_latency: float = float("inf")
    best_schedule: Optional[Schedule] = None
    trials: int = 0
    history: List[Tuple[int, float]] = field(default_factory=list)


def simulate_measurement_batch(
    schedules: Sequence[Schedule],
    simulator: LatencySimulator,
    noise: float,
    min_repeat_seconds: float,
    max_repeats: int,
    noise_draws: Sequence[float],
) -> List[Tuple[float, int]]:
    """Simulate hardware measurements of a whole batch in one vectorised pass.

    A pure function: it touches no shared state and consumes its randomness
    as explicit standard-normal ``noise_draws`` (one per schedule, taken by
    the measurer in submission order), which is what lets
    :class:`~repro.hardware.parallel.ParallelMeasurer` fan batches out over a
    worker pool without affecting determinism.  The simulator consumes the
    batch through
    :meth:`~repro.hardware.simulator.LatencySimulator.batch_latency` (one
    NumPy pass per sketch group) and the repeat/noise arithmetic is applied
    as array expressions.  Per-element results do not depend on how the
    batch is chunked, so worker pools may split it arbitrarily.

    Returns one ``(measured latency in seconds, repeat count)`` pair per
    schedule; more repeats (covering ``min_repeat_seconds``, at most
    ``max_repeats``) shrink the relative ``noise`` by ``sqrt(repeats)``.
    """
    if not schedules:
        return []
    true_latencies = simulator.batch_latency(schedules)
    repeats = np.clip(
        np.ceil(min_repeat_seconds / np.maximum(true_latencies, 1e-9)),
        1,
        max_repeats,
    ).astype(np.int64)
    # Averaging `repeats` noisy samples shrinks the noise by sqrt(repeats).
    effective_noise = noise / np.sqrt(repeats)
    factors = np.exp(np.asarray(noise_draws, dtype=np.float64) * effective_noise)
    measured = true_latencies * factors
    return [
        (float(latency), int(reps)) for latency, reps in zip(measured, repeats)
    ]


class Measurer:
    """Simulated measurement backend shared by all auto-schedulers.

    Parameters
    ----------
    target:
        Hardware target to simulate.
    noise:
        Relative standard deviation of a single timing sample.
    min_repeat_seconds:
        Minimum wall time covered by repeated timing of one schedule
        (``r_min`` in Table 5); more repeats shrink the effective noise.
    max_repeats:
        Upper bound on the number of timing repetitions per measurement.
    seed:
        Seed of the measurement-noise RNG (the simulator's deterministic
        ruggedness has its own seed).  One standard-normal value is consumed
        per measurement, in batch-submission order, so runs with the same
        seed see the same noise stream whether measurement is serial or
        parallel and however batches are split.
    record_store:
        Optional :class:`~repro.records.RecordStore`; when set, every
        measurement is appended to the store's JSONL log as it is committed,
        making tuning runs resumable.
    """

    def __init__(
        self,
        target: HardwareTarget,
        noise: float = 0.02,
        min_repeat_seconds: float = 1.0,
        max_repeats: int = 32,
        seed: int = 0,
        record_store=None,
    ):
        self.target = target
        self.simulator = LatencySimulator(target)
        self.noise = float(noise)
        self.min_repeat_seconds = float(min_repeat_seconds)
        self.max_repeats = int(max_repeats)
        self.seed = int(seed)
        self.record_store = record_store
        self._rng = np.random.default_rng(seed)
        self._stats: Dict[str, _WorkloadStats] = {}
        self.total_trials = 0

    # ------------------------------------------------------------------ #
    def measure(self, schedules: Sequence[Schedule]) -> List[MeasureResult]:
        """Measure a batch of schedules, updating global trial statistics.

        One noise draw per schedule is taken up front (in submission order),
        the batch is evaluated — serially here, possibly in parallel in
        subclasses — and the statistics update is committed atomically in one
        pass afterwards, so serial and parallel execution report identical
        results and trial accounting.
        """
        if not schedules:
            return []
        draws = [float(self._rng.standard_normal()) for _ in schedules]
        outcomes = self._run_batch(schedules, draws)
        return self._commit_batch(schedules, outcomes)

    def _run_batch(
        self, schedules: Sequence[Schedule], draws: Sequence[float]
    ) -> List[Tuple[float, int]]:
        """Evaluate a batch of (schedule, noise draw) measurement tasks.

        The whole batch goes to the simulator in one vectorised pass.
        Subclasses override this hook to fan the batch out over a worker
        pool; results must be returned in submission order.
        """
        return simulate_measurement_batch(
            schedules,
            self.simulator,
            self.noise,
            self.min_repeat_seconds,
            self.max_repeats,
            draws,
        )

    def _commit_batch(
        self, schedules: Sequence[Schedule], outcomes: Sequence[Tuple[float, int]]
    ) -> List[MeasureResult]:
        """Fold a batch of measurement outcomes into the global statistics.

        Runs in submission order under single-threaded control, so trial
        counters, best-per-workload tracking and the progress history are
        updated atomically per batch regardless of how the batch was
        evaluated.
        """
        results: List[MeasureResult] = []
        for schedule, (latency, repeats) in zip(schedules, outcomes):
            self.total_trials += 1
            stats = self._stats.setdefault(schedule.dag.name, _WorkloadStats())
            stats.trials += 1
            if latency < stats.best_latency:
                stats.best_latency = latency
                stats.best_schedule = schedule
            stats.history.append((self.total_trials, stats.best_latency))
            result = MeasureResult(
                schedule=schedule,
                latency=float(latency),
                throughput=float(schedule.dag.flops / latency),
                repeats=repeats,
                trial_index=self.total_trials,
            )
            results.append(result)
            if self.record_store is not None:
                self.record_store.record_measure(result, target=self.target.name)
        return results

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def best_latency(self, workload_name: str) -> float:
        """Best (lowest) measured latency for a workload, ``inf`` if none."""
        stats = self._stats.get(workload_name)
        return stats.best_latency if stats else float("inf")

    def best_schedule(self, workload_name: str) -> Optional[Schedule]:
        """The schedule that achieved :meth:`best_latency`, if any."""
        stats = self._stats.get(workload_name)
        return stats.best_schedule if stats else None

    def trials(self, workload_name: str) -> int:
        """Number of measurement trials spent on one workload."""
        stats = self._stats.get(workload_name)
        return stats.trials if stats else 0

    def history(self, workload_name: str) -> List[Tuple[int, float]]:
        """(global trial index, best latency so far) pairs for one workload."""
        stats = self._stats.get(workload_name)
        return list(stats.history) if stats else []

    def preload(
        self, workload_name: str, latency: float, schedule: Optional[Schedule] = None
    ) -> None:
        """Seed the best-known result for a workload without consuming trials.

        Used when resuming from a record store: the best latency and schedule
        of a previous run become the starting point of the new run's
        statistics, while trial counters and the progress history stay at
        zero so the new budget is accounted from scratch.
        """
        stats = self._stats.setdefault(workload_name, _WorkloadStats())
        if latency < stats.best_latency:
            stats.best_latency = float(latency)
            if schedule is not None:
                stats.best_schedule = schedule

    def reset(self) -> None:
        """Drop all statistics and restart trial counting from zero.

        The noise RNG is *not* rewound: it keeps its stream position, exactly
        like a fresh run on real hardware would see fresh noise.
        """
        self._stats.clear()
        self.total_trials = 0
