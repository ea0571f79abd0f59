"""Simulated measurement substrate.

The paper measures candidate schedules on an Intel Xeon 6226R and an Nvidia
RTX 3090.  This package replaces those measurements with an analytic latency
model: the simulator scores a schedule from its tiling locality, vectorisation,
parallel load balance, loop overhead / unrolling and producer-consumer reuse,
and the measurer adds realistic measurement noise and repeat semantics.

Batches of candidates can be measured serially (:class:`Measurer`) or fanned
out over a thread/process pool (:class:`ParallelMeasurer`); per-(schedule,
trial) noise seeding makes both produce identical results for the same seed.
"""

from repro.hardware.target import HardwareTarget, cpu_target, gpu_target
from repro.hardware.catalog import (
    TargetCatalog,
    default_catalog,
    target_distance,
    target_embedding,
)
from repro.hardware.simulator import LatencySimulator
from repro.hardware.measurer import MeasureResult, Measurer
from repro.hardware.parallel import ParallelMeasurer

__all__ = [
    "HardwareTarget",
    "LatencySimulator",
    "MeasureResult",
    "Measurer",
    "ParallelMeasurer",
    "TargetCatalog",
    "cpu_target",
    "default_catalog",
    "gpu_target",
    "target_distance",
    "target_embedding",
]
