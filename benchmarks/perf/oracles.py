"""Scalar reference implementations ("oracles") of the tuning hot path.

``src/`` keeps exactly one, vectorised implementation of each hot-path layer.
The schedule-at-a-time versions they replaced live here, in one module that
both the equivalence tests (``tests/``) and the perf harness's speedup
baselines (``benchmarks/perf/``) import:

* :func:`schedule_features` — one schedule's feature vector
  (vs. :func:`repro.tensor.features.batch_features`);
* :func:`reference_breakdown` — one schedule's latency decomposition
  (vs. :meth:`repro.hardware.simulator.LatencySimulator.batch_breakdown`);
* :func:`best_split_reference` — per-feature split search
  (vs. ``RegressionTree._best_split``);
* :func:`forest_predict_reference` — the boosted forest scored one tree at
  a time (vs. the one-pass ``GradientBoostedTrees.predict``);
* :func:`run_batch_reference` — the per-schedule measure loop
  (vs. ``Measurer._run_batch``);
* :func:`nearest_reference` / :func:`donor_scores_reference` — the registry's
  per-entry nearest-neighbour and cross-target ranking loops (vs. the
  per-target embedding-matrix passes).

:func:`reference_hot_path` patches the oracles into the pipeline, so whole
tuning runs and registry lookups can be timed on the pre-optimisation path
and their results compared with the fast path.  It patches classes and
modules, so it affects every thread of the process: use it in benchmarks
and tests only, never around concurrent tuning work.

Import it as ``benchmarks.perf.oracles`` with the repository root on
``sys.path`` (``pytest.ini`` and the perf scripts arrange that).
"""

from __future__ import annotations

import math
from contextlib import ExitStack, contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple
from unittest import mock

import numpy as np

import repro.core.parameter_search as _parameter_search
import repro.costmodel.model as _cost_model
from repro.caching import lowering_cache, sketch_cache
from repro.costmodel.gbt import GradientBoostedTrees
from repro.costmodel.tree import RegressionTree
from repro.hardware.measurer import Measurer, simulate_measurement_batch
from repro.hardware.simulator import LatencySimulator, SimulationBreakdown
from repro.serving.fingerprint import embedding_distance
from repro.serving.registry import ScheduleRegistry
from repro.tensor.dag import DTYPE_BYTES
from repro.tensor.factors import product
from repro.tensor.features import (
    _SCALAR_BLOCK,
    FEATURE_SIZE,
    MAX_REDUCTION_ITERS,
    MAX_REDUCTION_LEVELS,
    MAX_SPATIAL_ITERS,
    MAX_SPATIAL_LEVELS,
    _log2,
)
from repro.tensor.schedule import Schedule

__all__ = [
    "batch_latency_reference",
    "best_split_reference",
    "donor_scores_reference",
    "forest_predict_reference",
    "nearest_reference",
    "reference_breakdown",
    "reference_hot_path",
    "run_batch_reference",
    "schedule_features",
    "stacked_schedule_features",
]


# --------------------------------------------------------------------- #
# features
# --------------------------------------------------------------------- #
def schedule_features(schedule: Schedule) -> np.ndarray:
    """Compute the feature vector of one schedule.

    Layout (all tile sizes and extents are ``log2``-scaled):

    1. spatial tile sizes — ``MAX_SPATIAL_ITERS x MAX_SPATIAL_LEVELS`` slots,
    2. reduction tile sizes — ``MAX_REDUCTION_ITERS x MAX_REDUCTION_LEVELS`` slots,
    3. spatial / reduction iterator extents,
    4. scalar knobs and workload statistics (parallel extent, unroll depth,
       compute-at position, register-tile volume, FLOPs, arithmetic intensity,
       sketch flags, ...).
    """
    out = np.zeros(FEATURE_SIZE, dtype=np.float64)
    dag = schedule.dag

    # --- tile sizes -------------------------------------------------- #
    offset = 0
    spatial = schedule.spatial_tile_sizes()
    for i in range(MAX_SPATIAL_ITERS):
        for j in range(MAX_SPATIAL_LEVELS):
            if i < len(spatial) and j < len(spatial[i]):
                out[offset] = _log2(spatial[i][j])
            offset += 1
    reduction = schedule.reduction_tile_sizes()
    for i in range(MAX_REDUCTION_ITERS):
        for j in range(MAX_REDUCTION_LEVELS):
            if i < len(reduction) and j < len(reduction[i]):
                out[offset] = _log2(reduction[i][j])
            offset += 1

    # --- iterator extents -------------------------------------------- #
    spatial_iters = dag.main_stage.spatial_iters
    for i in range(MAX_SPATIAL_ITERS):
        if i < len(spatial_iters):
            out[offset] = _log2(spatial_iters[i].extent)
        offset += 1
    reduction_iters = dag.main_stage.reduction_iters
    for i in range(MAX_REDUCTION_ITERS):
        if i < len(reduction_iters):
            out[offset] = _log2(reduction_iters[i].extent)
        offset += 1

    # --- scalar knobs and workload statistics ------------------------ #
    n_candidates = len(dag.compute_at_candidates())
    scalars = [
        float(schedule.num_parallel),
        float(schedule.num_parallel) / max(schedule.max_parallel, 1),
        _log2(schedule.parallel_extent()),
        _log2(schedule.unroll_depth + 1),
        float(schedule.compute_at_index) / max(n_candidates - 1, 1),
        _log2(schedule.innermost_spatial_volume()),
        _log2(schedule.innermost_reduction_volume()),
        _log2(spatial[-1][-1] if spatial else 1),  # vectorisable innermost tile
        _log2(dag.flops),
        _log2(dag.arithmetic_intensity() + 1.0),
        1.0 if schedule.sketch.fuse_consumer else 0.0,
        1.0 if schedule.sketch.cache_write else 0.0,
        1.0 if schedule.sketch.rfactor else 0.0,
    ]
    assert len(scalars) == _SCALAR_BLOCK
    out[offset : offset + _SCALAR_BLOCK] = scalars
    return out


def stacked_schedule_features(schedules: Sequence[Schedule]) -> np.ndarray:
    """:func:`schedule_features` per schedule, stacked (``batch_features``'s shape)."""
    if not schedules:
        return np.zeros((0, FEATURE_SIZE), dtype=np.float64)
    return np.stack([schedule_features(s) for s in schedules], axis=0)


# --------------------------------------------------------------------- #
# simulator
# --------------------------------------------------------------------- #
def reference_breakdown(
    simulator: LatencySimulator, schedule: Schedule
) -> SimulationBreakdown:
    """Scalar decomposition of one schedule's latency on ``simulator``."""
    target = simulator.target
    dag = schedule.dag
    flops = max(dag.flops, 1.0)

    spatial = schedule.spatial_tile_sizes()
    reduction = schedule.reduction_tile_sizes()

    factors: Dict[str, float] = {}

    vector_eff = _vectorization_efficiency(simulator, spatial)
    factors["vector"] = vector_eff

    register_eff = _register_efficiency(simulator, schedule)
    factors["register"] = register_eff

    loop_eff = _loop_overhead_efficiency(simulator, schedule)
    factors["loop"] = loop_eff

    cache_eff = _cache_efficiency(simulator, spatial, reduction)
    factors["cache"] = cache_eff

    compute_at_eff = _compute_at_efficiency(schedule)
    factors["compute_at"] = compute_at_eff

    fusion_eff = 1.05 if schedule.sketch.fuse_consumer else 1.0
    factors["fusion"] = fusion_eff

    efficiency = vector_eff * register_eff * loop_eff * cache_eff * compute_at_eff * fusion_eff
    efficiency = float(np.clip(efficiency, 1e-4, 1.0))

    speedup, par_overhead = _parallel_speedup(simulator, schedule)
    factors["speedup"] = speedup

    compute_time = flops / (target.peak_flops_per_core * efficiency) / speedup

    memory_time = _memory_time(simulator, schedule, spatial, reduction)
    epilogue_time = _epilogue_time(simulator, schedule)

    ruggedness = simulator._ruggedness(schedule)

    overlapped = max(compute_time, memory_time) + 0.25 * min(compute_time, memory_time)
    latency = (overlapped + par_overhead + target.kernel_overhead + epilogue_time) * ruggedness

    return SimulationBreakdown(
        latency=float(latency),
        compute_time=float(compute_time),
        memory_time=float(memory_time),
        parallel_overhead=float(par_overhead),
        epilogue_time=float(epilogue_time),
        speedup=float(speedup),
        efficiency=float(efficiency),
        ruggedness=float(ruggedness),
        factors=factors,
    )


def batch_latency_reference(
    simulator: LatencySimulator, schedules: Sequence[Schedule]
) -> np.ndarray:
    """``batch_latency`` as a loop of :func:`reference_breakdown` calls."""
    return np.array(
        [reference_breakdown(simulator, s).latency for s in schedules],
        dtype=np.float64,
    )


def _vectorization_efficiency(simulator: LatencySimulator, spatial) -> float:
    """SIMD utilisation of the innermost spatial tile (the vectorised axis)."""
    if not spatial:
        return 0.5
    vw = simulator.target.vector_width
    t_vec = spatial[-1][-1]
    if t_vec >= vw:
        return 1.0 if t_vec % vw == 0 else 0.85
    return max(0.15, 0.25 + 0.75 * t_vec / vw)


def _register_efficiency(simulator: LatencySimulator, schedule: Schedule) -> float:
    """Penalty for register tiles that exceed the register file."""
    reg_vol = schedule.innermost_spatial_volume() * max(
        schedule.innermost_reduction_volume(), 1
    )
    if reg_vol <= simulator.REGISTER_BUDGET:
        return 1.0
    return float(max(0.35, (simulator.REGISTER_BUDGET / reg_vol) ** 0.5))


def _loop_overhead_efficiency(simulator: LatencySimulator, schedule: Schedule) -> float:
    """Loop control overhead, reduced by unrolling up to i-cache limits."""
    body = max(
        schedule.innermost_spatial_volume() * max(schedule.innermost_reduction_volume(), 1),
        1,
    )
    unroll = schedule.unroll_depth
    effective_body = body * max(1.0, math.log2(2 + unroll))
    overhead_fraction = simulator.LOOP_OVERHEAD / effective_body
    eff = 1.0 / (1.0 + overhead_fraction)
    instr_footprint = body * max(unroll, 1)
    if instr_footprint > simulator.ICACHE_BUDGET:
        eff *= max(0.5, (simulator.ICACHE_BUDGET / instr_footprint) ** 0.25)
    return float(eff)


def _cache_efficiency(simulator: LatencySimulator, spatial, reduction) -> float:
    """Locality of the L1 and L2 working sets of the tiled loop nest."""
    target = simulator.target

    def working_set(spatial_levels: int, reduction_levels: int) -> float:
        prod_sp = 1.0
        sum_sp = 0.0
        for sizes in spatial:
            inner = product(sizes[-spatial_levels:]) if sizes else 1
            prod_sp *= inner
            sum_sp += inner
        prod_red = 1.0
        for sizes in reduction:
            prod_red *= product(sizes[-reduction_levels:]) if sizes else 1
        # Output tile + one operand tile per spatial dimension streamed over
        # the reduction tile (the GEMM A/B footprint generalised).
        return DTYPE_BYTES * (prod_sp + prod_red * sum_sp)

    ws_l1 = working_set(2, 1)
    ws_l2 = working_set(3, 2)

    eff_l1 = 1.0 if ws_l1 <= target.l1_bytes else max(0.45, (target.l1_bytes / ws_l1) ** 0.25)
    eff_l2 = 1.0 if ws_l2 <= target.l2_bytes else max(0.6, (target.l2_bytes / ws_l2) ** 0.15)
    return float(eff_l1 * eff_l2)


def _compute_at_efficiency(schedule: Schedule) -> float:
    """Placement quality of the fused consumer / cache-write stage.

    The ideal compute-at location sits in the middle of the spatial loop
    nest (after the outer parallel tiles, before the register tiles);
    positions further away lose producer-consumer reuse.  When the sketch
    has neither fusion nor cache-write the knob only has a small residual
    effect (loop-invariant hoisting of the inlined epilogue).
    """
    n_candidates = len(schedule.dag.compute_at_candidates())
    if n_candidates <= 1:
        return 1.0
    relevant = schedule.sketch.fuse_consumer or schedule.sketch.cache_write
    weight = 0.15 if relevant else 0.03
    ideal = 1 + len(schedule.dag.main_stage.spatial_iters) // 2
    ideal = min(ideal, n_candidates - 1)
    distance = abs(schedule.compute_at_index - ideal) / max(n_candidates - 1, 1)
    return float(1.0 - weight * distance)


def _parallel_speedup(simulator: LatencySimulator, schedule: Schedule) -> tuple:
    """Parallel speedup and the associated task-spawn overhead."""
    target = simulator.target
    par_extent = schedule.parallel_extent()

    if schedule.sketch.rfactor:
        # Reduction factorisation exposes extra parallelism, most useful
        # when the spatial iteration space alone cannot fill the machine.
        total_reduction = 1
        for it in schedule.dag.main_stage.reduction_iters:
            total_reduction *= it.extent
        rfactor_pieces = min(8, max(1, total_reduction // 128))
        par_extent *= rfactor_pieces

    if par_extent <= 1:
        return 1.0, 0.0

    cores = target.num_cores
    # Load-balanced speedup: work is split into `par_extent` equal chunks
    # scheduled round-robin over `cores` workers.
    rounds = math.ceil(par_extent / cores)
    speedup = par_extent / rounds
    speedup = min(speedup, cores)

    if target.kind == "gpu":
        # GPUs need an excess of independent blocks to hide latency.
        occupancy = min(1.0, par_extent / (cores * 8.0))
        speedup *= max(0.15, occupancy)
        speedup = max(speedup, 1.0)

    overhead = target.parallel_overhead * (par_extent / max(speedup, 1.0))
    return float(speedup), float(overhead)


def _memory_time(simulator: LatencySimulator, schedule: Schedule, spatial, reduction) -> float:
    """DRAM traffic model: outer tile counts determine how often operands stream."""
    dag = schedule.dag

    outer_reduction = 1
    for sizes in reduction:
        outer_reduction *= sizes[0] if sizes else 1

    outer_spatial_tiles = 1
    for sizes in spatial:
        outer_spatial_tiles *= sizes[0] if sizes else 1

    if schedule.sketch.cache_write or not dag.has_data_reuse:
        output_traffic = dag.output_bytes
    else:
        # Splitting the reduction at the outermost level re-reads and
        # re-writes the partial output once per outer reduction tile.
        output_traffic = dag.output_bytes * (2 * outer_reduction - 1)

    # Each input operand streams roughly once per outer spatial tile of
    # the dimensions it does not index; the square root is a generic
    # surrogate for "half of the outer dimensions don't index me".
    reread = max(1.0, math.sqrt(outer_spatial_tiles) / 2.0)
    input_traffic = dag.input_bytes * reread

    traffic = output_traffic + input_traffic
    if schedule.sketch.fuse_consumer:
        traffic *= 0.85  # the epilogue round-trip through DRAM disappears
    if schedule.sketch.rfactor:
        traffic += dag.output_bytes * 4  # partial-result combine pass

    return float(traffic / simulator.target.dram_bandwidth)


def _epilogue_time(simulator: LatencySimulator, schedule: Schedule) -> float:
    """Cost of element-wise stages that are neither inlined nor fused."""
    dag = schedule.dag
    sketch = schedule.sketch
    if sketch.fuse_consumer:
        return 0.0
    pending_flops = 0.0
    pending_bytes = 0.0
    for stage in dag.elementwise_stages:
        if stage.name in sketch.inlined_stages:
            continue
        if dag.main_stage_name not in stage.producers:
            continue
        pending_flops += stage.flops
        pending_bytes += stage.output_elements * DTYPE_BYTES * 2
    if pending_flops == 0.0:
        return 0.0
    compute = pending_flops / (simulator.target.peak_flops * 0.25)
    memory = pending_bytes / simulator.target.dram_bandwidth
    return float(max(compute, memory))


# --------------------------------------------------------------------- #
# cost model: split search and forest prediction
# --------------------------------------------------------------------- #
def best_split_reference(tree: RegressionTree, X: np.ndarray, y: np.ndarray):
    """Per-feature split search: one sort and prefix sum per candidate feature."""
    n_samples, n_features = X.shape
    total_sum = float(np.sum(y))
    total_sq = float(np.sum(y * y))
    base_sse = total_sq - total_sum * total_sum / n_samples

    features = tree._candidate_features(n_features)

    best_feature, best_threshold, best_gain = -1, 0.0, 0.0
    for feature in features:
        values = X[:, feature]
        order = np.argsort(values, kind="mergesort")
        v_sorted = values[order]
        y_sorted = y[order]

        left_count = np.arange(1, n_samples)
        left_sum = np.cumsum(y_sorted)[:-1]
        left_sq = np.cumsum(y_sorted * y_sorted)[:-1]
        right_count = n_samples - left_count
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq

        sse = (
            left_sq
            - left_sum * left_sum / left_count
            + right_sq
            - right_sum * right_sum / right_count
        )
        gains = base_sse - sse

        # Valid split positions: both children big enough and distinct
        # adjacent feature values (otherwise the threshold is degenerate).
        valid = (
            (left_count >= tree.min_samples_leaf)
            & (right_count >= tree.min_samples_leaf)
            & (v_sorted[:-1] < v_sorted[1:])
        )
        if not np.any(valid):
            continue
        gains = np.where(valid, gains, -np.inf)
        idx = int(np.argmax(gains))
        if gains[idx] > best_gain:
            best_gain = float(gains[idx])
            best_feature = int(feature)
            best_threshold = float((v_sorted[idx] + v_sorted[idx + 1]) / 2.0)

    return best_feature, best_threshold, best_gain


def forest_predict_reference(model: GradientBoostedTrees, X: np.ndarray) -> np.ndarray:
    """``GradientBoostedTrees.predict`` as a loop of per-tree ``predict`` calls."""
    if not model._fitted:
        raise RuntimeError("model is not fitted")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    out = np.full(X.shape[0], model._base_prediction, dtype=np.float64)
    for tree in model._trees:
        out += model.learning_rate * tree.predict(X)
    return out


# --------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------- #
def run_batch_reference(
    measurer: Measurer, schedules: Sequence[Schedule], draws: Sequence[float]
) -> List[Tuple[float, int]]:
    """``Measurer._run_batch`` as a per-schedule loop of one-element batches."""
    return [
        simulate_measurement_batch(
            [schedule],
            measurer.simulator,
            measurer.noise,
            measurer.min_repeat_seconds,
            measurer.max_repeats,
            [draw],
        )[0]
        for schedule, draw in zip(schedules, draws)
    ]


# --------------------------------------------------------------------- #
# registry ranking
# --------------------------------------------------------------------- #
def nearest_reference(
    registry: ScheduleRegistry,
    fingerprint: str,
    query: np.ndarray,
    target_name: str,
    k: int,
    exclude_exact: bool,
):
    """``ScheduleRegistry._nearest_locked`` as a per-entry distance loop."""
    scored = []
    for ie in registry._matrix_locked(target_name).rows:
        if exclude_exact and ie.fingerprint == fingerprint:
            continue
        scored.append((embedding_distance(query, ie.embedding), ie))
    scored.sort(key=lambda pair: (pair[0], pair[1].fingerprint))
    return [
        (dist, registry._materialise_locked(ie.key)) for dist, ie in scored[: max(k, 0)]
    ]


def donor_scores_reference(
    registry: ScheduleRegistry,
    matrix,
    target_name: str,
    fingerprint: str,
    query: np.ndarray,
    t_dist: float,
    k: int,
):
    """``ScheduleRegistry._donor_scores_locked`` as a per-entry loop.

    Scores every scheduled entry of the donor target (no per-target top-k
    cut); the caller's global sort and cut give the same ranking.
    """
    scored = []
    for ie in matrix.rows + matrix.extras:
        if not ie.has_schedule:
            continue
        if ie.fingerprint == fingerprint:
            w_dist = 0.0
        elif ie.embedding:
            w_dist = embedding_distance(query, ie.embedding)
        else:
            continue
        scored.append((w_dist + t_dist, ie.fingerprint, target_name, t_dist, ie.key))
    return scored


# --------------------------------------------------------------------- #
# the whole pipeline on the oracles
# --------------------------------------------------------------------- #
def _uncached(_key, factory):
    return factory()


@contextmanager
def reference_hot_path() -> Iterator[None]:
    """Run the tuning pipeline on the oracles above, for baselines and A/B tests.

    Inside the block feature extraction (in both of its importers), the
    simulator, the measure loop, the tree's split search, the forest's
    prediction and the registry's ranking run their scalar references, and the shared sketch and lowering
    caches recompute on every lookup (no counters move).  Nestable and
    exception-safe; the patches are process-wide.
    """
    patches = [
        (_parameter_search, "batch_features", stacked_schedule_features),
        (_cost_model, "batch_features", stacked_schedule_features),
        (LatencySimulator, "breakdown", reference_breakdown),
        (LatencySimulator, "batch_latency", batch_latency_reference),
        (RegressionTree, "_best_split", best_split_reference),
        (GradientBoostedTrees, "predict", forest_predict_reference),
        (Measurer, "_run_batch", run_batch_reference),
        (ScheduleRegistry, "_nearest_locked", nearest_reference),
        (ScheduleRegistry, "_donor_scores_locked", donor_scores_reference),
        (sketch_cache, "get_or_create", _uncached),
        (lowering_cache, "get_or_create", _uncached),
    ]
    with ExitStack() as stack:
        for owner, name, oracle in patches:
            stack.enter_context(mock.patch.object(owner, name, oracle))
        yield
