"""Serial-vs-vectorised equivalence of the batched latency simulator.

The contract under test: :meth:`LatencySimulator.batch_latency` /
:meth:`batch_breakdown` produce the same numbers as the schedule-at-a-time
scalar oracle ``reference_breakdown`` (exact within floating-point
tolerance), for every target of the hardware catalog, and the batched
measurement pipeline built on top inherits that equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.perf.oracles import reference_breakdown, reference_hot_path
from repro.hardware.catalog import default_catalog
from repro.hardware.measurer import Measurer
from repro.hardware.simulator import LatencySimulator
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import conv2d, gemm, gemm_tanh, softmax

CATALOG = default_catalog()

RTOL = 1e-9


def _mixed_batch(target, seed, per_sketch=6):
    """Schedules across every sketch of a few operator classes (one batch)."""
    rng = np.random.default_rng(seed)
    schedules = []
    for dag in (
        gemm(128, 128, 128),
        conv2d(28, 28, 32, 32, 3, 1, 1),
        softmax(64, 64),
        gemm_tanh(96, 96, 96),
    ):
        for sketch in generate_sketches(
            dag, target.sketch_spatial_levels, target.sketch_reduction_levels
        ):
            schedules.extend(
                sample_initial_schedules(sketch, per_sketch, rng, target.unroll_depths)
            )
    return schedules


class TestBatchLatencyEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        target_name=st.sampled_from(CATALOG.names()),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_reference_on_catalog_targets(self, target_name, seed):
        target = CATALOG.get(target_name)
        simulator = LatencySimulator(target)
        schedules = _mixed_batch(target, seed)
        batch = simulator.batch_latency(schedules)
        reference = np.array(
            [reference_breakdown(simulator, s).latency for s in schedules]
        )
        assert np.allclose(batch, reference, rtol=RTOL, atol=0.0)

    def test_single_call_routes_through_batch(self, cpu, rng):
        simulator = LatencySimulator(cpu)
        for schedule in _mixed_batch(cpu, 7, per_sketch=2)[:8]:
            assert simulator.latency(schedule) == pytest.approx(
                reference_breakdown(simulator, schedule).latency, rel=RTOL
            )

    def test_empty_batch(self, cpu):
        assert LatencySimulator(cpu).batch_latency([]).shape == (0,)

    def test_batch_split_invariance(self, cpu):
        """Chunked evaluation equals whole-batch evaluation element-wise."""
        simulator = LatencySimulator(cpu)
        schedules = _mixed_batch(cpu, 11)
        whole = simulator.batch_latency(schedules)
        split = np.concatenate(
            [simulator.batch_latency(schedules[i : i + 5]) for i in range(0, len(schedules), 5)]
        )
        assert np.array_equal(whole, split)


class TestBatchBreakdownEquivalence:
    @pytest.mark.parametrize(
        "target_name", ["xeon-6226r", "rtx-3090", "graviton3", "jetson-orin"]
    )
    def test_all_components_match(self, target_name):
        target = CATALOG.get(target_name)
        simulator = LatencySimulator(target)
        schedules = _mixed_batch(target, 5, per_sketch=3)
        batched = simulator.batch_breakdown(schedules)
        for schedule, got in zip(schedules, batched):
            want = reference_breakdown(simulator, schedule)
            assert got.latency == pytest.approx(want.latency, rel=RTOL)
            assert got.compute_time == pytest.approx(want.compute_time, rel=RTOL)
            assert got.memory_time == pytest.approx(want.memory_time, rel=RTOL)
            assert got.parallel_overhead == pytest.approx(
                want.parallel_overhead, rel=RTOL, abs=1e-30
            )
            assert got.epilogue_time == pytest.approx(
                want.epilogue_time, rel=RTOL, abs=1e-30
            )
            assert got.speedup == pytest.approx(want.speedup, rel=RTOL)
            assert got.efficiency == pytest.approx(want.efficiency, rel=RTOL)
            assert got.ruggedness == want.ruggedness
            for key, value in want.factors.items():
                assert got.factors[key] == pytest.approx(value, rel=RTOL), key


class TestMeasurerEquivalence:
    def test_fast_and_legacy_measurements_agree(self, cpu):
        """The vectorised measurement pipeline reproduces the serial loop."""
        schedules = _mixed_batch(cpu, 13, per_sketch=3)
        fast = Measurer(cpu, seed=5).measure(schedules)
        with reference_hot_path():
            legacy = Measurer(cpu, seed=5).measure(schedules)
        assert np.allclose(
            [r.latency for r in fast], [r.latency for r in legacy], rtol=RTOL
        )
        assert [r.repeats for r in fast] == [r.repeats for r in legacy]
        assert [r.trial_index for r in fast] == [r.trial_index for r in legacy]
