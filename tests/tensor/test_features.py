"""Unit tests for schedule feature extraction."""

import numpy as np

from benchmarks.perf.oracles import reference_hot_path, schedule_features
from repro.tensor.actions import ActionSpace, ModificationAction, apply_action
from repro.tensor.features import FEATURE_SIZE, batch_features
from repro.tensor.sampler import sample_initial_schedules, sample_schedule
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import conv3d, gemm, softmax


class TestScheduleFeatures:
    def test_fixed_length(self, gemm_sketch, rng):
        feats = schedule_features(sample_schedule(gemm_sketch, rng))
        assert feats.shape == (FEATURE_SIZE,)

    def test_all_finite(self, gemm_sketch, rng):
        for _ in range(20):
            feats = schedule_features(sample_schedule(gemm_sketch, rng))
            assert np.all(np.isfinite(feats))

    def test_deterministic(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        assert np.array_equal(schedule_features(schedule), schedule_features(schedule))

    def test_different_operators_same_length(self, rng):
        dags = [gemm(64, 64, 64), conv3d(4, 8, 8, 4, 4, 3, 1, 1), softmax(64, 64)]
        for dag in dags:
            sketch = generate_sketches(dag)[0]
            feats = schedule_features(sample_schedule(sketch, rng))
            assert feats.shape == (FEATURE_SIZE,)

    def test_features_change_with_tiling(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        space = ActionSpace(gemm_sketch)
        changed = None
        for action in space.all_single_tile_moves():
            candidate = apply_action(schedule, action)
            if candidate != schedule:
                changed = candidate
                break
        assert changed is not None
        assert not np.array_equal(schedule_features(schedule), schedule_features(changed))

    def test_features_change_with_unroll(self, gemm_sketch, rng):
        schedule = sample_schedule(gemm_sketch, rng)
        schedule.unroll_index = 0
        other = apply_action(schedule, ModificationAction(None, 0, 0, 1))
        assert not np.array_equal(schedule_features(schedule), schedule_features(other))

    def test_sketch_flags_encoded(self, rng):
        dag = gemm(256, 256, 256)
        sketches = {s.key: s for s in generate_sketches(dag)}
        plain = schedule_features(sample_schedule(sketches["tiling"], rng))
        fused = schedule_features(sample_schedule(sketches["tiling+fuse"], rng))
        assert plain[-3] == 0.0 and fused[-3] == 1.0  # fuse flag position


class TestBatchFeatures:
    def test_shape(self, gemm_sketch, rng):
        schedules = sample_initial_schedules(gemm_sketch, 5, rng)
        assert batch_features(schedules).shape == (5, FEATURE_SIZE)

    def test_empty_batch(self):
        assert batch_features([]).shape == (0, FEATURE_SIZE)

    def test_rows_match_individual_features(self, gemm_sketch, rng):
        schedules = sample_initial_schedules(gemm_sketch, 3, rng)
        stacked = batch_features(schedules)
        for row, schedule in zip(stacked, schedules):
            assert np.array_equal(row, schedule_features(schedule))


class TestLayoutCacheAndLegacyPath:
    def test_layout_memoised_on_sketch(self, gemm_sketch):
        from repro.tensor.features import _layout_of

        assert _layout_of(gemm_sketch) is _layout_of(gemm_sketch)

    def test_shared_sketches_share_layouts(self):
        from repro.caching import cached_sketches, clear_caches
        from repro.tensor.features import _layout_of

        clear_caches()
        dag = gemm(64, 64, 64)
        first = _layout_of(cached_sketches(dag)[0])
        assert _layout_of(cached_sketches(dag)[0]) is first
        clear_caches()

    def test_legacy_path_is_bit_identical(self, gemm_sketch, rng):
        import repro.costmodel.model as cost_model

        schedules = sample_initial_schedules(gemm_sketch, 6, rng)
        fast = batch_features(schedules)
        with reference_hot_path():
            legacy = cost_model.batch_features(schedules)
        assert np.array_equal(fast, legacy)
