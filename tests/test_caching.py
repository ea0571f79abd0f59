"""Unit tests for the shared hot-path memoisation caches (`repro.caching`).

The contract under test: a cache hit returns the *identical* stored object,
keys embed everything that must invalidate (workload identity, target tiling
depths, schedule signature), and counters account every lookup.
"""

import numpy as np
import pytest

from repro.caching import (
    MemoCache,
    cache_stats,
    cached_lowering,
    cached_sketches,
    cached_sketches_for_target,
    clear_caches,
    fingerprint_stats,
    lowering_cache,
    reset_cache_stats,
    sketch_cache,
)
from repro.hardware.target import cpu_target, gpu_target
from repro.tensor.dag import structural_fingerprint
from repro.tensor.lowering import lower_schedule
from repro.tensor.sampler import sample_schedule
from repro.tensor.workloads import gemm


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    reset_cache_stats()
    yield
    clear_caches()
    reset_cache_stats()


class TestMemoCache:
    def test_hit_returns_identical_object(self):
        cache = MemoCache("test", maxsize=4)
        first = cache.get_or_create("k", lambda: object())
        second = cache.get_or_create("k", lambda: object())
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction_counts(self):
        cache = MemoCache("test", maxsize=2)
        for key in ("a", "b", "c"):
            cache.get_or_create(key, object)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert "a" not in cache and "c" in cache

    def test_invalidate(self):
        cache = MemoCache("test")
        value = cache.get_or_create("k", object)
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert cache.get_or_create("k", object) is not value

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MemoCache("test", maxsize=0)

    def test_on_evict_runs_for_lru_eviction_invalidate_and_clear(self):
        disposed = []
        cache = MemoCache("test", maxsize=2, on_evict=disposed.append)
        for key in ("a", "b", "c"):
            cache.get_or_create(key, lambda key=key: f"value-{key}")
        assert disposed == ["value-a"]  # LRU eviction
        cache.invalidate("b")
        assert disposed == ["value-a", "value-b"]
        cache.clear()
        assert disposed == ["value-a", "value-b", "value-c"]


class TestCachedSketches:
    def test_hit_returns_identical_list(self):
        dag = gemm(64, 64, 64)
        first = cached_sketches(dag, 4, 2)
        assert cached_sketches(dag, 4, 2) is first
        assert sketch_cache.stats.misses == 1
        assert sketch_cache.stats.hits == 1

    def test_target_change_invalidates(self):
        """CPU and GPU tiling depths must never share a sketch family."""
        dag = gemm(64, 64, 64)
        on_cpu = cached_sketches_for_target(dag, cpu_target())
        on_gpu = cached_sketches_for_target(dag, gpu_target())
        assert on_cpu is not on_gpu
        assert on_cpu[0].spatial_levels == 4 and on_gpu[0].spatial_levels == 5
        # Returning to the first target serves the original object again.
        assert cached_sketches_for_target(dag, cpu_target()) is on_cpu

    def test_same_structure_different_name_does_not_share(self):
        plain = gemm(64, 64, 64)
        renamed = gemm(64, 64, 64, name="renamed")
        assert structural_fingerprint(plain) == structural_fingerprint(renamed)
        assert cached_sketches(plain) is not cached_sketches(renamed)
        # A schedule built from the cached sketches must keep its own
        # workload name (measurement statistics key off it).
        assert cached_sketches(renamed)[0].dag.name == "renamed"

    def test_clear_caches_regenerates(self):
        dag = gemm(64, 64, 64)
        first = cached_sketches(dag)
        clear_caches()
        assert cached_sketches(dag) is not first


class TestCachedLowering:
    def test_hit_returns_identical_text(self, rng):
        dag = gemm(64, 64, 64)
        schedule = sample_schedule(cached_sketches(dag)[0], rng)
        first = cached_lowering(schedule)
        assert cached_lowering(schedule) is first
        assert first == lower_schedule(schedule)
        assert lowering_cache.stats.misses == 1
        assert lowering_cache.stats.hits == 1

    def test_same_name_different_structure_not_shared(self, rng):
        """Same display name + same knobs must not collide across structures.

        ``Schedule.signature()`` keys on the display name only; the lowering
        cache additionally keys on the structural fingerprint so a workload
        with an epilogue never serves the program text of its epilogue-free
        namesake.
        """
        from repro.tensor.schedule import Schedule

        bare = gemm(64, 64, 64, bias=False, name="twin")
        fused = gemm(64, 64, 64, bias=True, name="twin")
        bare_sketch = next(s for s in cached_sketches(bare) if s.key == "tiling")
        fused_sketch = next(s for s in cached_sketches(fused) if s.key == "tiling")
        first = sample_schedule(bare_sketch, rng)
        twin = Schedule(
            sketch=fused_sketch,
            tile_sizes=[list(sizes) for sizes in first.tile_sizes],
            compute_at_index=first.compute_at_index,
            num_parallel=first.num_parallel,
            unroll_index=first.unroll_index,
            unroll_depths=first.unroll_depths,
        )
        assert first.signature() == twin.signature()
        assert cached_lowering(first) != cached_lowering(twin)
        assert lowering_cache.stats.misses == 2

    def test_distinct_schedules_distinct_entries(self):
        dag = gemm(64, 64, 64)
        sketch = cached_sketches(dag)[0]
        fixed_rng = np.random.default_rng(1)
        schedules = [sample_schedule(sketch, fixed_rng) for _ in range(16)]
        for schedule in schedules:
            cached_lowering(schedule)
        unique = len({s.signature() for s in schedules})
        assert lowering_cache.stats.misses == unique
        assert lowering_cache.stats.hits == len(schedules) - unique


class TestFingerprintCounters:
    def test_first_computation_is_a_miss_then_hits(self):
        dag = gemm(96, 96, 96)
        before = (fingerprint_stats.hits, fingerprint_stats.misses)
        structural_fingerprint(dag)
        structural_fingerprint(dag)
        structural_fingerprint(dag)
        assert fingerprint_stats.misses == before[1] + 1
        assert fingerprint_stats.hits == before[0] + 2

    def test_snapshot_shape(self):
        stats = cache_stats()
        assert set(stats) == {"sketches", "lowering", "fingerprint"}
        for entry in stats.values():
            assert {"hits", "misses", "evictions", "hit_rate"} <= set(entry)
