"""Tests for the sharded persistent schedule registry."""

import json
import random
import threading
from dataclasses import replace

import pytest

from repro.core.scheduler import HARLScheduler
from repro.serving.fingerprint import (
    EMBEDDING_SIZE,
    structural_fingerprint,
    workload_embedding,
)
from repro.serving.registry import RegistryEntry, ScheduleRegistry, _fit_tile_sizes
from repro.tensor.factors import product
from repro.tensor.workloads import gemm


@pytest.fixture
def registry_root(tmp_path):
    return tmp_path / "registry"


def _tuned_result(dag, tiny_config, seed=0, n_trials=8):
    return HARLScheduler(config=tiny_config, seed=seed).tune(dag, n_trials=n_trials)


def _entry(dag, target, latency, source="test", schedule=None):
    return RegistryEntry(
        fingerprint=structural_fingerprint(dag),
        target=target.name,
        workload=dag.name,
        latency=latency,
        throughput=dag.flops / latency,
        trials=4,
        scheduler="harl",
        schedule=schedule,
        embedding=tuple(workload_embedding(dag).tolist()),
        source=source,
    )


class TestRoundTrip:
    def test_record_and_reload(self, cpu, tiny_config, gemm_dag, registry_root):
        result = _tuned_result(gemm_dag, tiny_config)
        registry = ScheduleRegistry(registry_root)
        assert registry.record_result(gemm_dag, cpu, result, source="test")
        registry.close()

        reloaded = ScheduleRegistry(registry_root)
        entry = reloaded.lookup(gemm_dag, cpu, k=0).entry
        assert entry is not None
        assert entry.latency == pytest.approx(result.best_latency)
        assert entry.source == "test"
        # The stored schedule restores against a *renamed* twin of the DAG.
        twin = gemm(128, 128, 128, name="twin")
        schedules = reloaded.warm_start_schedules(twin, cpu)
        assert schedules and schedules[0].dag.name == "twin"

    def test_only_improvements_are_kept(self, cpu, gemm_dag, registry_root):
        registry = ScheduleRegistry(registry_root)
        assert registry.record(_entry(gemm_dag, cpu, latency=2.0))
        assert not registry.record(_entry(gemm_dag, cpu, latency=3.0))  # worse
        assert registry.record(_entry(gemm_dag, cpu, latency=1.0))
        assert registry.lookup(gemm_dag, cpu, k=0).entry.latency == 1.0
        assert len(registry) == 1

    def test_targets_are_separate_keys(self, cpu, gpu, gemm_dag):
        registry = ScheduleRegistry()
        registry.record(_entry(gemm_dag, cpu, latency=1.0))
        registry.record(_entry(gemm_dag, gpu, latency=0.5))
        assert registry.lookup(gemm_dag, cpu, k=0).entry.latency == 1.0
        assert registry.lookup(gemm_dag, gpu, k=0).entry.latency == 0.5

    def test_rejects_empty_fingerprint(self, cpu, gemm_dag):
        entry = RegistryEntry(
            fingerprint="", target=cpu.name, workload="w", latency=1.0,
            throughput=1.0, trials=1, scheduler="harl", schedule=None,
        )
        with pytest.raises(ValueError):
            ScheduleRegistry().record(entry)

    def test_sharding_spreads_entries(self, cpu, registry_root):
        registry = ScheduleRegistry(registry_root, num_shards=4)
        for m in (32, 64, 128, 256, 512):
            registry.record(_entry(gemm(m, m, m), cpu, latency=1.0 / m))
        registry.close()
        shard_files = list(registry_root.glob("shard-*.jsonl"))
        assert len(shard_files) > 1  # fingerprints spread over shards
        assert len(ScheduleRegistry(registry_root, num_shards=4)) == 5

    def test_reopening_with_different_shard_count_sees_all_entries(
        self, cpu, registry_root
    ):
        registry = ScheduleRegistry(registry_root, num_shards=32)
        for m in (32, 64, 128, 256, 512):
            registry.record(_entry(gemm(m, m, m), cpu, latency=1.0 / m))
        registry.close()
        # Default shard count differs from the writer's: every entry must
        # still load, and compaction must not orphan old shard files.
        reopened = ScheduleRegistry(registry_root)
        assert len(reopened) == 5
        reopened.compact()
        for path in registry_root.glob("shard-*.jsonl"):
            assert int(path.stem.split("-")[1]) < reopened.num_shards
        assert len(ScheduleRegistry(registry_root)) == 5


class TestMergeImportExport:
    def test_merge_takes_best_of_both(self, cpu, gemm_dag):
        a, b = ScheduleRegistry(), ScheduleRegistry()
        other = gemm(256, 256, 256)
        a.record(_entry(gemm_dag, cpu, latency=2.0))
        b.record(_entry(gemm_dag, cpu, latency=1.0))
        b.record(_entry(other, cpu, latency=5.0))
        accepted = a.merge(b)
        assert accepted == 2  # better gemm + new workload
        assert a.lookup(gemm_dag, cpu, k=0).entry.latency == 1.0
        assert len(a) == 2

    def test_export_import_round_trip(self, cpu, gemm_dag, tmp_path):
        registry = ScheduleRegistry()
        registry.record(_entry(gemm_dag, cpu, latency=1.5))
        exported = registry.export_file(tmp_path / "export.jsonl")

        fresh = ScheduleRegistry()
        assert fresh.import_file(exported, source="import:test") == 1
        entry = fresh.lookup(gemm_dag, cpu, k=0).entry
        assert entry.latency == 1.5
        assert entry.source == "import:test"

    def test_import_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ScheduleRegistry().import_file(tmp_path / "absent.jsonl")


class TestConcurrentWriters:
    @staticmethod
    def _synthetic(key: int, latency: float) -> RegistryEntry:
        return RegistryEntry(
            fingerprint=f"stress-{key:02d}",
            target="sim-cpu",
            workload=f"workload_{key}",
            latency=float(latency),
            throughput=1.0 / float(latency),
            trials=4,
            scheduler="harl",
            schedule={"tile": key},
            embedding=(float(key), 1.0) + (0.0,) * (EMBEDDING_SIZE - 2),
            source="stress",
        )

    def test_multi_writer_stress_keeps_record_atomic(self, registry_root):
        """Racing writers never tear the absorb/append pair of record().

        Pre-fix, a thread could lose the _best check-then-append race: two
        writers both pass the improvement check, both append, and the
        in-memory best diverges from what a reload computes from the shards.
        """
        registry = ScheduleRegistry(registry_root, num_shards=4)
        writers, keys, steps = 8, 6, 40
        barrier = threading.Barrier(writers)
        errors = []

        def writer(index):
            rng = random.Random(index)
            barrier.wait()
            try:
                for step in range(steps):
                    key = rng.randrange(keys)
                    # Descending floor per key so improvements keep landing
                    # throughout the race, from every thread.
                    latency = 10.0 - step / steps * 5.0 + rng.random()
                    registry.record(self._synthetic(key, latency))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

        in_memory = {e.key: e.latency for e in registry.entries()}
        assert len(in_memory) == keys
        registry.close()

        # Every appended line must be intact JSON, monotonically improving
        # per key (an append only happens for an accepted improvement), and
        # the reload's best map must equal the in-memory one.
        seen_best = {}
        for shard in sorted(registry_root.glob("shard-*.jsonl")):
            for line in shard.read_text().splitlines():
                entry = json.loads(line)  # raises on a torn/interleaved line
                key = (entry["fingerprint"], entry["target"])
                assert entry["latency"] < seen_best.get(key, float("inf"))
                seen_best[key] = entry["latency"]
        reloaded = ScheduleRegistry(registry_root, num_shards=4)
        assert {e.key: e.latency for e in reloaded.entries()} == in_memory
        assert reloaded.skipped_lines == 0


class TestCorruptionAndCompaction:
    def _write_garbage(self, registry_root, cpu, gemm_dag):
        registry = ScheduleRegistry(registry_root, num_shards=1)
        registry.record(_entry(gemm_dag, cpu, latency=2.0))
        registry.record(_entry(gemm_dag, cpu, latency=1.0))  # supersedes
        registry.close()
        shard = registry_root / "shard-00.jsonl"
        with shard.open("a") as fh:
            fh.write("{broken json\n")
            fh.write(json.dumps({"fingerprint": "x"}) + "\n")  # missing fields
        return shard

    def test_corrupted_lines_skipped(self, registry_root, cpu, gemm_dag):
        self._write_garbage(registry_root, cpu, gemm_dag)
        registry = ScheduleRegistry(registry_root, num_shards=1)
        assert len(registry) == 1
        assert registry.skipped_lines == 2
        assert registry.lookup(gemm_dag, cpu, k=0).entry.latency == 1.0

    def test_strict_mode_raises(self, registry_root, cpu, gemm_dag):
        self._write_garbage(registry_root, cpu, gemm_dag)
        with pytest.raises(ValueError):
            ScheduleRegistry(registry_root, num_shards=1, strict=True)

    def test_compact_drops_stale_and_corrupt_lines(self, registry_root, cpu, gemm_dag):
        shard = self._write_garbage(registry_root, cpu, gemm_dag)
        registry = ScheduleRegistry(registry_root, num_shards=1)
        removed = registry.compact()
        assert removed == 1  # the superseded latency=2.0 line
        assert shard.read_text().count("\n") == 1  # only the best entry remains
        reloaded = ScheduleRegistry(registry_root, num_shards=1)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 0
        assert reloaded.lookup(gemm_dag, cpu, k=0).entry.latency == 1.0

    def test_stats(self, registry_root, cpu, gemm_dag):
        self._write_garbage(registry_root, cpu, gemm_dag)
        stats = ScheduleRegistry(registry_root, num_shards=1).stats()
        assert stats["entries"] == 1
        assert stats["skipped_lines"] == 2
        assert stats["stale_lines"] == 1
        assert stats["targets"] == [cpu.name]


class TestNearestNeighbour:
    def test_nearest_prefers_same_operator_family(self, cpu, tiny_config):
        registry = ScheduleRegistry()
        near = gemm(256, 128, 128)
        import repro.tensor.workloads as wl

        far = wl.conv2d(14, 14, 32, 32, 3, 1, 1)
        registry.record(_entry(near, cpu, latency=1.0))
        registry.record(_entry(far, cpu, latency=1.0))
        query = gemm(128, 128, 128)
        neighbors = registry.lookup(query, cpu, k=2).neighbors
        assert [e.workload for _d, e in neighbors] == [near.name, far.name]

    def test_nearest_excludes_exact_fingerprint(self, cpu, gemm_dag):
        registry = ScheduleRegistry()
        registry.record(_entry(gemm_dag, cpu, latency=1.0))
        assert registry.lookup(gemm(128, 128, 128, name="twin"), cpu, k=1).neighbors == ()

    def test_transfer_adapts_tile_sizes_to_new_extents(self, cpu, tiny_config):
        donor = gemm(128, 128, 128)
        result = _tuned_result(donor, tiny_config)
        registry = ScheduleRegistry()
        registry.record_result(donor, cpu, result, source="donor")

        recipient = gemm(96, 96, 96)  # different extents, same family
        schedules = registry.warm_start_schedules(recipient, cpu)
        assert schedules
        for schedule in schedules:
            assert schedule.dag.name == recipient.name
            # valid factorizations of the *new* extents
            for sizes, (_n, _k, extent, _l) in zip(
                schedule.tile_sizes, schedule.sketch.tiled_iters
            ):
                assert product(sizes) == extent


class TestTileFitting:
    @pytest.mark.parametrize("extent,levels", [(96, 4), (7, 2), (128, 4), (60, 3), (1, 3)])
    def test_fit_preserves_product(self, extent, levels):
        fitted = _fit_tile_sizes(extent, levels, [4, 2, 8, 2])
        assert len(fitted) == levels
        assert product(fitted) == extent

    def test_fit_follows_reference_shape(self):
        # Reference concentrates size on the innermost slot; the fit should too.
        fitted = _fit_tile_sizes(64, 3, [1, 1, 64])
        assert fitted == [1, 1, 64]


class TestEmbeddingValidation:
    """An embedding is empty or exactly ``EMBEDDING_SIZE`` long, at every door.

    One short embedding used to enter the index and break every similarity
    lookup on its target (``embedding shapes differ``), which failed every
    warm-started tune there.
    """

    @staticmethod
    def _bad(dag, target):
        return replace(_entry(dag, target, 1e-3), fingerprint="bad", embedding=(1.0, 2.0, 3.0))

    def test_import_skips_short_embedding_and_lookups_keep_working(self, cpu, tmp_path):
        good, query = gemm(128, 128, 128), gemm(96, 96, 96)
        export = tmp_path / "export.jsonl"
        lines = [
            _entry(good, cpu, 1e-3, schedule={"stub": 1}).to_dict(),
            self._bad(good, cpu).to_dict(),
        ]
        export.write_text("".join(json.dumps(line) + "\n" for line in lines))
        registry = ScheduleRegistry()
        assert registry.import_file(export) == 1
        assert registry.skipped_lines == 1
        assert [e.workload for _d, e in registry.lookup(query, cpu, k=4).neighbors] == [
            good.name
        ]
        assert registry.lookup(query, cpu, k=4, cross_target=True).source == "neighbor"
        registry.warm_start_transfers(query, cpu)
        with pytest.raises(ValueError, match="corrupted registry entry"):
            ScheduleRegistry(strict=True).import_file(export)

    def test_record_rejects_short_embedding(self, cpu):
        registry = ScheduleRegistry()
        with pytest.raises(ValueError, match="embedding"):
            registry.record(self._bad(gemm(64, 64, 64), cpu))
        assert len(registry) == 0
        assert registry.record(replace(self._bad(gemm(64, 64, 64), cpu), embedding=()))

    def test_shard_scan_skips_short_embedding(self, cpu, registry_root):
        dag = gemm(128, 128, 128)
        registry_root.mkdir(parents=True)
        (registry_root / "shard-00.jsonl").write_text(
            json.dumps(_entry(dag, cpu, 1e-3).to_dict())
            + "\n"
            + json.dumps(self._bad(dag, cpu).to_dict())
            + "\n"
        )
        registry = ScheduleRegistry(registry_root, num_shards=1)
        assert len(registry) == 1 and registry.skipped_lines == 1
        assert registry.lookup(gemm(96, 96, 96), cpu, k=4).neighbors

    def test_sidecar_with_short_embedding_is_rescanned(self, cpu, registry_root):
        dag = gemm(128, 128, 128)
        with ScheduleRegistry(registry_root, num_shards=1) as registry:
            registry.record(_entry(dag, cpu, 1e-3))
            registry.compact()
        sidecar = registry_root / "shard-00.idx.json"
        payload = json.loads(sidecar.read_text())
        payload["entries"][0][6] = [1.0, 2.0, 3.0]
        sidecar.write_text(json.dumps(payload))
        reopened = ScheduleRegistry(registry_root, num_shards=1)
        [(_distance, entry)] = reopened.lookup(gemm(96, 96, 96), cpu, k=4).neighbors
        assert entry.embedding == tuple(workload_embedding(dag).tolist())
