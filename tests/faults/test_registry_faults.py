"""Registry crash-recovery tests: torn appends, torn tails, compaction crashes.

The satellite regressions live here: a torn final JSONL line on *every*
shard must be tolerated (truncate-and-warn, never raise), a compaction
killed midway must lose no entries, and a flush that fails half-way (ENOSPC)
rolls its bytes back so memory, disk and the next append stay consistent.
"""

import errno
import os

import pytest

from repro.faults import FaultPlan, FaultSpec, InjectedCrash, inject
from repro.serving.fingerprint import EMBEDDING_SIZE
from repro.serving.registry import RegistryEntry, ScheduleRegistry


def _entry(idx, latency, target="sim-cpu"):
    return RegistryEntry(
        fingerprint=f"wl-{idx:02d}",
        target=target,
        workload=f"workload_{idx}",
        latency=float(latency),
        throughput=1.0 / float(latency),
        trials=8,
        scheduler="harl",
        schedule={"stub": idx},
        embedding=(float(idx), 1.0) + (0.0,) * (EMBEDDING_SIZE - 2),
        source="test",
    )


def _best_map(registry):
    return {e.key: e.latency for e in registry.entries()}


class TestTornAppendRecovery:
    def test_torn_append_loses_no_best(self, tmp_path):
        entries = [_entry(i, 1.0 + i / 7) for i in range(8)]
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=4)
        plan = FaultPlan.single("registry.append", "torn_write", at=4, seed=0)
        with inject(plan):
            with pytest.raises(InjectedCrash):
                for entry in entries:
                    registry.record(entry)
        assert plan.fired, "fault never fired — the append hook regressed"

        with pytest.warns(UserWarning, match="torn"):
            recovered = ScheduleRegistry(root, num_shards=4)
        assert recovered.truncated_tails == 1
        for entry in entries:  # the client retries everything unacknowledged
            recovered.record(entry)
        recovered.close()

        final = ScheduleRegistry(root, num_shards=4, strict=True)
        assert _best_map(final) == {e.key: e.latency for e in entries}

    def test_crash_without_torn_bytes_also_recovers(self, tmp_path):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=2)
        plan = FaultPlan.single("registry.append", "crash", at=2, seed=0)
        with inject(plan):
            with pytest.raises(InjectedCrash):
                for i in range(5):
                    registry.record(_entry(i, 1.0 + i))
        # No partial bytes were written, so the reload is warning-free.
        recovered = ScheduleRegistry(root, num_shards=2, strict=True)
        assert recovered.truncated_tails == 0
        assert len(recovered.entries()) == 2


class TestTornTailOnEveryShard:
    """Satellite regression: loading tolerates a torn final line per shard."""

    @pytest.mark.parametrize("strict", [False, True])
    def test_truncate_and_warn_instead_of_raising(self, tmp_path, strict):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=4)
        for i in range(12):
            registry.record(_entry(i, 2.0 - i / 20))
        registry.close()

        shards = sorted(root.glob("shard-*.jsonl"))
        torn = 0
        for shard in shards:
            lines = shard.read_text().splitlines()
            if not lines:
                continue
            head = "".join(line + "\n" for line in lines[:-1])
            shard.write_text(head + lines[-1][: max(1, len(lines[-1]) // 2)])
            torn += 1
        assert torn >= 2, "need several populated shards for this to mean anything"

        with pytest.warns(UserWarning, match="torn"):
            recovered = ScheduleRegistry(root, num_shards=4, strict=strict)
        assert recovered.truncated_tails == torn
        # Every shard ends on a line boundary again.
        for shard in sorted(root.glob("shard-*.jsonl")):
            raw = shard.read_bytes()
            assert not raw or raw.endswith(b"\n")

    def test_appending_after_repair_does_not_concatenate(self, tmp_path):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=1)
        registry.record(_entry(0, 2.0))
        registry.record(_entry(1, 2.0))
        registry.close()

        shard = next(root.glob("shard-*.jsonl"))
        text = shard.read_text()
        shard.write_text(text[: len(text) - 10])  # tear the final line

        with pytest.warns(UserWarning, match="torn"):
            recovered = ScheduleRegistry(root, num_shards=1)
        recovered.record(_entry(1, 2.0))  # the retry of the torn append
        recovered.close()

        final = ScheduleRegistry(root, num_shards=1, strict=True)
        assert final.skipped_lines == 0  # nothing concatenated, nothing garbled
        assert _best_map(final) == {
            ("wl-00", "sim-cpu"): 2.0,
            ("wl-01", "sim-cpu"): 2.0,
        }

    def test_complete_final_line_without_newline_is_kept(self, tmp_path):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=1)
        registry.record(_entry(0, 1.5))
        registry.close()

        shard = next(root.glob("shard-*.jsonl"))
        shard.write_bytes(shard.read_bytes().rstrip(b"\n"))  # newline lost, data whole

        recovered = ScheduleRegistry(root, num_shards=1, strict=True)
        assert recovered.truncated_tails == 0
        assert _best_map(recovered) == {("wl-00", "sim-cpu"): 1.5}


class TestCompactionCrashSafety:
    """Satellite regression: killing compaction midway loses no entries."""

    def _populated(self, root, num_shards=2):
        registry = ScheduleRegistry(root, num_shards=num_shards)
        for i in range(6):
            registry.record(_entry(i, 2.0))
            registry.record(_entry(i, 1.0 + i / 100))
        registry.close()
        return ScheduleRegistry(root, num_shards=num_shards)

    @pytest.mark.parametrize("where", ["mid_write", "before_replace"])
    def test_killed_compaction_loses_nothing(self, tmp_path, where):
        root = tmp_path / "reg"
        victim = self._populated(root)
        expected = _best_map(victim)

        plan = FaultPlan.single(
            "registry.compact",
            "torn_write" if where == "mid_write" else "crash",
            match=where,
            seed=1,
        )
        with inject(plan):
            with pytest.raises(InjectedCrash):
                victim.compact()
        assert plan.fired

        recovered = ScheduleRegistry(root, num_shards=2)
        assert _best_map(recovered) == expected
        assert not list(root.glob("*.tmp"))
        recovered.compact()
        recovered.close()
        assert _best_map(ScheduleRegistry(root, num_shards=2, strict=True)) == expected

    def test_orphan_tmp_cleanup_is_counted(self, tmp_path):
        root = tmp_path / "reg"
        victim = self._populated(root)
        plan = FaultPlan.single(
            "registry.compact", "torn_write", match="mid_write", seed=0
        )
        with inject(plan):
            with pytest.raises(InjectedCrash):
                victim.compact()
        assert list(root.glob("shard-*.jsonl.tmp")), "crash left no orphan to clean"

        recovered = ScheduleRegistry(root, num_shards=2)
        assert recovered.removed_orphans >= 1
        assert recovered.stats()["removed_orphans"] >= 1

    def test_compact_twice_is_idempotent(self, tmp_path):
        root = tmp_path / "reg"
        registry = self._populated(root)
        assert registry.compact() >= 1
        registry.close()
        snapshot = {f.name: f.read_bytes() for f in sorted(root.glob("shard-*.jsonl"))}

        again = ScheduleRegistry(root, num_shards=2)
        assert again.compact() == 0
        again.close()
        assert snapshot == {
            f.name: f.read_bytes() for f in sorted(root.glob("shard-*.jsonl"))
        }


class _FullDisk:
    """A shard handle whose next write lands half its bytes, then raises ENOSPC."""

    def __init__(self, fh):
        self._fh = fh
        self.armed = True

    def write(self, data):
        if self.armed:
            self.armed = False
            self._fh.write(data[: len(data) // 2])
            self._fh.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestFailedFlushRollback:
    """A shard flush that fails half-way must not corrupt memory or the next line."""

    def test_failed_flush_keeps_memory_and_disk_agreeing(self, tmp_path):
        root = tmp_path / "reg"
        registry = ScheduleRegistry(root, num_shards=1)
        registry.record(_entry(1, 2.0))
        registry._handles[0] = _FullDisk(registry._handles[0])
        with pytest.raises(OSError):
            registry.record(_entry(1, 1.0))
        # The failed entry was never committed: memory still serves the old best.
        assert registry.lookup("wl-01", "sim-cpu", k=0).entry.latency == 2.0

        # The next good entry lands on a clean line and survives a reload.
        registry.record(_entry(2, 3.0))
        registry.close()
        reloaded = ScheduleRegistry(root, num_shards=1, strict=True)
        assert _best_map(reloaded) == {("wl-01", "sim-cpu"): 2.0, ("wl-02", "sim-cpu"): 3.0}
        assert reloaded.skipped_lines == 0
