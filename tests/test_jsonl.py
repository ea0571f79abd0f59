"""The one JSONL line reader and the three stores that parse through it.

Record-log loading, the registry's shard scan and registry imports treat a
corrupt line alike: a line that is not UTF-8, not a JSON object, or that the
store's parser rejects is skipped and counted, and ``strict`` turns it into
a ``ValueError`` naming ``path:line``.
"""

import json

import pytest

from repro.hardware.measurer import Measurer
from repro.jsonl import read_lines
from repro.records import RecordStore
from repro.serving.fingerprint import structural_fingerprint, workload_embedding
from repro.serving.registry import RegistryEntry, ScheduleRegistry
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.workloads import gemm

#: A line that is not UTF-8 (a lone continuation byte inside a JSON string).
BAD_UTF8 = b'{"kind": "measure", "workload": "\x80"}\n'
#: Valid JSON that is not an object.
NOT_AN_OBJECT = b"[1, 2, 3]\n"


def _entry_line(dag, target_name="cpu", latency=1e-3) -> bytes:
    entry = RegistryEntry(
        fingerprint=structural_fingerprint(dag),
        target=target_name,
        workload=dag.name,
        latency=latency,
        throughput=dag.flops / latency,
        trials=4,
        scheduler="harl",
        schedule=None,
        embedding=tuple(workload_embedding(dag).tolist()),
    )
    return (json.dumps(entry.to_dict()) + "\n").encode("utf-8")


class TestReadLines:
    def test_offsets_lengths_and_blank_lines(self):
        blob = b'{"a": 1}\n\n  \n{"a": 2}\r\n{"a": 3}'
        rows = list(read_lines(blob, lambda d: d["a"], "f.jsonl", "thing"))
        assert [item for _o, _n, item in rows] == [1, 2, 3]
        for offset, length, _item in rows:
            assert blob[offset:offset + length].strip().startswith(b"{")
        assert rows[1][0] == blob.index(b'{"a": 2}')

    def test_base_offset_and_line_numbers_continue(self):
        rows = list(read_lines(b'{"a": 1}\n', lambda d: d["a"], "f", "thing",
                               base_offset=100))
        assert rows == [(100, 9, 1)]
        with pytest.raises(ValueError, match=r"corrupted thing at f:8: "):
            list(read_lines(b"{}\nnope\n", lambda d: d, "f", "thing",
                            strict=True, lineno_base=6))

    @pytest.mark.parametrize(
        "bad", [BAD_UTF8, NOT_AN_OBJECT, b"{torn\n", b'{"b": 1}\n'],
        ids=["not-utf8", "not-an-object", "not-json", "parser-rejects"],
    )
    def test_corrupt_line_is_none_or_strict_error(self, bad):
        blob = b'{"a": 1}\n' + bad + b'{"a": 3}\n'
        items = [item for _o, _n, item in read_lines(blob, lambda d: d["a"], "f", "x")]
        assert items == [1, None, 3]
        with pytest.raises(ValueError, match=r"corrupted x at f:2: "):
            list(read_lines(blob, lambda d: d["a"], "f", "x", strict=True))


class TestRecordStoreLoading:
    def _log(self, path, cpu, gemm_sketch, rng, bad: bytes):
        with RecordStore(path) as store:
            Measurer(cpu, seed=0, record_store=store).measure(
                sample_initial_schedules(gemm_sketch, 2, rng)
            )
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + bad + lines[1])

    @pytest.mark.parametrize("bad", [BAD_UTF8, NOT_AN_OBJECT], ids=["not-utf8", "not-an-object"])
    def test_bad_line_is_skipped_and_counted(self, tmp_path, cpu, gemm_sketch, rng, bad):
        path = tmp_path / "records.jsonl"
        self._log(path, cpu, gemm_sketch, rng, bad)
        store = RecordStore.load(path)
        assert len(store.query(kind="measure")) == 2
        assert store.skipped_lines == 1

    @pytest.mark.parametrize("bad", [BAD_UTF8, NOT_AN_OBJECT], ids=["not-utf8", "not-an-object"])
    def test_strict_names_path_and_line(self, tmp_path, cpu, gemm_sketch, rng, bad):
        path = tmp_path / "records.jsonl"
        self._log(path, cpu, gemm_sketch, rng, bad)
        with pytest.raises(ValueError, match=f"corrupted record at {path}:2: "):
            RecordStore.load(path, strict=True)


class TestRegistryLoading:
    def test_shard_scan_skips_bad_utf8(self, tmp_path):
        root = tmp_path / "registry"
        root.mkdir()
        (root / "shard-00.jsonl").write_bytes(
            _entry_line(gemm(64, 64, 64)) + BAD_UTF8 + _entry_line(gemm(96, 96, 96))
        )
        registry = ScheduleRegistry(root, num_shards=1)
        assert len(registry) == 2
        assert registry.skipped_lines == 1
        with pytest.raises(ValueError, match=r"shard-00\.jsonl:2: "):
            ScheduleRegistry(root, num_shards=1, strict=True)

    def test_import_skips_bad_utf8(self, tmp_path):
        export = tmp_path / "export.jsonl"
        export.write_bytes(
            _entry_line(gemm(64, 64, 64)) + BAD_UTF8 + NOT_AN_OBJECT
            + _entry_line(gemm(96, 96, 96))
        )
        registry = ScheduleRegistry()
        assert registry.import_file(export) == 2
        assert registry.skipped_lines == 2
        with pytest.raises(ValueError, match=f"corrupted registry entry at {export}:2: "):
            ScheduleRegistry(strict=True).import_file(export)
