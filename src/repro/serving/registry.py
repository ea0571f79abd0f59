"""Persistent, sharded best-schedule registry.

The registry is the shared database layer of the serving subsystem: it maps
``(structural fingerprint, hardware target)`` to the best-known schedule of
that workload plus provenance, so tuning work done anywhere — benchmark runs,
CLI sessions, the multi-tenant tuning service — accumulates into one reusable
knowledge base.

Storage model
-------------
Entries live in ``num_shards`` append-only JSONL shard files under one
directory, sharded by fingerprint prefix so concurrent writers on different
workloads rarely touch the same file.  Appends are single ``write`` +
``flush`` calls of one line, the same crash-tolerant discipline as
:class:`~repro.records.RecordStore`; corrupted lines are skipped (and
counted) at load time.  An improvement to a key appends a new line rather
than rewriting the shard, so files grow monotonically until
:meth:`ScheduleRegistry.compact` rewrites each shard with only the current
best entry per key (atomically, via temp file + ``os.replace``).

Shard format v2 (``repro-shard/2``) adds a per-shard *index sidecar*
(``shard-NN.idx.json``) next to each data file: byte offset + length, key,
latency and embedding of the best line per key, plus the line counters and a
CRC of the data-file prefix.  A registry directory with a matching
``registry.json`` manifest loads *lazily*: construction touches no shard, an
exact :meth:`lookup` indexes only the one shard its key hashes to (one small
sidecar parse), and entry bodies are materialised on demand with a single
``seek`` + ``read`` through an LRU cache of open shard handles.  Sidecars
are advisory: a stale or missing one (crash between data replace and sidecar
write, a shard torn-tail repair, a v1 directory) falls back to scanning the
data file, and lines appended after the sidecar was written are absorbed by
scanning only the tail beyond ``data_bytes``.  v1 directories (no manifest)
are read transparently — every file is scanned eagerly on first access —
and upgraded to v2 by :meth:`compact` (or on :meth:`close` after writes).

Reuse model
-----------
:meth:`lookup` is the single query entry point: it answers the exact
structural hit, the ``k`` nearest same-target neighbours and (on request)
ranked cross-target transfer candidates in one :class:`LookupResult`.
Nearest-neighbour scoring keeps a contiguous per-target NumPy matrix of the
stored workload embeddings and ranks all candidates in one vectorised pass
(the per-entry reference loops live in ``benchmarks/perf/oracles.py``, where
the equivalence tests and the perf harness compare against them).  Every
stored embedding is empty or exactly ``EMBEDDING_SIZE`` long: entries are
validated where they enter the index (shard scans, imports, sidecars,
:meth:`~ScheduleRegistry.record`).
:meth:`warm_start_schedules` packages lookup results into ready-to-measure
:class:`~repro.tensor.schedule.Schedule` objects (tile sizes are re-fitted
to the new extents when the relative's shape differs).

When a target has no registered entries yet, the transfer search falls back
*across* targets: donors are ranked by the sum of workload embedding
distance and hardware :func:`~repro.hardware.catalog.target_distance`
(so a close cousin device with the exact workload beats a remote device, and
same-kind donors always beat cross-kind ones), and the borrowed schedule is
re-fitted to the destination device — tiling depths, innermost tile sizes
rounded to the destination ``vector_width``, register/L1 working set shrunk
to its cache capacities, and the unroll depth mapped onto the destination's
candidate list.  Results recorded after a cross-target warm start carry the
donor target in their provenance (``RegistryEntry.donor_target``).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.caching import MemoCache, cached_sketches
from repro.faults.plan import poll as poll_fault
from repro.hardware.catalog import default_catalog, target_distance
from repro.jsonl import append_line, repair_torn_tail
from repro.hardware.target import HardwareTarget
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span as obs_span
from repro.serving.fingerprint import (
    EMBEDDING_SIZE,
    structural_fingerprint,
    workload_embedding,
)
from repro.tensor.dag import DTYPE_BYTES, ComputeDAG
from repro.tensor.factors import prime_factors, product
from repro.tensor.schedule import Schedule

__all__ = [
    "LookupResult",
    "RegistryEntry",
    "ScheduleRegistry",
    "TransferCandidate",
]

#: Version tag of the per-shard index sidecar (``shard-NN.idx.json``).
SHARD_INDEX_FORMAT = "repro-shard/2"
#: Version tag of the registry-level layout manifest (``registry.json``).
REGISTRY_MANIFEST_FORMAT = "repro-registry/2"

#: How many leading bytes of a data file its sidecar checksums.  Enough to
#: catch a shard rewritten in place (compaction under a different mapping),
#: cheap enough to verify on every lazy load.
_PREFIX_CRC_CAP = 64 * 1024

_LOOKUPS = counter("registry.lookups", "Exact (fingerprint, target) lookups")
_HITS = counter("registry.hits", "Exact lookups answered from the best map")
_MISSES = counter("registry.misses", "Exact lookups with no stored entry")
_TRANSFER_LOOKUPS = counter("registry.transfer_lookups", "Warm-start transfer searches")
_TRANSFER_CANDIDATES = counter(
    "registry.transfer_candidates", "Warm-start candidates produced"
)
_SHARD_OPENS = counter("registry.shard_opens", "Shard files opened for indexed reads")
_INDEX_HITS = counter(
    "registry.index_hits", "Entries materialised via a shard-index seek"
)
_INDEX_LOADS = counter("registry.index_loads", "Shard indexes ingested from sidecars")
_SHARD_LOAD = histogram("registry.shard_load_seconds", help="Per-shard JSONL scan time")
_INDEX_LOAD = histogram(
    "registry.index_load_seconds", help="Per-shard index load (sidecar or scan) time"
)
_APPEND = histogram("registry.append_seconds", help="Single-entry shard append time")
_COMPACT = histogram("registry.compact_seconds", help="Full registry compaction time")


def _checked_embedding(embedding: Sequence[float]) -> Tuple[float, ...]:
    """``embedding`` as a float tuple; raises unless empty or EMBEDDING_SIZE long."""
    out = tuple(float(v) for v in embedding)
    if len(out) not in (0, EMBEDDING_SIZE):
        raise ValueError(
            f"embedding has {len(out)} values, expected 0 or {EMBEDDING_SIZE}"
        )
    return out


@dataclass(frozen=True)
class RegistryEntry:
    """Best-known schedule of one (workload fingerprint, target) pair.

    ``schedule`` is the structural serialisation produced by
    :func:`~repro.records.schedule_to_dict`; ``source`` records provenance
    (which runner / service tenant / import produced the entry) and
    ``donor_target`` names the target(s) whose registered schedules
    warm-started the run that produced this entry (empty for cold runs).
    """

    fingerprint: str
    target: str
    workload: str
    latency: float
    throughput: float
    trials: int
    scheduler: str
    schedule: Optional[dict]
    embedding: Tuple[float, ...] = ()
    source: str = ""
    donor_target: str = ""

    @property
    def key(self) -> Tuple[str, str]:
        return (self.fingerprint, self.target)

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "target": self.target,
            "workload": self.workload,
            "latency": self.latency,
            "throughput": self.throughput,
            "trials": self.trials,
            "scheduler": self.scheduler,
            "schedule": self.schedule,
            "embedding": list(self.embedding),
            "source": self.source,
            "donor_target": self.donor_target,
        }

    @staticmethod
    def from_dict(data: dict) -> "RegistryEntry":
        return RegistryEntry(
            fingerprint=data["fingerprint"],
            target=data["target"],
            workload=data["workload"],
            latency=float(data["latency"]),
            throughput=float(data["throughput"]),
            trials=int(data.get("trials", 0)),
            scheduler=data.get("scheduler", ""),
            schedule=data.get("schedule"),
            embedding=_checked_embedding(data.get("embedding", ())),
            source=data.get("source", ""),
            donor_target=data.get("donor_target", ""),
        )


@dataclass(frozen=True)
class TransferCandidate:
    """One warm-start schedule plus its provenance.

    ``donor`` is the registry entry the schedule was borrowed from;
    ``cross_target`` marks candidates transferred from a *different* hardware
    target (with ``target_distance`` the embedding distance between donor and
    destination device — 0.0 for same-target transfers).
    """

    schedule: Schedule
    donor: RegistryEntry
    target_distance: float = 0.0
    cross_target: bool = False


@dataclass(frozen=True)
class LookupResult:
    """Everything one registry query can answer, in one return type.

    ``entry`` is the exact ``(fingerprint, target)`` hit (or ``None``);
    ``neighbors`` are the ranked same-target relatives as
    ``(embedding distance, entry)`` pairs; ``transfers`` are the ranked
    cross-target donors as ``(target distance, entry)`` pairs.  ``source``
    tags where the best answer came from: ``"exact"``, ``"neighbor"``,
    ``"transfer"`` or ``"miss"``.
    """

    fingerprint: str
    target: str
    entry: Optional[RegistryEntry]
    neighbors: Tuple[Tuple[float, RegistryEntry], ...] = ()
    transfers: Tuple[Tuple[float, RegistryEntry], ...] = ()
    source: str = "miss"

    @property
    def best(self) -> Optional[RegistryEntry]:
        """The single best answer across exact / neighbor / transfer tiers."""
        if self.entry is not None:
            return self.entry
        if self.neighbors:
            return self.neighbors[0][1]
        if self.transfers:
            return self.transfers[0][1]
        return None

    @property
    def provenance(self) -> str:
        """``source`` string of the winning entry (empty on a miss)."""
        best = self.best
        return best.source if best is not None else ""

    def __bool__(self) -> bool:
        return self.source != "miss"


def _reshape_reference(reference: Sequence[int], levels: int) -> List[int]:
    """Re-shape a donor tile-size list to a new tiling depth.

    Innermost (vector / register) tiles carry the transferable structure, so
    surplus *outer* levels are folded together and missing outer levels are
    padded with 1 — the innermost entries always survive verbatim.
    """
    ref = [max(int(v), 1) for v in reference]
    if len(ref) > levels:
        keep = levels - 1
        ref = [product(ref[: len(ref) - keep])] + ref[len(ref) - keep:]
    elif len(ref) < levels:
        ref = [1] * (levels - len(ref)) + ref
    return ref


def _fit_tile_sizes(extent: int, levels: int, reference: Sequence[int]) -> List[int]:
    """Re-fit a reference tile-size list to a new extent.

    Distributes the prime factors of ``extent`` (largest first) over
    ``levels`` slots, greedily assigning each factor to the slot furthest
    below its reference size, so the shape of the borrowed tiling is
    preserved as closely as the new extent's factorisation allows.  The
    result always multiplies to ``extent`` exactly.
    """
    reference = list(reference) + [1] * (levels - len(reference))
    sizes = [1] * levels
    for p in sorted(prime_factors(extent), reverse=True):
        ratios = [reference[i] / sizes[i] for i in range(levels)]
        slot = max(range(levels), key=lambda i: (ratios[i], i))
        sizes[slot] *= p
    assert product(sizes) == extent
    return sizes


class _IndexEntry:
    """Light in-memory index record of one key's best on-disk line.

    Holds everything queries rank on (latency, embedding, has-schedule)
    without the parsed entry body; the body is materialised on demand by a
    ``seek``/``read`` at ``(path, offset, length)``.  ``offset < 0`` marks an
    entry that lives only in memory (in-memory registries).
    """

    __slots__ = (
        "fingerprint",
        "target",
        "latency",
        "has_schedule",
        "embedding",
        "path",
        "offset",
        "length",
    )

    def __init__(
        self,
        fingerprint: str,
        target: str,
        latency: float,
        has_schedule: bool,
        embedding: Tuple[float, ...],
        path: Optional[Path] = None,
        offset: int = -1,
        length: int = 0,
    ):
        self.fingerprint = fingerprint
        self.target = target
        self.latency = latency
        self.has_schedule = has_schedule
        self.embedding = embedding
        self.path = path
        self.offset = offset
        self.length = length

    @property
    def key(self) -> Tuple[str, str]:
        return (self.fingerprint, self.target)


class _FileState:
    """Per shard-file bookkeeping: what has been indexed and how far."""

    __slots__ = ("indexed", "data_bytes", "total_lines", "skipped_lines", "dirty")

    def __init__(self) -> None:
        self.indexed = False
        self.data_bytes = 0
        self.total_lines = 0
        self.skipped_lines = 0
        #: the in-memory index is ahead of the on-disk sidecar
        self.dirty = False


def _smallest_rows(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` smallest ``values``, ordered by (value, index).

    Matrix rows are sorted by fingerprint, so the index is the fingerprint
    tie-break.  Every value tied with the ``count``-th smallest stays a
    candidate until the final sort, so a tie straddling the cut keeps the
    smallest fingerprints.
    """
    if count < values.size:
        kth = np.partition(values, count - 1)[count - 1]
        cand = np.nonzero(values <= kth)[0]
    else:
        cand = np.arange(values.size)
    return cand[np.lexsort((cand, values[cand]))][:count]


#: One ranked transfer donor: (score, fingerprint, target name, target
#: distance, index key).
_DonorScore = Tuple[float, str, str, float, Tuple[str, str]]


class _TargetMatrix:
    """Contiguous embedding matrix of one target's index entries.

    Rows are sorted by fingerprint so a stable row order doubles as the
    distance tie-break; ``extras`` holds entries without embeddings (they
    only ever match by exact fingerprint).  Every row's embedding is
    ``EMBEDDING_SIZE`` long (validated where entries enter the index).
    """

    __slots__ = (
        "rows",
        "extras",
        "keys",
        "fingerprints",
        "embeddings",
        "sched_mask",
        "row_of",
    )

    def __init__(self, entries: Iterable[_IndexEntry]):
        pool = list(entries)
        self.rows = sorted(
            (ie for ie in pool if ie.embedding), key=lambda ie: ie.fingerprint
        )
        self.extras = [ie for ie in pool if not ie.embedding]
        self.keys = [ie.key for ie in self.rows]
        self.fingerprints = [ie.fingerprint for ie in self.rows]
        self.embeddings = np.array(
            [ie.embedding for ie in self.rows], dtype=np.float64
        ).reshape(len(self.rows), EMBEDDING_SIZE)
        self.sched_mask = np.fromiter(
            (ie.has_schedule for ie in self.rows), dtype=bool, count=len(self.rows)
        )
        self.row_of = {fp: i for i, fp in enumerate(self.fingerprints)}


class ScheduleRegistry:
    """Sharded persistent map (fingerprint, target) → best schedule.

    Parameters
    ----------
    root:
        Directory holding the shard files (created on first write).  ``None``
        keeps the registry purely in memory.
    num_shards:
        Number of JSONL shard files; the shard of an entry is derived from
        its fingerprint prefix, so the mapping is stable across processes.
    strict:
        When true, corrupted lines raise at load time instead of being
        skipped and counted in :attr:`skipped_lines`.  Strict registries
        index every shard eagerly at construction (validation implies
        reading everything anyway).
    max_open_shards:
        Capacity of the LRU cache of open read handles used to materialise
        entries through the shard index.

    Thread safety
    -------------
    One re-entrant mutex guards the index, the best-entry cache, the shard
    handles and the line counters, so :meth:`record` is atomic per entry
    (absorb + append commit together) and concurrent writers — racing
    service drivers, the network front end's worker threads — can never
    interleave shard writes or lose a best-entry update.  Query methods
    operate under the same lock; the lock is re-entrant so
    :meth:`merge`/:meth:`import_file` can call :meth:`record` while holding
    it.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        num_shards: int = 16,
        strict: bool = False,
        max_open_shards: int = 64,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.root = Path(root) if root is not None else None
        self.num_shards = int(num_shards)
        self.strict = bool(strict)
        self._mutex = threading.RLock()
        self.skipped_lines = 0  # guarded-by: _mutex
        self.total_lines = 0  # guarded-by: _mutex
        self.truncated_tails = 0
        self.removed_orphans = 0
        #: authoritative light index: key → best on-disk line
        self._index: Dict[Tuple[str, str], _IndexEntry] = {}  # guarded-by: _mutex
        #: materialised-entry cache over ``_index`` (filled on demand)
        self._best: Dict[Tuple[str, str], RegistryEntry] = {}  # guarded-by: _mutex
        self._files: Dict[Path, _FileState] = {}  # guarded-by: _mutex
        self._targets: set = set()  # guarded-by: _mutex
        self._matrices: Dict[str, _TargetMatrix] = {}  # guarded-by: _mutex
        self._all_indexed = False  # guarded-by: _mutex
        self._native = True  # guarded-by: _mutex
        self._manifest_ok = False  # guarded-by: _mutex
        self._handles: Dict[int, IO[bytes]] = {}  # guarded-by: _mutex
        #: LRU of open read handles; eviction closes the file
        self._read_handles = MemoCache(  # guarded-by: _mutex
            "registry.shard_handles",
            maxsize=max(int(max_open_shards), 1),
            on_evict=lambda fh: fh.close(),
        )
        if self.root is not None and self.root.exists():
            self.removed_orphans = self._remove_orphan_tmps()
            # Torn-tail repair stays eager (it is O(final line) per file):
            # re-opened shards must never append onto a partial line, and
            # crash-recovery counters must be correct at construction.
            for path in sorted(self.root.glob("shard-*.jsonl")):
                if repair_torn_tail(path, label="registry shard"):
                    self.truncated_tails += 1
            self._native, self._manifest_ok = self._detect_layout()
            if self.strict:
                with self._mutex:
                    self._ensure_all_indexed_locked()
        else:
            self._all_indexed = True

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #
    def _shard_of(self, fingerprint: str) -> int:
        # crc32 keeps the shard mapping stable across processes and total
        # over arbitrary (e.g. imported) fingerprint strings.
        return zlib.crc32(fingerprint.encode("utf-8")) % self.num_shards

    def _shard_path(self, shard: int) -> Path:
        assert self.root is not None
        return self.root / f"shard-{shard:02d}.jsonl"

    @staticmethod
    def _sidecar_path(path: Path) -> Path:
        # shard-NN.jsonl → shard-NN.idx.json: the sidecar describes the data
        # *file*, so the name derives from the filename, not the shard map.
        return path.with_name(path.name[: -len(".jsonl")] + ".idx.json")

    def _manifest_path(self) -> Path:
        assert self.root is not None
        return self.root / "registry.json"

    def _detect_layout(self) -> Tuple[bool, bool]:
        """``(native, manifest_ok)`` for the on-disk directory.

        *Native* means every data file is ``shard-i.jsonl`` for ``i`` under
        the current ``num_shards`` **and** the manifest agrees on the shard
        count, so the fingerprint→file mapping holds and shards may load
        lazily.  Anything else (a v1 directory, a different shard count, a
        half-migrated layout) is foreign: correctness first — every file is
        scanned eagerly on first access, exactly like the v1 reader.
        """
        assert self.root is not None
        data_paths = sorted(self.root.glob("shard-*.jsonl"))
        if not data_paths:
            return True, False
        try:
            manifest = json.loads(self._manifest_path().read_text(encoding="utf-8"))
        except (FileNotFoundError, OSError, json.JSONDecodeError, UnicodeDecodeError):
            return False, False
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != REGISTRY_MANIFEST_FORMAT
        ):
            return False, False
        try:
            if int(manifest["num_shards"]) != self.num_shards:
                return False, False
        except (KeyError, TypeError, ValueError):
            return False, False
        for path in data_paths:
            try:
                shard = int(path.name[len("shard-"): -len(".jsonl")])
            except ValueError:
                return False, False
            if not 0 <= shard < self.num_shards:
                return False, False
        return True, True

    def _write_manifest_locked(self) -> None:
        manifest = self._manifest_path()
        tmp = manifest.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(
                {"format": REGISTRY_MANIFEST_FORMAT, "num_shards": self.num_shards}
            ),
            encoding="utf-8",
        )
        os.replace(tmp, manifest)
        self._manifest_ok = True

    def _remove_orphan_tmps(self) -> int:
        """Delete half-written temp files left behind by a crash.

        A compaction (or sidecar/manifest write) killed before its atomic
        ``os.replace`` leaves a ``*.tmp`` next to the intact file; a crash
        between a data-file unlink and its sidecar unlink leaves a sidecar
        with no data file.  Neither holds anything the surviving files do
        not, so dropping them is the whole recovery — but they must be
        dropped, or crashed maintenance accumulates garbage files forever.
        """
        assert self.root is not None
        removed = 0
        for pattern in ("shard-*.jsonl.tmp", "shard-*.idx.json.tmp", "registry.json.tmp"):
            for tmp in self.root.glob(pattern):
                tmp.unlink()
                removed += 1
        for sidecar in self.root.glob("shard-*.idx.json"):
            data = sidecar.with_name(sidecar.name[: -len(".idx.json")] + ".jsonl")
            if not data.exists():
                sidecar.unlink()
                removed += 1
        return removed

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #
    def _ensure_key_indexed_locked(self, fingerprint: str) -> None:
        """Index exactly the shard ``fingerprint`` hashes to (lazy path)."""
        if self._all_indexed or self.root is None:
            return
        if not self._native:
            self._ensure_all_indexed_locked()
            return
        self._ensure_shard_indexed_locked(self._shard_of(fingerprint))

    def _ensure_shard_indexed_locked(self, shard: int) -> None:
        path = self._shard_path(shard)
        state = self._files.get(path)
        if state is not None and state.indexed:
            return
        if not path.exists():
            state = _FileState()
            state.indexed = True
            self._files[path] = state
            return
        self._index_file_locked(path)

    def _ensure_all_indexed_locked(self) -> None:
        if self._all_indexed:
            return
        if self.root is None or not self.root.exists():
            self._all_indexed = True
            return
        if self._native:
            for shard in range(self.num_shards):
                self._ensure_shard_indexed_locked(shard)
        else:
            # Glob rather than range(num_shards): a registry written with a
            # different shard count must still load every entry.
            for path in sorted(self.root.glob("shard-*.jsonl")):
                state = self._files.get(path)
                if state is None or not state.indexed:
                    self._index_file_locked(path)
        self._all_indexed = True

    def _index_file_locked(self, path: Path) -> None:
        began = time.perf_counter()
        state = self._files.get(path)
        if state is None:
            state = _FileState()
        if not self._load_sidecar_locked(path, state):
            scan_began = time.perf_counter()
            data = path.read_bytes()
            self._scan_lines_locked(path, state, data, base_offset=0, lineno_base=0)
            state.data_bytes = len(data)
            if self._native:
                # a scanned native shard is upgrade-eligible: close() will
                # write its sidecar so the next open loads lazily.
                state.dirty = True
            _SHARD_LOAD.observe(time.perf_counter() - scan_began)
        state.indexed = True
        self._files[path] = state
        _INDEX_LOAD.observe(time.perf_counter() - began)

    def _load_sidecar_locked(self, path: Path, state: _FileState) -> bool:
        """Ingest a v2 sidecar; False → caller must scan the data file.

        The sidecar is only trusted when it provably matches the data file:
        its ``data_bytes`` must not exceed the file, the indexed region must
        end on a line boundary, and the checksummed file prefix must match.
        Lines appended after the sidecar was written (``data_bytes`` …
        end-of-file) are absorbed by scanning just that tail.
        """
        sidecar = self._sidecar_path(path)
        try:
            payload = json.loads(sidecar.read_text(encoding="utf-8"))
        except (FileNotFoundError, OSError, json.JSONDecodeError, UnicodeDecodeError):
            return False
        if not isinstance(payload, dict) or payload.get("format") != SHARD_INDEX_FORMAT:
            return False
        try:
            data_bytes = int(payload["data_bytes"])
            total_lines = int(payload["total_lines"])
            skipped_lines = int(payload["skipped_lines"])
            prefix_len = int(payload["prefix_len"])
            prefix_crc = int(payload["prefix_crc"])
            parsed = [
                _IndexEntry(
                    fingerprint=str(item[0]),
                    target=sys.intern(str(item[1])),
                    latency=float(item[2]),
                    has_schedule=bool(item[5]),
                    embedding=_checked_embedding(item[6]),
                    path=path,
                    offset=int(item[3]),
                    length=int(item[4]),
                )
                for item in payload["entries"]
            ]
        except (IndexError, KeyError, TypeError, ValueError):
            return False
        if data_bytes < 0 or total_lines < 0 or skipped_lines < 0:
            return False
        try:
            with path.open("rb") as fh:
                size = fh.seek(0, os.SEEK_END)
                if data_bytes > size:
                    return False  # file shrank (tail repair): index is stale
                if data_bytes:
                    fh.seek(data_bytes - 1)
                    if fh.read(1) != b"\n":
                        return False  # indexed region no longer line-aligned
                    fh.seek(0)
                    if zlib.crc32(fh.read(min(prefix_len, data_bytes))) != prefix_crc:
                        return False  # file was rewritten under the sidecar
                tail = b""
                if size > data_bytes:
                    fh.seek(data_bytes)
                    tail = fh.read()
        except OSError:
            return False
        for ie in parsed:
            self._absorb_index_locked(ie, None)
        state.data_bytes = data_bytes
        state.total_lines = total_lines
        state.skipped_lines = skipped_lines
        self.total_lines += total_lines
        self.skipped_lines += skipped_lines
        _INDEX_LOADS.inc()
        if tail:
            self._scan_lines_locked(
                path, state, tail, base_offset=data_bytes, lineno_base=total_lines
            )
            state.data_bytes = data_bytes + len(tail)
            state.dirty = True
        return True

    def _scan_lines_locked(
        self,
        path: Path,
        state: _FileState,
        blob: bytes,
        base_offset: int,
        lineno_base: int,
    ) -> None:
        """Parse raw shard bytes into the index, tracking line offsets."""
        pos = base_offset
        for lineno, raw in enumerate(blob.splitlines(keepends=True), start=lineno_base + 1):
            offset = pos
            pos += len(raw)
            text = raw.strip()
            if not text:
                continue
            state.total_lines += 1
            self.total_lines += 1
            try:
                entry = RegistryEntry.from_dict(json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                if self.strict:
                    raise ValueError(
                        f"corrupted registry entry at {path}:{lineno}: {exc}"
                    ) from exc
                state.skipped_lines += 1
                self.skipped_lines += 1
                continue
            self._absorb_index_locked(
                _IndexEntry(
                    fingerprint=entry.fingerprint,
                    target=sys.intern(entry.target),
                    latency=entry.latency,
                    has_schedule=entry.schedule is not None,
                    embedding=entry.embedding,
                    path=path,
                    offset=offset,
                    length=len(raw),
                ),
                None,
            )

    def _improves_locked(self, ie: _IndexEntry) -> bool:
        """Whether ``ie`` beats the indexed best of its key (or creates it)."""
        current = self._index.get(ie.key)
        return not (current is not None and ie.latency >= current.latency)

    def _absorb_index_locked(
        self, ie: _IndexEntry, entry: Optional[RegistryEntry]
    ) -> bool:
        """Fold an index entry into the best map (no disk write).

        ``entry`` carries the already-parsed body when the caller has it
        (a live :meth:`record`); scans pass ``None`` so a million-entry load
        indexes light records only and bodies stay on disk.
        """
        if not self._improves_locked(ie):
            return False
        key = ie.key
        self._index[key] = ie
        self._targets.add(ie.target)
        self._matrices.pop(ie.target, None)
        if entry is not None:
            self._best[key] = entry
        else:
            # drop a stale materialised body; re-read on next lookup
            self._best.pop(key, None)
        return True

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #
    def _open_read_handle(self, path: Path) -> IO[bytes]:
        _SHARD_OPENS.inc()
        return path.open("rb")

    def _read_span_locked(self, path: Path, offset: int, length: int) -> bytes:
        fh = self._read_handles.get_or_create(
            str(path), lambda: self._open_read_handle(path)
        )
        fh.seek(offset)
        return fh.read(length)

    def _materialise_locked(self, key: Tuple[str, str]) -> Optional[RegistryEntry]:
        entry = self._best.get(key)
        if entry is not None:
            return entry
        ie = self._index.get(key)
        if ie is None or ie.path is None or ie.offset < 0:
            return None
        raw = self._read_span_locked(ie.path, ie.offset, ie.length)
        entry = RegistryEntry.from_dict(json.loads(raw))
        self._best[key] = entry
        _INDEX_HITS.inc()
        return entry

    # ------------------------------------------------------------------ #
    # appends
    # ------------------------------------------------------------------ #
    def _append_locked(self, entry: RegistryEntry) -> Optional[Tuple[Path, int, int]]:
        """Durably append ``entry`` to its shard; returns its ``(path, offset, length)``.

        Caller holds _mutex: the get-or-open handle dance and the
        write+flush+count must not interleave with another appender.  A
        failed flush is rolled back by :func:`~repro.jsonl.append_line`
        and raises before anything here is counted.
        """
        if self.root is None:
            return None
        began = time.perf_counter()
        shard = self._shard_of(entry.fingerprint)
        fh = self._handles.get(shard)
        if fh is None:
            self.root.mkdir(parents=True, exist_ok=True)
            if self._native and not self._manifest_ok:
                self._write_manifest_locked()
            fh = self._shard_path(shard).open("ab")
            self._handles[shard] = fh
        line = json.dumps(entry.to_dict()) + "\n"
        data = line.encode("utf-8")

        def fault() -> None:
            fired = poll_fault(
                "registry.append", detail=f"shard-{shard:02d}:{entry.fingerprint}"
            )
            if fired is not None:
                if fired.spec.kind == "torn_write":
                    fh.write(fired.torn_prefix(line).encode("utf-8"))
                    fh.flush()
                fired.crash(f"died appending {entry.fingerprint!r} to shard {shard}")

        offset = append_line(fh, data, fault)
        path = self._shard_path(shard)
        state = self._files.get(path)
        if state is None:
            state = _FileState()
            state.indexed = True
            self._files[path] = state
        state.total_lines += 1
        state.data_bytes = offset + len(data)
        state.dirty = True
        self.total_lines += 1
        _APPEND.observe(time.perf_counter() - began)
        return path, offset, len(data)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(self, entry: RegistryEntry) -> bool:
        """Record an entry; returns True if it improved (or created) its key.

        Only improvements are appended to disk, so shard files hold the
        monotone history of best schedules per key.
        """
        if not entry.fingerprint:
            raise ValueError("registry entries need a non-empty fingerprint")
        _checked_embedding(entry.embedding)
        # Append + absorb must commit together: a second writer slipping in
        # between them could append a worse entry over the unabsorbed best,
        # or absorb an entry the shard never saw.  The key's shard is
        # indexed first so the on-disk best takes part in the comparison.
        with self._mutex:
            self._ensure_key_indexed_locked(entry.fingerprint)
            ie = _IndexEntry(
                fingerprint=entry.fingerprint,
                target=sys.intern(entry.target),
                latency=entry.latency,
                has_schedule=entry.schedule is not None,
                embedding=entry.embedding,
            )
            if not self._improves_locked(ie):
                return False
            # Disk before memory: a failed flush raises with the best map
            # still matching what is durably on disk.
            placed = self._append_locked(entry)
            if placed is not None:
                ie.path, ie.offset, ie.length = placed
            self._absorb_index_locked(ie, entry)
        return True

    def record_result(
        self, dag: ComputeDAG, target, result, source: str = "", donor_target: str = ""
    ) -> bool:
        """Record a :class:`~repro.core.tuner.TuningResult` for a DAG.

        ``target`` is a :class:`~repro.hardware.target.HardwareTarget` (or its
        name).  ``donor_target`` records cross-target transfer provenance:
        the target(s) whose registered schedules warm-started this run.
        Results without a schedule or a finite latency are ignored.
        """
        from repro.records import schedule_to_dict  # local import: records imports us

        if result.best_schedule is None or not (result.best_latency < float("inf")):
            return False
        target_name = target if isinstance(target, str) else target.name
        return self.record(
            RegistryEntry(
                fingerprint=structural_fingerprint(dag),
                target=target_name,
                workload=dag.name,
                latency=float(result.best_latency),
                throughput=float(result.best_throughput),
                trials=int(result.trials_used),
                scheduler=result.scheduler,
                schedule=schedule_to_dict(result.best_schedule),
                embedding=tuple(workload_embedding(dag).tolist()),
                source=source,
                donor_target=donor_target,
            )
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def lookup(
        self,
        dag: Union[ComputeDAG, str],
        target,
        *,
        k: int = 1,
        cross_target: bool = False,
        catalog=None,
    ) -> LookupResult:
        """One-stop registry query: exact hit, neighbours and transfers.

        ``dag`` is a :class:`~repro.tensor.dag.ComputeDAG` or a raw
        fingerprint string (fingerprints answer the exact tier only — there
        is no embedding to rank neighbours with).  ``k`` bounds the ranked
        same-target ``neighbors`` (``k=0`` skips the similarity search: the
        cheapest exact-only probe).  ``cross_target=True`` additionally
        ranks transfer donors from other targets (requires a
        :class:`~repro.hardware.target.HardwareTarget`; donor targets are
        resolved through ``catalog``, default the built-in one).

        The exact tier indexes only the one shard the key hashes to; the
        similarity tiers index everything (they must rank all candidates).
        """
        target_name = target if isinstance(target, str) else target.name
        if isinstance(dag, ComputeDAG):
            fingerprint = structural_fingerprint(dag)
            query_dag: Optional[ComputeDAG] = dag
        else:
            fingerprint = str(dag)
            query_dag = None
        entry = self._lookup_exact(fingerprint, target_name)
        neighbors: Tuple[Tuple[float, RegistryEntry], ...] = ()
        transfers: Tuple[Tuple[float, RegistryEntry], ...] = ()
        if query_dag is not None and k > 0:
            neighbors = tuple(
                self._nearest_impl(query_dag, target_name, k=k, exclude_exact=True)
            )
        if query_dag is not None and cross_target and isinstance(target, HardwareTarget):
            transfers = tuple(
                self._cross_target_impl(query_dag, target, catalog=catalog, k=max(k, 1))
            )
        if entry is not None:
            source = "exact"
        elif neighbors:
            source = "neighbor"
        elif transfers:
            source = "transfer"
        else:
            source = "miss"
        return LookupResult(
            fingerprint=fingerprint,
            target=target_name,
            entry=entry,
            neighbors=neighbors,
            transfers=transfers,
            source=source,
        )

    def _lookup_exact(
        self, fingerprint: str, target_name: str
    ) -> Optional[RegistryEntry]:
        with self._mutex:
            self._ensure_key_indexed_locked(fingerprint)
            entry = self._materialise_locked((fingerprint, target_name))
        _LOOKUPS.inc()
        (_HITS if entry is not None else _MISSES).inc()
        return entry

    def entries(self) -> List[RegistryEntry]:
        """Current best entry of every (fingerprint, target) key.

        Materialises every entry body — a full-store copy.  Maintenance
        (merge / export / compaction checks) wants exactly that; hot query
        paths should go through :meth:`lookup` instead.
        """
        with self._mutex:
            self._ensure_all_indexed_locked()
            return [self._materialise_locked(key) for key in sorted(self._index)]

    def _nearest_impl(
        self, dag: ComputeDAG, target_name: str, k: int, exclude_exact: bool = True
    ) -> List[Tuple[float, RegistryEntry]]:
        if k <= 0:
            return []
        fingerprint = structural_fingerprint(dag)
        query = workload_embedding(dag)
        with self._mutex:
            self._ensure_all_indexed_locked()
            return self._nearest_locked(fingerprint, query, target_name, k, exclude_exact)

    def _nearest_locked(
        self,
        fingerprint: str,
        query: np.ndarray,
        target_name: str,
        k: int,
        exclude_exact: bool,
    ) -> List[Tuple[float, RegistryEntry]]:
        matrix = self._matrix_locked(target_name)
        n = len(matrix.rows)
        if n == 0:
            return []
        diff = matrix.embeddings - np.asarray(query, dtype=np.float64)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        exact_row = matrix.row_of.get(fingerprint) if exclude_exact else None
        over = min(k + (1 if exact_row is not None else 0), n)
        out: List[Tuple[float, RegistryEntry]] = []
        for row in _smallest_rows(dist, over):
            if exact_row is not None and row == exact_row:
                continue
            entry = self._materialise_locked(matrix.keys[row])
            if entry is None:
                continue
            out.append((float(dist[row]), entry))
            if len(out) == k:
                break
        return out

    def _cross_target_impl(
        self,
        dag: ComputeDAG,
        target: HardwareTarget,
        catalog=None,
        k: int = 4,
    ) -> List[Tuple[float, RegistryEntry]]:
        """Donor entries from *other* targets, best transfer prospects first.

        Candidates are ranked by the sum of workload embedding distance
        (0 for the exact fingerprint) and donor↔destination
        :func:`~repro.hardware.catalog.target_distance`, so the exact workload
        on a cousin device outranks a vaguely similar workload on a remote
        one, and the CPU/GPU kind gap keeps same-kind donors first.  Donor
        target names are resolved to embeddings through ``catalog`` (the
        built-in :func:`~repro.hardware.catalog.default_catalog` when
        ``None``); entries on unknown targets are skipped.

        Returns ``(target distance, entry)`` pairs.
        """
        if not isinstance(target, HardwareTarget) or k <= 0:
            return []
        catalog = catalog if catalog is not None else default_catalog()
        fingerprint = structural_fingerprint(dag)
        query = workload_embedding(dag)
        with self._mutex:
            self._ensure_all_indexed_locked()
            return self._cross_target_locked(fingerprint, query, target, catalog, k)

    def _cross_target_locked(
        self,
        fingerprint: str,
        query: np.ndarray,
        target: HardwareTarget,
        catalog,
        k: int,
    ) -> List[Tuple[float, RegistryEntry]]:
        q = np.asarray(query, dtype=np.float64)
        # (score, fingerprint, target, t_dist, key) — sorted on the first
        # three: score, then the fingerprint and target-name tie-breaks.
        scored: List[_DonorScore] = []
        for target_name in sorted(self._targets):
            if target_name == target.name:
                continue
            donor = catalog.get_optional(target_name)
            t_dist = target_distance(target, donor) if donor is not None else -1.0
            if t_dist < 0:
                continue
            scored.extend(
                self._donor_scores_locked(
                    self._matrix_locked(target_name), target_name, fingerprint, q, t_dist, k
                )
            )
        scored.sort(key=lambda item: (item[0], item[1], item[2]))
        out: List[Tuple[float, RegistryEntry]] = []
        for _score, _fp, _tname, t_dist, key in scored[: max(k, 0)]:
            entry = self._materialise_locked(key)
            if entry is not None:
                out.append((t_dist, entry))
        return out

    def _donor_scores_locked(
        self,
        matrix: _TargetMatrix,
        target_name: str,
        fingerprint: str,
        query: np.ndarray,
        t_dist: float,
        k: int,
    ) -> List[_DonorScore]:
        """The ``k`` best-scored scheduled donors of one target, in one pass.

        A donor scores its embedding distance to ``query`` (0 for the exact
        fingerprint) plus ``t_dist``; entries without an embedding only
        transfer on an exact fingerprint match.
        """
        scored: List[_DonorScore] = []
        cand = np.nonzero(matrix.sched_mask)[0]
        if cand.size:
            diff = matrix.embeddings - query
            score = np.sqrt(np.einsum("ij,ij->i", diff, diff)) + t_dist
            row = matrix.row_of.get(fingerprint)
            if row is not None:
                score[row] = t_dist  # exact workload: w_dist == 0
            for r in cand[_smallest_rows(score[cand], k)]:
                scored.append(
                    (float(score[r]), matrix.fingerprints[r], target_name, t_dist, matrix.keys[r])
                )
        for ie in matrix.extras:
            if ie.has_schedule and ie.fingerprint == fingerprint:
                scored.append((t_dist, ie.fingerprint, target_name, t_dist, ie.key))
        return scored

    def _matrix_locked(self, target_name: str) -> _TargetMatrix:
        matrix = self._matrices.get(target_name)
        if matrix is None:
            matrix = _TargetMatrix(
                ie for ie in self._index.values() if ie.target == target_name
            )
            self._matrices[target_name] = matrix
        return matrix

    def stats(self) -> dict:
        """Aggregate registry statistics (entries, shards, stale lines, ...)."""
        shard_files = 0
        index_sidecars = 0
        if self.root is not None and self.root.exists():
            shard_files = len(list(self.root.glob("shard-*.jsonl")))
            index_sidecars = len(list(self.root.glob("shard-*.idx.json")))
        with self._mutex:
            self._ensure_all_indexed_locked()
            return {
                "entries": len(self._index),
                "workloads": len({fp for fp, _t in self._index}),
                "targets": sorted(self._targets),
                "shard_files": shard_files,
                "index_sidecars": index_sidecars,
                "total_lines": self.total_lines,
                "stale_lines": max(
                    self.total_lines - self.skipped_lines - len(self._index), 0
                ),
                "skipped_lines": self.skipped_lines,
                "truncated_tails": self.truncated_tails,
                "removed_orphans": self.removed_orphans,
                "open_read_handles": len(self._read_handles),
            }

    @property
    def indexed_shards(self) -> int:
        """How many shard files have been indexed so far (lazy-load probe)."""
        with self._mutex:
            return sum(1 for state in self._files.values() if state.indexed)

    def __len__(self) -> int:
        with self._mutex:
            self._ensure_all_indexed_locked()
            return len(self._index)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        with self._mutex:
            self._ensure_key_indexed_locked(key[0])
            return key in self._index

    # ------------------------------------------------------------------ #
    # warm starts
    # ------------------------------------------------------------------ #
    def warm_start_transfers(
        self,
        dag: ComputeDAG,
        target,
        max_candidates: int = 4,
        catalog=None,
        cross_target: bool = True,
    ) -> List[TransferCandidate]:
        """Warm-start schedules for a DAG on one target, with provenance.

        An exact structural hit contributes its stored schedule verbatim
        (restored against ``dag``); nearest registered relatives contribute
        schedules whose tile sizes are re-fitted to the new extents.  When the
        destination target still has fewer than ``max_candidates`` donors, the
        lookup falls back across targets and re-fits the borrowed schedules to
        the destination device.  Candidates arrive best-first: exact hit,
        same-target relatives, cross-target donors.
        """
        from repro.records import schedule_from_dict  # records imports us

        _TRANSFER_LOOKUPS.inc()
        target_name = target if isinstance(target, str) else target.name
        out: List[TransferCandidate] = []
        seen: set = set()

        def push(schedule: Schedule, donor: RegistryEntry, t_dist: float, cross: bool) -> None:
            key = schedule.signature()
            if key not in seen:
                seen.add(key)
                out.append(TransferCandidate(schedule, donor, t_dist, cross))

        exact = self._lookup_exact(structural_fingerprint(dag), target_name)
        if exact is not None and exact.schedule is not None:
            try:
                push(
                    schedule_from_dict(exact.schedule, dag, check_workload=False),
                    exact, 0.0, False,
                )
            except (KeyError, TypeError, ValueError):
                # Malformed stored schedule (older format / torn write):
                # skip it, matching the registry's corruption tolerance.
                pass
        for _distance, entry in self._nearest_impl(dag, target_name, k=max_candidates):
            if len(out) >= max_candidates:
                break
            if entry.schedule is None:
                continue
            adapted = self._adapt_schedule(entry.schedule, dag)
            if adapted is not None:
                push(adapted, entry, 0.0, False)
        if cross_target and len(out) < max_candidates and isinstance(target, HardwareTarget):
            remaining = max_candidates - len(out)
            donors: List[Tuple[RegistryEntry, float, List[Schedule]]] = []
            for t_dist, entry in self._cross_target_impl(
                dag, target, catalog=catalog, k=remaining
            ):
                adapted = self._adapt_schedule_to_target(entry.schedule, dag, target)
                if adapted is not None:
                    donors.append(
                        (entry, t_dist, self._target_variants(adapted, remaining))
                    )
            # Round-robin across donors: every donor's straight adaptation is
            # proposed before any donor's ensemble variants, so one donor
            # cannot crowd the others out of the measurement budget.
            level = 0
            while len(out) < max_candidates and any(
                level < len(ensemble) for _e, _d, ensemble in donors
            ):
                for entry, t_dist, ensemble in donors:
                    if level < len(ensemble) and len(out) < max_candidates:
                        push(ensemble[level], entry, t_dist, True)
                level += 1
        out = out[:max_candidates]
        _TRANSFER_CANDIDATES.inc(len(out))
        return out

    def warm_start_schedules(
        self,
        dag: ComputeDAG,
        target,
        max_candidates: int = 4,
        catalog=None,
        cross_target: bool = True,
    ) -> List[Schedule]:
        """Ready-to-measure warm-start schedules (see :meth:`warm_start_transfers`)."""
        return [
            candidate.schedule
            for candidate in self.warm_start_transfers(
                dag, target, max_candidates=max_candidates,
                catalog=catalog, cross_target=cross_target,
            )
        ]

    @staticmethod
    def _adapt_schedule(data: dict, dag: ComputeDAG) -> Optional[Schedule]:
        """Transfer a stored schedule onto a structurally *similar* DAG.

        Regenerates the sketch family of ``dag`` at the stored tiling depths,
        picks the stored sketch rule if it exists, and re-fits every tile-size
        list to the new iterator extents; knob indices are clamped to the new
        valid ranges.  Returns ``None`` when no sketch of ``dag`` matches the
        stored rule (e.g. a fusion sketch borrowed for a fusion-free DAG).
        """
        try:
            sketches = cached_sketches(
                dag,
                spatial_levels=int(data["spatial_levels"]),
                reduction_levels=int(data["reduction_levels"]),
            )
        except (KeyError, TypeError, ValueError):
            return None
        matches = [s for s in sketches if s.key == data.get("sketch_key")]
        if not matches:
            return None
        sketch = matches[0]
        try:
            reference = [list(map(int, sizes)) for sizes in data.get("tile_sizes", [])]
            tile_sizes: List[List[int]] = []
            for idx, (_name, _kind, extent, levels) in enumerate(sketch.tiled_iters):
                ref = reference[idx] if idx < len(reference) else []
                tile_sizes.append(_fit_tile_sizes(int(extent), int(levels), ref))
            n_candidates = len(dag.compute_at_candidates())
            max_parallel = len(dag.main_stage.spatial_iters)
            unroll_depths = tuple(int(d) for d in data.get("unroll_depths", (0,)))
            return Schedule(
                sketch=sketch,
                tile_sizes=tile_sizes,
                compute_at_index=min(int(data.get("compute_at_index", 0)), n_candidates - 1),
                num_parallel=min(int(data.get("num_parallel", 1)), max_parallel),
                unroll_index=min(
                    int(data.get("unroll_index", 0)), len(unroll_depths) - 1
                ),
                unroll_depths=unroll_depths,
            )
        except (KeyError, TypeError, ValueError):
            return None

    @staticmethod
    def _target_variants(schedule: Schedule, limit: int) -> List[Schedule]:
        """Small ensemble of near variants of one transferred schedule.

        Cross-target transfer is uncertain — the donor's optimal unroll depth
        and parallelism rarely survive a change of vector width, cache sizes
        or core count exactly — so the straight adaptation is proposed
        together with its unroll and parallelism neighbours and the
        destination's measurements arbitrate.  The straight adaptation is
        always first.
        """
        out = [schedule]
        for index in range(len(schedule.unroll_depths)):
            if index != schedule.unroll_index:
                variant = schedule.copy()
                variant.unroll_index = index
                out.append(variant)
        if schedule.num_parallel > 1:
            variant = schedule.copy()
            variant.num_parallel = schedule.num_parallel - 1
            out.append(variant)
        if schedule.num_parallel < schedule.max_parallel:
            variant = schedule.copy()
            variant.num_parallel = schedule.num_parallel + 1
            out.append(variant)
        return out[: max(limit, 0)]

    @staticmethod
    def _adapt_schedule_to_target(
        data: dict, dag: ComputeDAG, target: HardwareTarget
    ) -> Optional[Schedule]:
        """Transfer a stored schedule onto a *different* hardware target.

        Unlike :meth:`_adapt_schedule` (same target, similar workload), the
        donor's tiling depths, vector width, cache capacities and unroll
        candidates may all differ from the destination's.  The sketch family
        is regenerated at the destination's tiling depths; each donor
        tile-size list is re-shaped to the new depth (innermost tiles
        preserved), the innermost spatial tile is rounded to a multiple of
        the destination ``vector_width``, the register/L1 working set is
        shrunk until it fits ``l1_bytes``, and the unroll depth is mapped to
        the nearest destination candidate.  Returns ``None`` when no sketch
        of ``dag`` at the destination depths matches the stored rule.
        """
        try:
            sketches = cached_sketches(
                dag,
                spatial_levels=target.sketch_spatial_levels,
                reduction_levels=target.sketch_reduction_levels,
            )
        except (TypeError, ValueError):
            return None
        matches = [s for s in sketches if s.key == data.get("sketch_key")]
        if not matches:
            return None
        sketch = matches[0]
        try:
            reference = [list(map(int, sizes)) for sizes in data.get("tile_sizes", [])]
            refs: List[List[int]] = []
            for idx, (_name, _kind, _extent, levels) in enumerate(sketch.tiled_iters):
                ref = reference[idx] if idx < len(reference) else []
                refs.append(_reshape_reference(ref, levels))

            spatial_idx = [
                i for i, (_n, kind, _e, _l) in enumerate(sketch.tiled_iters)
                if kind == "spatial"
            ]
            reduction_idx = [
                i for i, (_n, kind, _e, _l) in enumerate(sketch.tiled_iters)
                if kind == "reduction"
            ]
            vw = target.vector_width
            if spatial_idx:
                # The innermost spatial tile is the vectorised axis: round the
                # donor's size to a whole number of destination SIMD lanes.
                vec = refs[spatial_idx[-1]]
                vec[-1] = max(vw, vw * max(1, round(vec[-1] / vw)))
            # Shrink the register/L1 tile until it fits the destination cache:
            # the footprint is the innermost spatial tile volume streamed over
            # the innermost reduction tile (cf. the simulator's cache model).
            def l1_footprint() -> float:
                sp = product([refs[i][-1] for i in spatial_idx]) if spatial_idx else 1
                red = product([refs[i][-1] for i in reduction_idx]) if reduction_idx else 1
                return DTYPE_BYTES * sp * max(red, 1)

            while l1_footprint() > target.l1_bytes:
                shrinkable = [
                    i for i in spatial_idx + reduction_idx
                    if refs[i][-1] > (vw if spatial_idx and i == spatial_idx[-1] else 1)
                ]
                if not shrinkable:
                    break
                largest = max(shrinkable, key=lambda i: refs[i][-1])
                value = refs[largest][-1] // 2
                if spatial_idx and largest == spatial_idx[-1]:
                    # The vectorised axis must stay a whole number of lanes.
                    value = max(vw * (value // vw), vw)
                refs[largest][-1] = max(value, 1)

            tile_sizes = [
                _fit_tile_sizes(int(extent), int(levels), refs[idx])
                for idx, (_name, _kind, extent, levels) in enumerate(sketch.tiled_iters)
            ]

            donor_depths = [int(d) for d in data.get("unroll_depths", (0,))] or [0]
            donor_index = min(int(data.get("unroll_index", 0)), len(donor_depths) - 1)
            donor_depth = donor_depths[max(donor_index, 0)]
            depths = target.unroll_depths
            unroll_index = min(
                range(len(depths)), key=lambda i: (abs(depths[i] - donor_depth), i)
            )

            n_candidates = len(dag.compute_at_candidates())
            max_parallel = len(dag.main_stage.spatial_iters)
            return Schedule(
                sketch=sketch,
                tile_sizes=tile_sizes,
                compute_at_index=min(int(data.get("compute_at_index", 0)), n_candidates - 1),
                num_parallel=min(int(data.get("num_parallel", 1)), max_parallel),
                unroll_index=unroll_index,
                unroll_depths=tuple(depths),
            )
        except (KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------ #
    # maintenance: merge / import / export / compact
    # ------------------------------------------------------------------ #
    def merge(self, other: "ScheduleRegistry") -> int:
        """Fold another registry's best entries into this one.

        Returns the number of entries that improved (or created) a key.
        """
        return sum(1 for entry in other.entries() if self.record(entry))

    def export_file(self, path: Union[str, Path]) -> Path:
        """Write the current best entries to one portable JSONL file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        with tmp.open("w", encoding="utf-8") as fh:
            for entry in self.entries():
                fh.write(json.dumps(entry.to_dict()) + "\n")
        os.replace(tmp, path)
        return path

    def import_file(self, path: Union[str, Path], source: str = "") -> int:
        """Import entries from a JSONL export; returns how many improved.

        Corrupted lines follow the registry's ``strict`` policy.  ``source``
        overrides the provenance of imported entries when non-empty.
        """
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"registry export {path} does not exist")
        accepted = 0
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = RegistryEntry.from_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                if self.strict:
                    raise ValueError(
                        f"corrupted registry entry at {path}:{lineno}: {exc}"
                    ) from exc
                with self._mutex:
                    self.skipped_lines += 1
                continue
            if source:
                entry = replace(entry, source=source)
            if self.record(entry):
                accepted += 1
        return accepted

    def compact(self) -> int:
        """Rewrite every shard with only the current best entry per key.

        Streams verbatim line bytes from the old files into the new ones
        (no shard is ever held in memory), replaces each data file
        atomically (temp file + ``os.replace``), then writes fresh v2 index
        sidecars and the layout manifest — so a crash mid-compaction leaves
        either the old or the new shard, never a torn one, and a stale
        sidecar is detected and rescanned on the next open.  Returns the
        number of stale lines removed.
        """
        if self.root is None:
            return 0
        began = time.perf_counter()
        with self._mutex:
            self._ensure_all_indexed_locked()
            with obs_span("registry.compact", entries=len(self._index)) as compact_span:
                removed = self._compact_inner_locked()
                compact_span.annotate(removed=removed)
        _COMPACT.observe(time.perf_counter() - began)
        return removed

    def _entry_line_locked(self, ie: _IndexEntry) -> bytes:
        """The verbatim line bytes of one index entry (newline-terminated)."""
        if ie.path is not None and ie.offset >= 0:
            raw = self._read_span_locked(ie.path, ie.offset, ie.length)
            if not raw.endswith(b"\n"):
                raw += b"\n"
            return raw
        entry = self._best.get(ie.key)
        if entry is None:
            raise RuntimeError(f"registry index entry {ie.key!r} has no backing line")
        return (json.dumps(entry.to_dict()) + "\n").encode("utf-8")

    def _compact_inner_locked(self) -> int:
        # Caller holds _mutex for the whole rewrite, with the index complete.
        self._close_handles_locked(read_handles=False)
        removed = self.total_lines - self.skipped_lines - len(self._index)
        self.root.mkdir(parents=True, exist_ok=True)
        self.removed_orphans += self._remove_orphan_tmps()
        # Drop every existing shard file (including ones written under a
        # different shard count) and stale sidecar after the rewrite.
        stale_data = set(self.root.glob("shard-*.jsonl"))
        stale_sidecars = set(self.root.glob("shard-*.idx.json"))
        by_shard: Dict[int, List[_IndexEntry]] = {}
        for key in sorted(self._index):
            ie = self._index[key]
            by_shard.setdefault(self._shard_of(ie.fingerprint), []).append(ie)
        # Phase A: stream every surviving line into its temp file.  All
        # temps are written before any replace so the source reads above
        # never race the renames.
        plans: List[Tuple[int, Path, Path, List[Tuple[_IndexEntry, int, int]], int]] = []
        for shard, items in sorted(by_shard.items()):
            path = self._shard_path(shard)
            tmp = path.with_suffix(".jsonl.tmp")
            spans: List[Tuple[_IndexEntry, int, int]] = []
            pos = 0
            with tmp.open("wb") as fh:
                for ie in items:
                    raw = self._entry_line_locked(ie)
                    fired = poll_fault(
                        "registry.compact", detail=f"mid_write:shard-{shard:02d}"
                    )
                    if fired is not None:
                        if fired.spec.kind == "torn_write":
                            fh.write(
                                fired.torn_prefix(raw.decode("utf-8")).encode("utf-8")
                            )
                            fh.flush()
                        fired.crash(f"died rewriting shard {shard} mid-compaction")
                    fh.write(raw)
                    spans.append((ie, pos, len(raw)))
                    pos += len(raw)
            plans.append((shard, path, tmp, spans, pos))
        # Phase B: atomic replaces, then fresh sidecars per shard.
        for shard, path, tmp, spans, size in plans:
            fired = poll_fault(
                "registry.compact", detail=f"before_replace:shard-{shard:02d}"
            )
            if fired is not None:
                fired.crash(f"died before atomically replacing shard {shard}")
            os.replace(tmp, path)
            state = _FileState()
            state.indexed = True
            state.data_bytes = size
            state.total_lines = len(spans)
            self._files[path] = state
            for ie, offset, length in spans:
                ie.path = path
                ie.offset = offset
                ie.length = length
            self._write_sidecar_locked(path, state, [ie for ie, _o, _l in spans])
            stale_data.discard(path)
            stale_sidecars.discard(self._sidecar_path(path))
        for path in stale_data:
            path.unlink()
            self._files.pop(path, None)
        for path in stale_sidecars:
            path.unlink()
        self._write_manifest_locked()
        self._native = True
        # Old inodes were replaced: reopen on next read.
        self._read_handles.clear()
        self.total_lines = len(self._index)
        self.skipped_lines = 0
        return max(removed, 0)

    def _write_sidecar_locked(
        self, path: Path, state: _FileState, entries: List[_IndexEntry]
    ) -> None:
        """Atomically (re)write the v2 index sidecar of one data file."""
        prefix_len = min(state.data_bytes, _PREFIX_CRC_CAP)
        try:
            with path.open("rb") as fh:
                prefix_crc = zlib.crc32(fh.read(prefix_len))
        except OSError:
            return
        payload = {
            "format": SHARD_INDEX_FORMAT,
            "data_bytes": state.data_bytes,
            "total_lines": state.total_lines,
            "skipped_lines": state.skipped_lines,
            "prefix_len": prefix_len,
            "prefix_crc": prefix_crc,
            "entries": [
                [
                    ie.fingerprint,
                    ie.target,
                    ie.latency,
                    ie.offset,
                    ie.length,
                    1 if ie.has_schedule else 0,
                    list(ie.embedding),
                ]
                for ie in sorted(entries, key=lambda ie: (ie.fingerprint, ie.target))
            ],
        }
        sidecar = self._sidecar_path(path)
        tmp = sidecar.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, sidecar)
        state.dirty = False

    # ------------------------------------------------------------------ #
    def _close_handles_locked(self, read_handles: bool = True) -> None:
        for fh in self._handles.values():
            fh.close()
        self._handles.clear()
        if read_handles:
            self._read_handles.clear()

    def close(self) -> None:
        """Flush index sidecars for written shards and close all handles.

        Idempotent.  Sidecars are only written for *native* layouts (the
        canonical shard naming under the current shard count) whose index
        moved past the on-disk sidecar — so closing a freshly written or
        appended registry leaves it lazy-loadable, while foreign layouts
        are left untouched for the next eager reader.
        """
        with self._mutex:
            if self.root is not None and self._native:
                by_path: Dict[Path, List[_IndexEntry]] = {}
                for ie in self._index.values():
                    if ie.path is not None and ie.offset >= 0:
                        by_path.setdefault(ie.path, []).append(ie)
                for path, state in self._files.items():
                    if state.indexed and state.dirty and path.exists():
                        self._write_sidecar_locked(path, state, by_path.get(path, []))
            self._close_handles_locked()

    def __enter__(self) -> "ScheduleRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
