"""Shared memoisation caches for the tuning hot path.

The inner tuning loop recomputes several pure functions of the workload far
more often than their inputs change: every scheduler job regenerates the
sketch family of its workload, every registry transfer-adaptation call
regenerates it again per candidate, registry hits re-lower stored schedules,
and the structural fingerprint is recomputed on every submit / record /
registry route.  This module centralises those memoisations so the caches —
and their hit/miss counters — are shared across
:mod:`repro.core.scheduler`, :mod:`repro.serving.service`,
:mod:`repro.serving.registry`, :mod:`repro.records` and
:mod:`repro.experiments.network_runner`.

Three caches live here:

* :func:`cached_sketches` — sketch generation, keyed by
  ``(workload name, structural fingerprint, spatial levels, reduction
  levels)``; the tiling depths are a pure function of the hardware target
  (4/2 on CPU, 5/3 on GPU), so the key is effectively *(workload, target)*.
  A hit returns the **identical** sketch-list object, which also shares the
  per-sketch feature/simulator layout caches across all consumers.
* :func:`cached_lowering` — loop-nest pseudo-code rendering, keyed by the
  schedule signature (which embeds the workload name).
* fingerprint counters — :func:`repro.tensor.dag.structural_fingerprint`
  keeps its per-DAG-instance cache (the fastest possible storage) but
  reports hits and misses into :data:`fingerprint_stats`, so redundant
  re-fingerprinting is visible in the same counter report.

All counters are exposed through :func:`cache_stats` and reset with
:func:`reset_cache_stats`; the perf harness (``make perf``) records them in
``BENCH_perf.json`` and regression tests assert that one tuning round
performs zero duplicate lowerings / sketch generations.

The pre-optimisation baseline (uncached lookups, scalar features, simulator,
split search and registry ranking) is not a mode of this package: the perf
harness and the equivalence tests patch it in from
``benchmarks/perf/oracles.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, TypeVar

from repro.obs.metrics import register_collector as _register_collector

__all__ = [
    "CacheStats",
    "MemoCache",
    "sketch_cache",
    "lowering_cache",
    "fingerprint_stats",
    "cached_sketches",
    "cached_sketches_for_target",
    "cached_lowering",
    "cache_stats",
    "reset_cache_stats",
    "clear_caches",
]

T = TypeVar("T")


# --------------------------------------------------------------------- #
# counters
# --------------------------------------------------------------------- #
@dataclass
class CacheStats:
    """Hit/miss counters of one cache (a plain mutable record)."""

    name: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def total(self) -> int:
        """Number of lookups served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.total if self.total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> Dict[str, float]:
        """JSON-safe counter snapshot (recorded into ``BENCH_perf.json``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class MemoCache:
    """A small thread-safe LRU memoisation cache with hit/miss counters.

    ``get_or_create`` is the only lookup API: a hit returns the identical
    stored object (and refreshes its LRU position), a miss invokes the
    factory and stores the result, evicting the least-recently-used entry
    beyond ``maxsize``.

    ``on_evict`` (when given) is called with every value the cache lets go
    of — LRU evictions, ``invalidate``, ``clear``, and the loser of a
    concurrent-create race — which lets the cache manage values that own a
    resource (the registry's open shard handles).
    """

    def __init__(
        self,
        name: str,
        maxsize: int = 1024,
        on_evict: Optional[Callable[[object], None]] = None,
    ):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self.stats = CacheStats(name)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._on_evict = on_evict

    @property
    def name(self) -> str:
        return self.stats.name

    def _dispose(self, value: object) -> None:
        if self._on_evict is not None:
            self._on_evict(value)

    def get_or_create(self, key: Hashable, factory: Callable[[], T]) -> T:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]  # type: ignore[return-value]
        value = factory()  # computed outside the lock: factories may be slow
        evicted: List[object] = []
        with self._lock:
            if key not in self._entries:
                self.stats.misses += 1
                self._entries[key] = value
                while len(self._entries) > self.maxsize:
                    evicted.append(self._entries.popitem(last=False)[1])
                    self.stats.evictions += 1
            else:
                # A concurrent thread won the race; serve its object so hits
                # keep returning one identical instance.  The raced-out value
                # is disposed of — it may own a resource.
                self.stats.hits += 1
                evicted.append(value)
                value = self._entries[key]  # type: ignore[assignment]
        for stale in evicted:  # disposed outside the lock: callbacks may block
            self._dispose(stale)
        return value

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            value = self._entries.pop(key, None)
        if value is not None:
            self._dispose(value)
        return value is not None

    def clear(self) -> None:
        with self._lock:
            dropped = list(self._entries.values())
            self._entries.clear()
        for value in dropped:
            self._dispose(value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


# --------------------------------------------------------------------- #
# the shared caches
# --------------------------------------------------------------------- #
#: Sketch families per (workload name, structural fingerprint, tiling depths).
sketch_cache = MemoCache("sketches", maxsize=512)
#: Lowered loop-nest pseudo-code per schedule signature.
lowering_cache = MemoCache("lowering", maxsize=4096)
#: Counters of :func:`repro.tensor.dag.structural_fingerprint` (the digest
#: itself is cached on the DAG instance; only the bookkeeping lives here).
fingerprint_stats = CacheStats("fingerprint")


def cached_sketches(dag, spatial_levels: int = 4, reduction_levels: int = 2) -> List:
    """Memoised :func:`repro.tensor.sketch.generate_sketches`.

    Keyed by ``(dag.name, structural fingerprint, spatial_levels,
    reduction_levels)``: two DAG objects describing the same workload share
    one sketch family, while a renamed workload or a different tiling depth
    (i.e. a different target kind) always regenerates.  The returned list is
    shared — treat it as immutable.
    """
    from repro.tensor.dag import structural_fingerprint
    from repro.tensor.sketch import generate_sketches

    key = (
        dag.name,
        structural_fingerprint(dag),
        int(spatial_levels),
        int(reduction_levels),
    )
    return sketch_cache.get_or_create(
        key,
        lambda: generate_sketches(
            dag, spatial_levels=spatial_levels, reduction_levels=reduction_levels
        ),
    )


def cached_sketches_for_target(dag, target) -> List:
    """Sketch family of ``dag`` at ``target``'s tiling depths (memoised)."""
    return cached_sketches(
        dag, target.sketch_spatial_levels, target.sketch_reduction_levels
    )


def cached_lowering(schedule) -> str:
    """Memoised :func:`repro.tensor.lowering.lower_schedule`.

    Keyed by the workload's structural fingerprint plus the schedule
    signature, so the same best schedule surfacing repeatedly — registry
    answers, repeated ``finalize`` calls, report rendering — is lowered
    once.  The fingerprint matters: ``Schedule.signature()`` alone keys on
    the display name, and two same-named but structurally different
    workloads (e.g. with and without an epilogue stage) must never share
    lowered program text.
    """
    from repro.tensor.dag import structural_fingerprint
    from repro.tensor.lowering import lower_schedule

    key = (structural_fingerprint(schedule.dag), schedule.signature())
    return lowering_cache.get_or_create(key, lambda: lower_schedule(schedule))


def cache_stats() -> Dict[str, Dict[str, float]]:
    """Snapshot of every shared cache's counters, keyed by cache name."""
    return {
        sketch_cache.name: sketch_cache.stats.snapshot(),
        lowering_cache.name: lowering_cache.stats.snapshot(),
        fingerprint_stats.name: fingerprint_stats.snapshot(),
    }


def _collect_cache_metrics() -> Dict[str, float]:
    """Publish the shared caches' counters into ``repro.obs`` snapshots.

    The counters stay stored in the per-cache :class:`CacheStats` records
    (tests build private ``MemoCache`` instances and expect isolated,
    zero-started counters, so globally named instruments are the wrong
    storage); a registry *collector* re-exposes the three process-wide
    caches under ``cache.<name>.<counter>`` at snapshot time, which makes
    ``cache_stats()`` a thin shim over the same numbers ``repro metrics``
    reports.
    """
    flat: Dict[str, float] = {}
    for name, stats in cache_stats().items():
        for key, value in stats.items():
            flat[f"cache.{name}.{key}"] = value
    return flat


_register_collector("caching", _collect_cache_metrics)


def reset_cache_stats() -> None:
    """Zero all counters (entries stay cached)."""
    sketch_cache.stats.reset()
    lowering_cache.stats.reset()
    fingerprint_stats.reset()


def clear_caches() -> None:
    """Drop all cached entries (counters stay; call ``reset_cache_stats`` too
    for full isolation in tests)."""
    sketch_cache.clear()
    lowering_cache.clear()
