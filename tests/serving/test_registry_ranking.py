"""Vectorised registry ranking agrees with the per-entry oracle loops.

Nearest-neighbour scoring and cross-target donor ranking run on per-target
NumPy embedding matrices; the scalar loops in ``benchmarks/perf/oracles.py``
are the reference.  The store below is built so that distances tie (pairs
of entries share an embedding) and only the fingerprint tie-break decides
the order, and it mixes in the rows the vectorised paths special-case:
entries without a schedule, entries without an embedding, the exact query
fingerprint on the query target and on donor targets.
"""

import pytest

from benchmarks.perf.oracles import reference_hot_path
from repro.hardware.catalog import default_catalog
from repro.serving.fingerprint import structural_fingerprint, workload_embedding
from repro.serving.registry import RegistryEntry, ScheduleRegistry
from repro.tensor.workloads import gemm

CATALOG = default_catalog()
QUERY_TARGET = "xeon-6226r"
DONORS = ("epyc-7543", "graviton3", "xeon-4309y", "rtx-3090")
QUERY = gemm(128, 128, 128)


def _entry(fingerprint, target, embedding, schedule=True):
    return RegistryEntry(
        fingerprint=fingerprint,
        target=target,
        workload=f"wl-{fingerprint}",
        latency=1e-3,
        throughput=1e6,
        trials=4,
        scheduler="harl",
        schedule={"stub": fingerprint} if schedule else None,
        embedding=tuple(embedding),
        source="test",
    )


@pytest.fixture(scope="module")
def registry():
    registry = ScheduleRegistry()
    base = workload_embedding(QUERY)
    exact = structural_fingerprint(QUERY)
    targets = (QUERY_TARGET, *DONORS)
    for i in range(40):
        # fingerprints deliberately out of insertion order; entries 2j and
        # 2j+1 share one embedding, so their distances tie exactly
        fingerprint = f"fp-{(37 * i) % 41:02d}"
        shift = base.copy()
        shift[(i // 2) % len(shift)] += 0.5 * (1 + (i // 2) % 3)
        target = targets[(i // 2) % len(targets)]
        registry.record(_entry(fingerprint, target, shift, schedule=i % 7 != 3))
    for target in targets:
        registry.record(_entry(exact, target, base))
        registry.record(_entry(f"bare-{target}", target, ()))
    registry.record(_entry(exact, "graviton3-shadow", base))  # not in the catalog
    return registry


def _neighbors(result):
    return [(pytest.approx(d, rel=1e-12), e.key) for d, e in result.neighbors]


def _transfers(result):
    return [(t, e.key) for t, e in result.transfers]


@pytest.mark.parametrize("k", [1, 3, 8, 100])
def test_nearest_neighbours_match_reference(registry, k):
    fast = registry.lookup(QUERY, QUERY_TARGET, k=k)
    with reference_hot_path():
        reference = registry.lookup(QUERY, QUERY_TARGET, k=k)
    assert len(fast.neighbors) == min(k, len(reference.neighbors))
    assert _neighbors(reference) == [(d, key) for d, key in _neighbors(fast)]


@pytest.mark.parametrize("k", [1, 3, 8, 100])
def test_cross_target_ranking_matches_reference(registry, k):
    target = CATALOG.get(QUERY_TARGET)
    fast = registry.lookup(QUERY, target, k=k, cross_target=True)
    with reference_hot_path():
        reference = registry.lookup(QUERY, target, k=k, cross_target=True)
    assert fast.transfers
    assert _transfers(fast) == _transfers(reference)


def test_ties_are_broken_by_fingerprint(registry):
    result = registry.lookup(QUERY, QUERY_TARGET, k=100)
    ranked = [(d, e.fingerprint) for d, e in result.neighbors]
    assert ranked == sorted(ranked)
    distances = [d for d, _fp in ranked]
    assert len(set(distances)) < len(distances)  # the store really has ties


@pytest.mark.parametrize("k", [1, 3, 8])
def test_ties_straddling_the_cut_keep_the_smallest_fingerprints(k):
    """Many donors at one distance: the top-k cut must not pick among them at random.

    (A partial sort alone returns an arbitrary subset of a tie that
    straddles the cut; the store has to be large enough for that to show.)
    """
    registry = ScheduleRegistry()
    far = workload_embedding(QUERY) + 1.0
    for i in range(300):
        for target in (QUERY_TARGET, "epyc-7543"):
            registry.record(_entry(f"fp-{(37 * i) % 307:03d}", target, far))
    fast = registry.lookup(QUERY, CATALOG.get(QUERY_TARGET), k=k, cross_target=True)
    with reference_hot_path():
        reference = registry.lookup(QUERY, CATALOG.get(QUERY_TARGET), k=k, cross_target=True)
    assert [e.key for _d, e in fast.neighbors] == [e.key for _d, e in reference.neighbors]
    assert _transfers(fast) == _transfers(reference)
    smallest = sorted(f"fp-{(37 * i) % 307:03d}" for i in range(300))[:k]
    assert [e.fingerprint for _d, e in fast.neighbors] == smallest
