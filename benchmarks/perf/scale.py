#!/usr/bin/env python
"""Million-entry registry scale benchmark (``make perf-scale``).

Synthesises a v1-format (no manifest, no sidecars) registry directory with
``--entries`` entries spread over ``--shards`` shard files and ``--targets``
hardware targets, then times the two costs the shard-format v2 redesign
attacks:

* **startup-to-first-hit** — construct a :class:`ScheduleRegistry` over the
  directory and answer one exact ``lookup(..., k=0)``.  The v1 layout forces
  a full parse of every shard; the v2 layout (produced in place by
  ``compact()``) reads the manifest plus one index sidecar.
* **batched nearest-neighbour scoring** — steady-state ``lookup(dag, target,
  k=8)`` over the per-target embedding matrix, vectorised vs. the per-entry
  reference loop under :func:`benchmarks.perf.oracles.reference_hot_path`.

Both reported speedups are machine-independent (both sides of each ratio are
timed in the same process on the same data), so ``--check`` enforces the
fixed floors below and CI needs no per-machine baseline for this file.

Usage::

    python benchmarks/perf/scale.py --output BENCH_scale.json --check
    python benchmarks/perf/scale.py --entries 50000   # quick local run
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
import zlib
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
for _path in (REPO_ROOT / "src", REPO_ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np

from benchmarks.perf.oracles import reference_hot_path
from repro.serving.fingerprint import EMBEDDING_SIZE, structural_fingerprint
from repro.serving.registry import ScheduleRegistry
from repro.tensor.workloads import gemm

SCHEMA_VERSION = 1

#: Machine-independent speedup floors (also enforced by ``compare.py --scale``).
SCALE_FLOORS = {"startup_to_first_hit": 10.0, "batched_nn": 5.0}

QUERY_TARGET = "sim-cpu"


# --------------------------------------------------------------------- #
# synthetic registry
# --------------------------------------------------------------------- #
def synthesise_v1(root: Path, entries: int, shards: int, targets: int, seed: int) -> str:
    """Write a v1-layout registry (plain JSONL shards, no manifest/sidecars).

    Returns the fingerprint of the entry used for the exact-lookup probes
    (chosen so it lives on ``{QUERY_TARGET}``).  Lines are written with the
    exact sharding function the registry uses, so reopening the directory
    with the same shard count finds every key on its home shard.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    # One embedding matrix drawn up front: per-row python RNG calls would
    # dominate synthesis time at 1M entries.
    emb = np.round(rng.uniform(0.0, 8.0, size=(entries, EMBEDDING_SIZE)), 3)
    target_names = [QUERY_TARGET] + [f"sim-dev{j}" for j in range(1, targets)]
    handles = [
        (root / f"shard-{i:02d}.jsonl").open("w", encoding="utf-8")
        for i in range(shards)
    ]
    probe = ""
    try:
        for i in range(entries):
            fingerprint = f"scale-{i:07d}"
            target = target_names[i % targets]
            if not probe and target == QUERY_TARGET:
                probe = fingerprint
            line = json.dumps(
                {
                    "fingerprint": fingerprint,
                    "target": target,
                    "workload": f"wl_{i % 997}",
                    "latency": round(1e-3 + (i % 1000) * 1e-6, 9),
                    "throughput": float(1000 - i % 1000),
                    "trials": 64,
                    "scheduler": "harl",
                    "schedule": None,
                    "embedding": emb[i].tolist(),
                    "source": "scale-bench",
                    "donor_target": "",
                }
            )
            handles[zlib.crc32(fingerprint.encode("utf-8")) % shards].write(line + "\n")
    finally:
        for fh in handles:
            fh.close()
    return probe


# --------------------------------------------------------------------- #
# timed stages
# --------------------------------------------------------------------- #
def time_startup_to_first_hit(
    root: Path, shards: int, probe: str
) -> tuple[float, int]:
    """Seconds from cold construct to one answered exact lookup."""
    start = time.perf_counter()
    registry = ScheduleRegistry(root, num_shards=shards)
    entry = registry.lookup(probe, QUERY_TARGET, k=0).entry
    elapsed = time.perf_counter() - start
    if entry is None:
        raise SystemExit(f"scale harness defect: probe {probe!r} not found")
    indexed = registry.indexed_shards
    registry.close()
    return elapsed, indexed


def time_nn(root: Path, shards: int, repeats: int, legacy_repeats: int) -> Dict:
    """Steady-state k=8 nearest-neighbour lookups, vectorised vs. legacy."""
    registry = ScheduleRegistry(root, num_shards=shards)
    dag = gemm(256, 256, 256)
    structural_fingerprint(dag)  # memoised: keep it out of the timed region
    registry.lookup(dag, QUERY_TARGET, k=8)  # warm: index + target matrix
    fast: List[float] = []
    for _ in range(repeats):
        began = time.perf_counter()
        result = registry.lookup(dag, QUERY_TARGET, k=8)
        fast.append(time.perf_counter() - began)
    slow: List[float] = []
    with reference_hot_path():
        registry.lookup(dag, QUERY_TARGET, k=8)  # warm the reference path
        for _ in range(legacy_repeats):
            began = time.perf_counter()
            legacy = registry.lookup(dag, QUERY_TARGET, k=8)
            slow.append(time.perf_counter() - began)
    equal = [
        (round(d, 9), e.fingerprint) for d, e in result.neighbors
    ] == [(round(d, 9), e.fingerprint) for d, e in legacy.neighbors]
    registry.close()
    if not equal:
        raise SystemExit("scale harness defect: vectorised and legacy NN disagree")
    return {
        "vector_seconds": min(fast),
        "legacy_seconds": min(slow),
        "neighbors": len(result.neighbors),
    }


# --------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------- #
def run(args) -> Dict:
    workdir = Path(tempfile.mkdtemp(prefix="repro-scale-"))
    root = workdir / "registry"
    try:
        print(f"synthesising v1 registry: {args.entries} entries, "
              f"{args.shards} shards, {args.targets} targets ...")
        began = time.perf_counter()
        probe = synthesise_v1(root, args.entries, args.shards, args.targets, args.seed)
        synth_seconds = time.perf_counter() - began
        print(f"  wrote {sum(f.stat().st_size for f in root.iterdir()) >> 20} MiB "
              f"in {synth_seconds:.1f}s")

        eager_seconds, eager_indexed = time_startup_to_first_hit(
            root, args.shards, probe
        )
        print(f"v1 eager startup-to-first-hit: {eager_seconds:.3f}s "
              f"({eager_indexed} shards parsed)")

        began = time.perf_counter()
        upgrading = ScheduleRegistry(root, num_shards=args.shards)
        removed = upgrading.compact()
        upgrading.close()
        compact_seconds = time.perf_counter() - began
        print(f"streaming compaction to v2: {compact_seconds:.3f}s "
              f"({removed} stale lines removed)")

        lazy_seconds, lazy_indexed = time_startup_to_first_hit(
            root, args.shards, probe
        )
        print(f"v2 indexed startup-to-first-hit: {lazy_seconds:.4f}s "
              f"({lazy_indexed} shard indexed)")
        if lazy_indexed > 1:
            raise SystemExit(
                f"scale harness defect: an exact v2 lookup indexed {lazy_indexed} shards"
            )

        nn = time_nn(root, args.shards, args.repeats, args.legacy_repeats)
        print(f"nearest(k=8) steady-state: vectorised {nn['vector_seconds']*1e3:.2f}ms, "
              f"legacy {nn['legacy_seconds']*1e3:.1f}ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    startup_speedup = eager_seconds / max(lazy_seconds, 1e-9)
    nn_speedup = nn["legacy_seconds"] / max(nn["vector_seconds"], 1e-9)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "entries": args.entries,
            "shards": args.shards,
            "targets": args.targets,
            "seed": args.seed,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "stages": {
            "synthesise": {"seconds": synth_seconds},
            "v1_eager_first_hit": {"seconds": eager_seconds},
            "compact_to_v2": {"seconds": compact_seconds, "removed": removed},
            "v2_indexed_first_hit": {
                "seconds": lazy_seconds,
                "indexed_shards": lazy_indexed,
            },
            "nearest_vectorised": {"seconds": nn["vector_seconds"]},
            "nearest_legacy": {"seconds": nn["legacy_seconds"]},
        },
        "speedups": {
            "startup_to_first_hit": round(startup_speedup, 2),
            "batched_nn": round(nn_speedup, 2),
        },
        "floors": dict(SCALE_FLOORS),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--entries", type=int, default=1_000_000)
    parser.add_argument("--shards", type=int, default=32)
    parser.add_argument("--targets", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5,
                        help="vectorised NN timing repeats (min is reported)")
    parser.add_argument("--legacy-repeats", type=int, default=3,
                        help="legacy NN timing repeats (min is reported)")
    parser.add_argument("--output", type=Path, default=Path("BENCH_scale.json"))
    parser.add_argument("--check", action="store_true",
                        help="fail unless both speedup floors hold")
    args = parser.parse_args(argv)

    report = run(args)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nspeedups: startup_to_first_hit {report['speedups']['startup_to_first_hit']}x, "
          f"batched_nn {report['speedups']['batched_nn']}x")
    print(f"report written to {args.output}")

    if args.check:
        failures = [
            f"{name}: {report['speedups'][name]}x < required {floor}x"
            for name, floor in SCALE_FLOORS.items()
            if report["speedups"][name] < floor
        ]
        if failures:
            for failure in failures:
                print(f"SCALE FLOOR FAILED: {failure}", file=sys.stderr)
            return 1
        print("scale floors passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
