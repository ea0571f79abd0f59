"""Smoke pass over the perf harness's fast-vs-reference checks (``pytest -m smoke``).

``make perf`` times each vectorised stage against the scalar oracles of
``benchmarks/perf/oracles.py`` and raises when the two paths disagree:
features and batched predictions bit-equal, simulator latencies within
``rtol=1e-9``, equal tuned f(S), equal warm-start candidates.  This runs
those same stage functions at a tiny size, so a broken oracle substitution
fails the test job too, not only the separate perf job.
"""

from __future__ import annotations

import pytest

from benchmarks.perf import run as perf_run

pytestmark = pytest.mark.smoke


@pytest.mark.parametrize(
    "stage, size",
    [
        (perf_run.bench_feature_extraction, 16),
        (perf_run.bench_batched_prediction, 16),
        (perf_run.bench_simulator, 16),
        (perf_run.bench_tuning_round, 8),
        (perf_run.bench_registry_warm_start, 8),
    ],
    ids=["feature_extraction", "batched_prediction", "simulator_batch", "tuning_round", "registry_warm_start"],
)
def test_fast_path_matches_reference(stage, size):
    entry = stage(1, size)  # raises AssertionError when the paths disagree
    assert entry["legacy_median_s"] > 0.0
