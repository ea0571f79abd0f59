"""Batched cost-model inference vs. a per-schedule prediction loop.

The measurement pipeline scores hundreds of candidate schedules per episode;
this bench demonstrates (and guards) the acceptance criterion that one
batched ``ScheduleCostModel.predict`` call over >= 64 schedules is measurably
faster than looping ``predict`` per schedule, thanks to the vectorised
feature extractor and the array-flattened regression trees.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.hardware.target import cpu_target
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import gemm

pytestmark = pytest.mark.smoke

N_SCHEDULES = 96


@pytest.fixture(scope="module")
def trained_model_and_batch():
    """A cost model trained on measured schedules, plus a prediction batch."""
    rng = np.random.default_rng(0)
    dag = gemm(256, 256, 256)
    sketch = generate_sketches(dag)[0]
    train = sample_initial_schedules(sketch, 128, rng)
    measured = Measurer(cpu_target(), seed=0).measure(train)

    model = ScheduleCostModel(min_samples=16, retrain_interval=16, seed=0)
    model.update([r.schedule for r in measured], [r.throughput for r in measured])
    assert model.is_trained(dag.name)

    batch = sample_initial_schedules(sketch, N_SCHEDULES, rng)
    return model, batch


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_prediction_faster_than_loop(trained_model_and_batch, print_report):
    model, batch = trained_model_and_batch
    assert len(batch) >= 64

    batched_time = _best_of(3, lambda: model.predict(batch))
    loop_time = _best_of(3, lambda: [model.predict([s]) for s in batch])

    speedup = loop_time / batched_time
    print_report(
        f"Batched cost-model inference over {len(batch)} schedules",
        f"batched call : {batched_time * 1e3:8.2f} ms\n"
        f"per-schedule : {loop_time * 1e3:8.2f} ms\n"
        f"speedup      : {speedup:8.1f}x",
    )

    # Identical scores either way...
    batched_scores = model.predict(batch)
    loop_scores = np.concatenate([model.predict([s]) for s in batch])
    assert np.allclose(batched_scores, loop_scores)
    # ...but the batched call must be measurably (>= 2x) faster.
    assert batched_time * 2 < loop_time


def test_batched_feature_extraction_faster_than_loop(trained_model_and_batch, print_report):
    from benchmarks.perf.oracles import schedule_features
    from repro.tensor.features import batch_features

    _model, batch = trained_model_and_batch
    batched_time = _best_of(3, lambda: batch_features(batch))
    loop_time = _best_of(3, lambda: [schedule_features(s) for s in batch])
    print_report(
        f"Vectorised feature extraction over {len(batch)} schedules",
        f"batched call : {batched_time * 1e3:8.2f} ms\n"
        f"per-schedule : {loop_time * 1e3:8.2f} ms\n"
        f"speedup      : {loop_time / batched_time:8.1f}x",
    )
    assert batched_time < loop_time
