"""Unit tests for the online schedule cost model."""

import numpy as np
import pytest

import repro.costmodel.model as model_module
from repro.costmodel.model import RandomCostModel, ScheduleCostModel
from repro.hardware.simulator import LatencySimulator
from repro.tensor.features import batch_features
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import gemm


@pytest.fixture
def big_sketch():
    return generate_sketches(gemm(512, 512, 512))[0]


def _measured(sketch, cpu, rng, count):
    schedules = sample_initial_schedules(sketch, count, rng)
    sim = LatencySimulator(cpu)
    throughputs = [sim.throughput(s) for s in schedules]
    return schedules, throughputs


class TestColdStart:
    def test_untrained_predictions_are_weak_priors(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, seed=0)
        schedules, _ = _measured(big_sketch, cpu, rng, 4)
        scores = model.predict(schedules)
        assert scores.shape == (4,)
        assert np.all((scores >= 0.0) & (scores <= 0.05))
        assert not model.is_trained(schedules[0].dag.name)

    def test_empty_prediction(self):
        model = ScheduleCostModel()
        assert model.predict([]).shape == (0,)


class TestOnlineTraining:
    def test_becomes_trained_after_enough_samples(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, retrain_interval=8, seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 32)
        model.update(schedules, throughputs)
        assert model.is_trained(schedules[0].dag.name)
        assert model.num_samples(schedules[0].dag.name) == 32

    def test_predictions_correlate_with_true_throughput(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, retrain_interval=8, seed=0)
        train_s, train_t = _measured(big_sketch, cpu, rng, 96)
        model.update(train_s, train_t)
        test_s, test_t = _measured(big_sketch, cpu, rng, 48)
        scores = model.predict(test_s)
        corr = np.corrcoef(scores, np.asarray(test_t))[0, 1]
        assert corr > 0.4

    def test_best_score_near_one(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, retrain_interval=8, seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 64)
        model.update(schedules, throughputs)
        best_idx = int(np.argmax(throughputs))
        score = model.predict([schedules[best_idx]])[0]
        assert score > 0.5

    def test_invalid_throughputs_ignored(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=4, seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 4)
        model.update(schedules, [float("nan"), -1.0, 0.0, throughputs[3]])
        assert model.num_samples(schedules[0].dag.name) == 1

    def test_mismatched_lengths_rejected(self, big_sketch, rng, cpu):
        model = ScheduleCostModel()
        schedules, throughputs = _measured(big_sketch, cpu, rng, 4)
        with pytest.raises(ValueError):
            model.update(schedules, throughputs[:-1])

    def test_predict_throughput_denormalises(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, retrain_interval=8, seed=0)
        schedules, throughputs = _measured(big_sketch, cpu, rng, 48)
        model.update(schedules, throughputs)
        pred = model.predict_throughput(schedules[:8])
        assert np.all(pred >= 0)
        assert np.max(pred) <= 2.0 * max(throughputs)

    def test_per_workload_isolation(self, rng, cpu):
        model = ScheduleCostModel(min_samples=8, retrain_interval=4, seed=0)
        sk_a = generate_sketches(gemm(128, 128, 128))[0]
        sk_b = generate_sketches(gemm(256, 128, 128))[0]
        s_a, t_a = _measured(sk_a, cpu, rng, 16)
        model.update(s_a, t_a)
        assert model.is_trained(s_a[0].dag.name)
        assert not model.is_trained(sk_b.dag.name)


class TestPrecomputedFeatures:
    """``predict(schedules, features=F)`` scores exactly like ``predict(schedules)``."""

    def test_trained_model_bit_equal(self, big_sketch, rng, cpu):
        model = ScheduleCostModel(min_samples=16, retrain_interval=8, seed=0)
        model.update(*_measured(big_sketch, cpu, rng, 48))
        schedules = sample_initial_schedules(big_sketch, 20, rng)
        plain = model.predict(schedules)
        given = model.predict(schedules, features=batch_features(schedules))
        assert np.array_equal(plain, given)

    def test_mixed_workload_batch_bit_equal(self, rng, cpu):
        sk_a = generate_sketches(gemm(128, 128, 128))[0]
        sk_b = generate_sketches(gemm(256, 128, 128))[0]
        sk_cold = generate_sketches(gemm(64, 64, 64))[0]
        models = [ScheduleCostModel(min_samples=8, retrain_interval=4, seed=0) for _ in range(2)]
        train = [_measured(sk, cpu, rng, 16) for sk in (sk_a, sk_b)]
        for model in models:
            for schedules, throughputs in train:
                model.update(schedules, throughputs)
        assert all(models[0].is_trained(sk.dag.name) for sk in (sk_a, sk_b))
        assert not models[0].is_trained(sk_cold.dag.name)
        # Interleave the workloads, with one cold workload among them.
        groups = [sample_initial_schedules(sk, 6, rng) for sk in (sk_a, sk_b, sk_cold)]
        batch = [s for triple in zip(*groups) for s in triple]
        plain = models[0].predict(batch)
        given = models[1].predict(batch, features=batch_features(batch))
        assert np.array_equal(plain, given)

    def test_untrained_model_makes_the_same_draws(self, big_sketch, rng, monkeypatch):
        plain_model = ScheduleCostModel(min_samples=16, seed=3)
        given_model = ScheduleCostModel(min_samples=16, seed=3)
        schedules = sample_initial_schedules(big_sketch, 5, rng)
        features = batch_features(schedules)

        def no_featurising(schedules):
            raise AssertionError("a cold-start prediction featurised its schedules")

        monkeypatch.setattr(model_module, "batch_features", no_featurising)
        for _ in range(3):
            plain = plain_model.predict(schedules)
            given = given_model.predict(schedules, features=features)
            assert np.array_equal(plain, given)

    def test_misaligned_features_rejected(self, big_sketch, rng):
        model = ScheduleCostModel()
        schedules = sample_initial_schedules(big_sketch, 3, rng)
        with pytest.raises(ValueError):
            model.predict(schedules, features=batch_features(schedules[:2]))


class TestRandomCostModel:
    def test_uniform_scores(self, big_sketch, rng):
        model = RandomCostModel(seed=0)
        schedules = sample_initial_schedules(big_sketch, 10, rng)
        scores = model.predict(schedules)
        assert scores.shape == (10,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_precomputed_features_ignored(self, big_sketch, rng):
        schedules = sample_initial_schedules(big_sketch, 4, rng)
        plain = RandomCostModel(seed=0).predict(schedules)
        given = RandomCostModel(seed=0).predict(schedules, features=batch_features(schedules))
        assert np.array_equal(plain, given)

    def test_update_is_noop(self, big_sketch, rng):
        model = RandomCostModel(seed=0)
        schedules = sample_initial_schedules(big_sketch, 3, rng)
        model.update(schedules, [1.0, 2.0, 3.0])
        assert not model.is_trained(schedules[0].dag.name)
        assert model.num_samples(schedules[0].dag.name) == 0
