"""Unit tests for the parameter-search episode loop (Algorithm 1)."""

import numpy as np
import pytest

import repro.core.parameter_search as parameter_search
from repro.core.actor_critic import PPOAgent
from repro.core.adaptive_stopping import AdaptiveStopper, FixedLengthStopper
from repro.core.parameter_search import ParameterSearcher
from repro.costmodel.model import ScheduleCostModel
from repro.hardware.measurer import Measurer
from repro.tensor.actions import ActionSpace
from repro.tensor.features import FEATURE_SIZE, batch_features
from repro.tensor.sampler import sample_initial_schedules
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import gemm


@pytest.fixture
def big_sketch():
    return generate_sketches(gemm(256, 256, 256))[0]


def _make_searcher(sketch, cpu, tiny_config, adaptive=True, seed=0):
    agent = PPOAgent(FEATURE_SIZE, ActionSpace(sketch).head_sizes, tiny_config, seed=seed)
    measurer = Measurer(cpu, seed=seed)
    cost_model = ScheduleCostModel(min_samples=8, retrain_interval=8, seed=seed)
    stopper = (
        AdaptiveStopper(tiny_config.window_size, tiny_config.elimination_ratio, tiny_config.min_tracks)
        if adaptive
        else FixedLengthStopper(tiny_config.episode_length)
    )
    searcher = ParameterSearcher(
        sketch=sketch,
        agent=agent,
        cost_model=cost_model,
        measurer=measurer,
        config=tiny_config,
        stopper=stopper,
        rng=np.random.default_rng(seed),
    )
    return searcher, measurer, cost_model


class TestEpisode:
    def test_episode_measures_top_k(self, big_sketch, cpu, tiny_config):
        searcher, measurer, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode()
        assert 0 < episode.num_measured <= tiny_config.measures_per_round
        assert measurer.total_trials == episode.num_measured
        assert np.isfinite(episode.best_latency)
        assert episode.best_throughput > 0

    def test_max_measures_respected(self, big_sketch, cpu, tiny_config):
        searcher, measurer, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode(max_measures=2)
        assert episode.num_measured <= 2

    def test_cost_model_learns_from_episode(self, big_sketch, cpu, tiny_config):
        searcher, _, cost_model = _make_searcher(big_sketch, cpu, tiny_config)
        searcher.run_episode()
        searcher.run_episode()
        searcher.run_episode()
        assert cost_model.num_samples(big_sketch.dag.name) > 0

    def test_adaptive_episode_prunes_tracks(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config, adaptive=True)
        episode = searcher.run_episode()
        lengths = episode.track_lengths
        # With elimination, tracks end up with different lengths.
        assert len(set(lengths)) > 1
        assert max(lengths) > min(lengths)

    def test_fixed_length_episode_uniform_tracks(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config, adaptive=False)
        episode = searcher.run_episode()
        assert episode.num_steps == tiny_config.episode_length
        assert len(set(episode.track_lengths)) == 1

    def test_critical_positions_in_unit_interval(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode()
        assert len(episode.critical_positions) == tiny_config.num_tracks
        assert all(0.0 <= p <= 1.0 for p in episode.critical_positions)

    def test_visited_count_grows_with_steps(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode()
        assert episode.num_visited >= tiny_config.num_tracks
        assert episode.num_steps > 0

    def test_warm_start_schedules_are_reused(self, big_sketch, cpu, tiny_config, rng):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config)
        warm = sample_initial_schedules(big_sketch, 2, rng)
        episode = searcher.run_episode(warm_start=warm)
        assert episode.num_measured > 0

    def test_rl_stats_populated_after_training(self, big_sketch, cpu, tiny_config):
        searcher, _, _ = _make_searcher(big_sketch, cpu, tiny_config)
        episode = searcher.run_episode()
        assert set(episode.rl_stats) >= {"actor_loss", "critic_loss", "entropy"}

    def test_deterministic_given_seed(self, big_sketch, cpu, tiny_config):
        a = _make_searcher(big_sketch, cpu, tiny_config, seed=5)[0].run_episode()
        b = _make_searcher(big_sketch, cpu, tiny_config, seed=5)[0].run_episode()
        assert a.best_latency == pytest.approx(b.best_latency)
        assert a.num_visited == b.num_visited


class TestScoreEachScheduleOnce:
    """Every visited schedule is featurised once, and scored once by a trained model."""

    def test_visited_schedules_featurised_and_scored_once(
        self, big_sketch, cpu, tiny_config, monkeypatch
    ):
        searcher, _, cost_model = _make_searcher(big_sketch, cpu, tiny_config)
        featurised = []
        scored = []

        def counting_features(schedules):
            featurised.append(len(schedules))
            return batch_features(schedules)

        predict = cost_model.predict

        def counting_predict(schedules, features=None):
            scored.append(len(schedules))
            return predict(schedules, features=features)

        monkeypatch.setattr(parameter_search, "batch_features", counting_features)
        monkeypatch.setattr(cost_model, "predict", counting_predict)
        trained_episodes = 0
        for _ in range(4):
            trained = cost_model.is_trained(big_sketch.dag.name)
            featurised.clear()
            scored.clear()
            episode = searcher.run_episode()
            assert sum(featurised) == episode.num_visited
            if trained:
                trained_episodes += 1
                assert sum(scored) == episode.num_visited
            else:
                # A cold model is also asked for the current tracks' scores,
                # so its random priors draw as many numbers as before.
                assert sum(scored) > episode.num_visited
        assert 0 < trained_episodes < 4
