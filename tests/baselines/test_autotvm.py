"""Unit tests for the AutoTVM-style simulated-annealing baseline."""

import numpy as np
import pytest

from repro.baselines.autotvm import SimulatedAnnealingScheduler


class TestSimulatedAnnealing:
    def test_tunes_operator_within_budget(self, gemm_dag):
        scheduler = SimulatedAnnealingScheduler(
            seed=0, num_chains=8, steps_per_round=8, measures_per_round=4
        )
        result = scheduler.tune(gemm_dag, n_trials=8)
        assert result.scheduler == "autotvm-sa"
        assert np.isfinite(result.best_latency)
        assert result.trials_used >= 8
        assert result.search_steps > 0

    def test_temperature_cools(self, gemm_dag):
        scheduler = SimulatedAnnealingScheduler(
            seed=0, num_chains=8, steps_per_round=4, measures_per_round=4,
            initial_temperature=1.0, cooling=0.5,
        )
        result = scheduler.tune(gemm_dag, n_trials=8)
        assert result.extras["final_temperature"] < 1.0

    def test_history_nonincreasing(self, gemm_dag):
        scheduler = SimulatedAnnealingScheduler(
            seed=1, num_chains=8, steps_per_round=8, measures_per_round=4
        )
        result = scheduler.tune(gemm_dag, n_trials=12)
        bests = [latency for _t, latency in result.history]
        assert all(b <= a for a, b in zip(bests, bests[1:]))

    def test_invalid_parameters_rejected(self, gemm_dag):
        with pytest.raises(ValueError):
            SimulatedAnnealingScheduler(num_chains=0)
        with pytest.raises(ValueError):
            SimulatedAnnealingScheduler().tune(gemm_dag, n_trials=0)
