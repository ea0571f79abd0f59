"""Unit tests for the gradient-boosted trees model."""

import numpy as np
import pytest

from benchmarks.perf.oracles import forest_predict_reference
from repro.costmodel.gbt import GradientBoostedTrees


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _friedman_like(rng, n=300):
    X = rng.random((n, 5))
    y = 2 * X[:, 0] + np.sin(4 * X[:, 1]) + 0.5 * X[:, 2] * X[:, 3]
    return X, y


class TestFitPredict:
    def test_reduces_error_versus_mean_predictor(self, rng):
        X, y = _friedman_like(rng)
        model = GradientBoostedTrees(n_estimators=40, max_depth=4, seed=1).fit(X, y)
        mse_model = np.mean((model.predict(X) - y) ** 2)
        mse_mean = np.mean((np.mean(y) - y) ** 2)
        assert mse_model < 0.2 * mse_mean

    def test_generalises_to_held_out_data(self, rng):
        X, y = _friedman_like(rng, n=400)
        X_train, y_train = X[:300], y[:300]
        X_test, y_test = X[300:], y[300:]
        model = GradientBoostedTrees(n_estimators=60, max_depth=4, seed=1).fit(X_train, y_train)
        mse = np.mean((model.predict(X_test) - y_test) ** 2)
        assert mse < 0.5 * np.var(y_test)

    def test_more_trees_do_not_hurt_training_fit(self, rng):
        X, y = _friedman_like(rng)
        small = GradientBoostedTrees(n_estimators=5, early_stopping_rounds=None, seed=0).fit(X, y)
        large = GradientBoostedTrees(n_estimators=60, early_stopping_rounds=None, seed=0).fit(X, y)
        mse_small = np.mean((small.predict(X) - y) ** 2)
        mse_large = np.mean((large.predict(X) - y) ** 2)
        assert mse_large <= mse_small + 1e-9

    def test_ranking_quality_on_monotone_target(self, rng):
        X = rng.random((200, 3))
        y = 3 * X[:, 0]
        model = GradientBoostedTrees(n_estimators=30, seed=0).fit(X, y)
        pred = model.predict(X)
        corr = np.corrcoef(pred, y)[0, 1]
        assert corr > 0.9

    def test_early_stopping_limits_trees(self, rng):
        X = rng.random((50, 2))
        y = np.full(50, 3.0)  # constant: no improvement possible after round 1
        model = GradientBoostedTrees(n_estimators=50, early_stopping_rounds=3, seed=0).fit(X, y)
        assert model.n_trees <= 5

    def test_deterministic_given_seed(self, rng):
        X, y = _friedman_like(rng)
        a = GradientBoostedTrees(n_estimators=10, seed=3).fit(X, y).predict(X)
        b = GradientBoostedTrees(n_estimators=10, seed=3).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_single_sample_pair(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 2.0])
        model = GradientBoostedTrees(n_estimators=5, min_samples_leaf=1, subsample=1.0).fit(X, y)
        assert np.all(np.isfinite(model.predict(X)))


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.zeros((1, 2)))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.zeros((0, 2)), np.zeros(0))

    def test_bad_subsample_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=0.0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(colsample=1.5)

    def test_bad_n_estimators_rejected(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(n_estimators=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, rng, bad):
        # A single NaN target used to fit "successfully" and then predict NaN
        # for every row.
        X, y = _friedman_like(rng, n=40)
        y[7] = bad
        with pytest.raises(ValueError, match="finite"):
            GradientBoostedTrees(seed=0).fit(X, y)


class TestForestPredictMatchesReference:
    """The one-pass forest predict is bit-equal to summing the trees in order."""

    @staticmethod
    def _assert_bit_equal(model, X):
        fast = model.predict(X)
        assert fast.shape == (X.shape[0],)
        assert np.array_equal(fast, forest_predict_reference(model, X))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_data(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((240, 60))
        y = 3 * X[:, 0] + np.sin(5 * X[:, 1]) + rng.normal(0.0, 0.1, 240)
        model = GradientBoostedTrees(seed=seed).fit(X, y)
        assert model.n_trees == 50
        self._assert_bit_equal(model, X)
        self._assert_bit_equal(model, rng.random((300, 60)))

    def test_forest_containing_stumps(self, rng):
        # One informative column among nine constant ones, one candidate
        # feature per split: most roots draw a constant column and stay leaves.
        X = np.column_stack([rng.random(80), np.ones((80, 9))])
        y = 2 * X[:, 0] + rng.normal(0.0, 0.1, 80)
        model = GradientBoostedTrees(
            n_estimators=20, colsample=0.1, early_stopping_rounds=None, seed=0
        ).fit(X, y)
        depths = [tree.depth for tree in model._trees]
        assert 0 in depths and max(depths) > 0
        self._assert_bit_equal(model, X)

    def test_all_stump_forest(self, rng):
        X = rng.random((30, 3))
        model = GradientBoostedTrees(n_estimators=5, seed=0).fit(X, np.full(30, 2.5))
        assert all(tree.depth == 0 for tree in model._trees)
        self._assert_bit_equal(model, X)

    def test_one_tree_forest(self, rng):
        X, y = _friedman_like(rng, n=100)
        model = GradientBoostedTrees(n_estimators=1, seed=0).fit(X, y)
        assert model.n_trees == 1
        self._assert_bit_equal(model, X)

    def test_early_stopped_forest(self, rng):
        # The first full-rate tree fits the step exactly; the stumps after it
        # cannot improve the loss, so boosting stops early.
        X = rng.random((60, 4))
        y = (X[:, 0] > 0.5).astype(np.float64)
        model = GradientBoostedTrees(
            n_estimators=50, learning_rate=1.0, subsample=1.0, early_stopping_rounds=3, seed=0
        ).fit(X, y)
        assert model.n_trees < 50
        self._assert_bit_equal(model, X)

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_tiny_inputs(self, rng, n_rows):
        X, y = _friedman_like(rng, n=100)
        model = GradientBoostedTrees(seed=0).fit(X, y)
        self._assert_bit_equal(model, X[:n_rows])
