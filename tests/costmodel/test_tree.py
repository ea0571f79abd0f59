"""Unit tests for the regression tree weak learner."""

import numpy as np
import pytest

from benchmarks.perf.oracles import best_split_reference
from repro.costmodel.tree import RegressionTree


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestFitPredict:
    def test_constant_target(self, rng):
        X = rng.random((20, 3))
        y = np.full(20, 7.0)
        pred = RegressionTree(max_depth=3).fit(X, y).predict(X)
        assert np.allclose(pred, 7.0)

    def test_single_split_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        pred = RegressionTree(max_depth=1, min_samples_leaf=1).fit(X, y).predict(X)
        assert np.mean((pred - y) ** 2) < 0.05

    def test_deep_tree_fits_piecewise_target(self, rng):
        X = rng.random((200, 2))
        y = np.where(X[:, 0] > 0.5, 3.0, -1.0) + np.where(X[:, 1] > 0.3, 0.5, 0.0)
        pred = RegressionTree(max_depth=6, min_samples_leaf=2).fit(X, y).predict(X)
        assert np.mean((pred - y) ** 2) < 0.05

    def test_prediction_within_target_range(self, rng):
        X = rng.random((100, 4))
        y = rng.normal(size=100)
        pred = RegressionTree(max_depth=4).fit(X, y).predict(X)
        assert pred.min() >= y.min() - 1e-9
        assert pred.max() <= y.max() + 1e-9

    def test_min_samples_leaf_respected(self, rng):
        X = rng.random((10, 1))
        y = rng.random(10)
        tree = RegressionTree(max_depth=10, min_samples_leaf=5).fit(X, y)
        # With a leaf minimum of 5 and 10 samples, at most one split can happen,
        # so there are at most 2 distinct predictions.
        assert len(np.unique(np.round(tree.predict(X), 12))) <= 2

    @pytest.mark.parametrize("spread, splits", [(1e-6, False), (1e-3, True)])
    def test_near_constant_node_is_a_leaf(self, rng, spread, splits):
        # The stop test is np.allclose(y, y[0]) written out: a node whose
        # targets all lie within 1e-8 + 1e-5 * |y[0]| of y[0] is not split.
        X = rng.random((40, 2))
        y = 7.0 + spread * X[:, 0]
        assert np.allclose(y, y[0]) is not splits
        tree = RegressionTree(max_depth=3).fit(X, y)
        assert (tree.depth > 0) is splits

    def test_duplicate_feature_values_handled(self):
        X = np.zeros((30, 2))
        y = np.arange(30, dtype=float)
        pred = RegressionTree(max_depth=3).fit(X, y).predict(X)
        assert np.allclose(pred, np.mean(y))

    def test_max_features_subsampling(self, rng):
        X = rng.random((50, 8))
        y = X[:, 0] * 2.0
        tree = RegressionTree(max_depth=4, max_features=2, rng=rng)
        pred = tree.fit(X, y).predict(X)
        assert np.all(np.isfinite(pred))


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((2, 2)))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            RegressionTree().fit(np.zeros((0, 3)), np.zeros(0))

    def test_non_finite_target_rejected(self, rng):
        y = rng.random(10)
        y[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RegressionTree().fit(rng.random((10, 2)), y)

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            RegressionTree().fit(rng.random((5, 2)), rng.random(4))

    def test_one_dimensional_x_rejected(self, rng):
        with pytest.raises(ValueError):
            RegressionTree().fit(rng.random(5), rng.random(5))

    def test_bad_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)


class TestSplitSearchMatchesReference:
    """The one-pass split search agrees with the per-feature oracle exactly."""

    @pytest.mark.parametrize("min_samples_leaf", [1, 2, 5, 31])
    @pytest.mark.parametrize("max_features", [None, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_identical_split(self, seed, max_features, min_samples_leaf):
        rng = np.random.default_rng(seed)
        # few distinct values per column: repeated values exercise the
        # degenerate-threshold mask; a duplicated column ties gains across
        # features, so first-maximum tie-breaking decides
        X = rng.integers(0, 6, size=(60, 7)).astype(np.float64)
        X[:, 4] = X[:, 1]
        y = rng.integers(0, 4, size=60).astype(np.float64)

        def tree():
            return RegressionTree(
                min_samples_leaf=min_samples_leaf,
                max_features=max_features,
                rng=np.random.default_rng(seed),
            )

        assert tree()._best_split(X, y) == best_split_reference(tree(), X, y)

    def test_no_valid_split(self):
        X = np.zeros((10, 3))
        y = np.arange(10.0)
        tree = RegressionTree(min_samples_leaf=1)
        assert tree._best_split(X, y) == best_split_reference(tree, X, y) == (-1, 0.0, 0.0)
