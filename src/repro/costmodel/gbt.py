"""Gradient-boosted regression trees (squared loss).

A minimal XGBoost-style booster: each round fits a
:class:`~repro.costmodel.tree.RegressionTree` to the residuals of the current
ensemble, with shrinkage and row subsampling.  It is intentionally small —
the cost model only needs to rank a few hundred schedules per round — but the
training loop, early stopping and feature subsampling mirror the structure of
the real thing so the ablation experiments behave comparably.

Prediction scores the whole forest in one pass.  After ``fit`` the trees'
flattened node arrays are concatenated, with per-tree offsets, into one
forest, and ``predict`` routes an ``(n_rows, n_trees)`` node matrix level by
level in at most ``max_depth`` NumPy steps.  The per-tree contributions are
then added in tree order, so the result is bit-identical to summing the
trees one at a time (the loop kept in ``benchmarks/perf/oracles.py``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.costmodel.tree import RegressionTree

__all__ = ["GradientBoostedTrees"]


class GradientBoostedTrees:
    """Squared-loss gradient boosting.

    Parameters
    ----------
    n_estimators:
        Maximum number of boosting rounds.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth / min_samples_leaf:
        Weak-learner tree parameters.
    subsample:
        Fraction of rows sampled (without replacement) per boosting round.
    colsample:
        Fraction of features examined at each split.
    early_stopping_rounds:
        Stop when the training loss has not improved for this many rounds
        (``None`` disables early stopping).
    """

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.2,
        max_depth: int = 6,
        min_samples_leaf: int = 2,
        subsample: float = 0.9,
        colsample: float = 0.9,
        early_stopping_rounds: Optional[int] = 10,
        seed: int = 0,
    ):
        if not (0.0 < subsample <= 1.0) or not (0.0 < colsample <= 1.0):
            raise ValueError("subsample and colsample must be in (0, 1]")
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.colsample = colsample
        self.early_stopping_rounds = early_stopping_rounds
        self.seed = seed
        self._trees: List[RegressionTree] = []
        self._base_prediction = 0.0
        self._fitted = False

    # ------------------------------------------------------------------ #
    @property
    def n_trees(self) -> int:
        return len(self._trees)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X must be (n, d) and aligned with y")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite: a NaN target would poison every prediction")

        rng = np.random.default_rng(self.seed)
        n_samples, n_features = X.shape
        self._trees = []
        self._base_prediction = float(np.mean(y))
        predictions = np.full(n_samples, self._base_prediction, dtype=np.float64)

        max_features = max(1, int(round(self.colsample * n_features)))
        best_loss = float("inf")
        rounds_since_best = 0

        for _ in range(self.n_estimators):
            residuals = y - predictions

            if self.subsample < 1.0:
                sample_size = max(2, int(round(self.subsample * n_samples)))
                idx = rng.choice(n_samples, size=min(sample_size, n_samples), replace=False)
            else:
                idx = np.arange(n_samples)

            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features if max_features < n_features else None,
                rng=rng,
            )
            tree.fit(X[idx], residuals[idx])
            self._trees.append(tree)
            predictions += self.learning_rate * tree.predict(X)

            loss = float(np.mean((y - predictions) ** 2))
            if loss < best_loss - 1e-12:
                best_loss = loss
                rounds_since_best = 0
            else:
                rounds_since_best += 1
                if (
                    self.early_stopping_rounds is not None
                    and rounds_since_best >= self.early_stopping_rounds
                ):
                    break

        self._flatten_forest()
        self._fitted = True
        return self

    def _flatten_forest(self) -> None:
        """Concatenate the trees' node arrays into one forest for :meth:`predict`.

        Child indices are shifted by each tree's offset into the forest.
        Leaves become self-loops (feature 0, both children the leaf itself),
        so every row can take exactly ``depth`` routing steps without
        masking out the rows that reached a leaf early.
        """
        trees = self._trees
        sizes = [len(tree._node_value) for tree in trees]
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.intp)
        feature = np.concatenate([tree._node_feature for tree in trees])
        left = np.concatenate([tree._node_left + off for tree, off in zip(trees, offsets)])
        right = np.concatenate([tree._node_right + off for tree, off in zip(trees, offsets)])
        leaves = np.nonzero(feature < 0)[0]
        feature[leaves] = 0
        left[leaves] = leaves
        right[leaves] = leaves
        self._forest_roots = offsets
        self._forest_feature = feature
        self._forest_threshold = np.concatenate([tree._node_threshold for tree in trees])
        self._forest_left = left
        self._forest_right = right
        self._forest_value = np.concatenate([tree._node_value for tree in trees])
        self._forest_depth = max(tree.depth for tree in trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        n_rows, n_trees = X.shape[0], len(self._trees)
        # One node per (row, tree), row-major; every row starts at every root.
        node = np.tile(self._forest_roots, n_rows)
        rows = np.repeat(np.arange(n_rows), n_trees)
        for _ in range(self._forest_depth):
            go_left = X[rows, self._forest_feature[node]] <= self._forest_threshold[node]
            node = np.where(go_left, self._forest_left[node], self._forest_right[node])
        # Column 0 is the base prediction, column t + 1 tree t's contribution;
        # ``add.accumulate`` sums each row strictly left to right, i.e. in tree
        # order, exactly as ``out += learning_rate * tree.predict(X)`` per tree.
        terms = np.empty((n_rows, n_trees + 1), dtype=np.float64)
        terms[:, 0] = self._base_prediction
        terms[:, 1:] = self.learning_rate * self._forest_value[node].reshape(n_rows, n_trees)
        return np.add.accumulate(terms, axis=1)[:, -1].copy()
