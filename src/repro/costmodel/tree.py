"""Binary regression tree with exact greedy splits.

This is the weak learner of the gradient-boosted cost model.  Splits minimise
the squared-error criterion; split search is vectorised with NumPy prefix
sums over the sorted feature values, so fitting stays fast for the few
thousand samples collected during a tuning run.  The per-feature reference
search it replaced lives in ``benchmarks/perf/oracles.py``, where the
equivalence tests and the perf harness compare against it.

Prediction is vectorised as well: after fitting, the tree is flattened into
parallel node arrays (feature, threshold, child indices, leaf value) and a
whole feature matrix is routed level by level in at most ``max_depth`` NumPy
steps, instead of walking the node objects once per row.  The boosted
ensemble (:mod:`repro.costmodel.gbt`) concatenates these arrays across its
trees and routes the whole forest in one such pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["RegressionTree"]


@dataclass
class _Node:
    prediction: float
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RegressionTree:
    """CART-style regression tree (squared loss).

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root has depth 0).
    min_samples_leaf:
        Minimum number of samples in each child of a split.
    min_gain:
        Minimum reduction of the sum of squared errors required to split.
    max_features:
        Number of candidate features examined at every split (``None`` = all);
        when set, features are subsampled with the provided RNG, which
        decorrelates the boosted ensemble.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 2,
        min_gain: float = 1e-12,
        max_features: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.max_features = max_features
        self._rng = rng or np.random.default_rng(0)
        self._root: Optional[_Node] = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        self._root = self._build(X, y, depth=0)
        self._flatten()
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a whole feature matrix at once.

        The batch is routed through the flattened node arrays level by level:
        every iteration advances all rows still at internal nodes one level
        down, so the loop runs at most ``max_depth`` times regardless of the
        batch size.
        """
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:
            feature = self._node_feature[node]
            active = feature >= 0
            if not np.any(active):
                break
            rows = np.nonzero(active)[0]
            at = node[rows]
            go_left = X[rows, feature[rows]] <= self._node_threshold[at]
            node[rows] = np.where(go_left, self._node_left[at], self._node_right[at])
        return self._node_value[node]

    # ------------------------------------------------------------------ #
    def _flatten(self) -> None:
        """Flatten the node objects into parallel arrays for batched predict."""
        features: list = []
        thresholds: list = []
        lefts: list = []
        rights: list = []
        values: list = []

        depth = 0

        def add(node: _Node, level: int) -> int:
            nonlocal depth
            depth = max(depth, level)
            idx = len(features)
            features.append(-1)
            thresholds.append(node.threshold)
            lefts.append(-1)
            rights.append(-1)
            values.append(node.prediction)
            if not node.is_leaf:
                features[idx] = node.feature
                lefts[idx] = add(node.left, level + 1)
                rights[idx] = add(node.right, level + 1)
            return idx

        add(self._root, 0)
        #: Levels below the root: the routing steps a row needs to reach a leaf.
        self.depth = depth
        self._node_feature = np.asarray(features, dtype=np.intp)
        self._node_threshold = np.asarray(thresholds, dtype=np.float64)
        self._node_left = np.asarray(lefts, dtype=np.intp)
        self._node_right = np.asarray(rights, dtype=np.intp)
        self._node_value = np.asarray(values, dtype=np.float64)

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(np.mean(y)))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        # ``np.allclose(y, y[0])`` written out: ``fit`` checked that y is
        # finite, so allclose's inf/nan handling would only cost time in a
        # test that runs at every node of every fit.
        if np.all(np.abs(y - y[0]) <= 1e-8 + 1e-5 * abs(y[0])):
            return node

        feature, threshold, gain = self._best_split(X, y)
        if feature < 0 or gain < self.min_gain:
            return node

        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _candidate_features(self, n_features: int) -> np.ndarray:
        features = np.arange(n_features)
        if self.max_features is not None and self.max_features < n_features:
            features = self._rng.choice(n_features, size=self.max_features, replace=False)
        return features

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        """Exact greedy split over all candidate features in one NumPy pass.

        All candidate columns are argsorted and prefix-summed together
        (``axis=0``), so split search costs one sort of an ``(N, K)`` matrix
        instead of ``K`` per-feature sorts — the dominant cost of cost-model
        refits on the tuning hot path.  Gains, validity masks and the
        first-maximum tie-breaking replicate the per-feature reference search
        (``benchmarks/perf/oracles.py``) bit for bit, so both grow identical
        trees.
        """
        n_samples, n_features = X.shape
        total_sum = float(np.sum(y))
        total_sq = float(np.sum(y * y))
        base_sse = total_sq - total_sum * total_sum / n_samples
        features = self._candidate_features(n_features)

        cols = X[:, features]
        order = np.argsort(cols, axis=0, kind="mergesort")
        v_sorted = np.take_along_axis(cols, order, axis=0)
        y_sorted = y[order]

        left_count = np.arange(1, n_samples)[:, None]
        left_sum = np.cumsum(y_sorted, axis=0)[:-1]
        left_sq = np.cumsum(y_sorted * y_sorted, axis=0)[:-1]
        right_count = n_samples - left_count
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq

        sse = (
            left_sq
            - left_sum * left_sum / left_count
            + right_sq
            - right_sum * right_sum / right_count
        )
        gains = base_sse - sse
        valid = (
            (left_count >= self.min_samples_leaf)
            & (right_count >= self.min_samples_leaf)
            & (v_sorted[:-1] < v_sorted[1:])
        )
        gains = np.where(valid, gains, -np.inf)

        col_best = np.argmax(gains, axis=0)
        col_gain = gains[col_best, np.arange(len(features))]
        best_feature, best_threshold, best_gain = -1, 0.0, 0.0
        for k, feature in enumerate(features):
            if col_gain[k] > best_gain:
                idx = int(col_best[k])
                best_gain = float(col_gain[k])
                best_feature = int(feature)
                best_threshold = float((v_sorted[idx, k] + v_sorted[idx + 1, k]) / 2.0)
        return best_feature, best_threshold, best_gain
