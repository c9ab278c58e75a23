"""Random forest of CART trees grown on Gini impurity."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateDataError
from ..validation import as_labels, as_matrix, check_fitted
from .base import BinaryClassifier


def _gini_best_split(X, y, feature_indices):
    """Best (feature, threshold, weighted_gini) over candidate features.

    Thresholds are midpoints between consecutive distinct values; ties
    resolve to the first feature (in sampled order) and the smallest
    threshold, which keeps training deterministic.
    """
    n = y.shape[0]
    best = (None, None, np.inf)
    if n < 2:
        return best
    values = X[:, feature_indices]
    order = np.argsort(values, axis=0, kind="mergesort")
    sv = np.take_along_axis(values, order, axis=0)
    cum_pos = np.cumsum(y[order], axis=0)
    # row i scores the split after sorted position i; only a split
    # between two distinct values is a candidate
    n_left = np.arange(1, n)[:, None]
    n_right = n - n_left
    pos_left = cum_pos[:-1]
    pos_right = cum_pos[-1] - pos_left
    p_left = pos_left / n_left
    p_right = pos_right / n_right
    gini_left = 1.0 - p_left**2 - (1.0 - p_left)**2
    gini_right = 1.0 - p_right**2 - (1.0 - p_right)**2
    weighted = (n_left * gini_left + n_right * gini_right) / n
    weighted[~(sv[1:] > sv[:-1])] = np.inf
    rows = np.argmin(weighted, axis=0)
    for j, f in enumerate(feature_indices):
        i = rows[j]
        if weighted[i, j] < best[2] - 1e-15:
            threshold = 0.5 * (sv[i, j] + sv[i + 1, j])
            best = (int(f), float(threshold), float(weighted[i, j]))
    return best


def _grow_tree(X, y, rng, max_depth, max_features, min_samples_split):
    n_features = X.shape[1]
    k = max(1, int(np.sqrt(n_features))) if max_features == "sqrt" else n_features

    def leaf(y_node):
        p = float(np.mean(y_node))
        return {"leaf": [1.0 - p, p]}

    def build(idx, depth):
        y_node = y[idx]
        if (max_depth is not None and depth >= max_depth) \
                or idx.size < min_samples_split \
                or np.all(y_node == y_node[0]):
            return leaf(y_node)
        features = np.sort(rng.choice(n_features, size=k, replace=False))
        f, t, _ = _gini_best_split(X[idx], y_node, features)
        if f is None:
            return leaf(y_node)
        mask = X[idx, f] < t
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if left_idx.size == 0 or right_idx.size == 0:
            return leaf(y_node)
        return {
            "feature": f,
            "threshold": t,
            "left": build(left_idx, depth + 1),
            "right": build(right_idx, depth + 1),
        }

    return build(np.arange(X.shape[0]), 0)


def _tree_proba(node, X):
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if "leaf" in nd:
            out[idx] = nd["leaf"][1]
            continue
        mask = X[idx, nd["feature"]] < nd["threshold"]
        stack.append((nd["left"], idx[mask]))
        stack.append((nd["right"], idx[~mask]))
    return out


class RandomForestClassifier(BinaryClassifier):
    """Bagged CART trees; sqrt(d) features per split, bootstrap rows.

    Tree t draws its randomness from ``seed + t`` so forests can be
    grown concurrently without losing determinism.
    """

    kind = "random_forest"
    _fitted_attribute = "trees_"

    def __init__(self, n_trees=100, max_depth=None, max_features="sqrt",
                 min_samples_split=2, seed=0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_split = min_samples_split
        self.seed = seed

    def fit(self, X, y):
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        if np.unique(y).size < 2:
            raise DegenerateDataError("training data has a single label")
        self.n_features_ = X.shape[1]
        n = X.shape[0]
        self.trees_ = []
        for t in range(self.n_trees):
            rng = np.random.default_rng(self.seed + t)
            sample = rng.integers(0, n, size=n)
            self.trees_.append(_grow_tree(
                X[sample], y[sample], rng, self.max_depth,
                self.max_features, self.min_samples_split))
        return self

    def predict_proba(self, X):
        check_fitted(self, "trees_")
        X = self._check_input(X, self.n_features_)
        pos = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees_:
            pos += _tree_proba(tree, X)
        return self._stack_proba(pos / len(self.trees_))

    def _export_state(self) -> dict:
        return {"n_features": self.n_features_, "trees": self.trees_}

    def _import_state(self, state: dict) -> None:
        self.n_features_ = state["n_features"]
        self.trees_ = state["trees"]
