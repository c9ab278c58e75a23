"""Grid search over classifier hyperparameters with stratified CV."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateDataError
from ..evaluation import waf
from ..validation import as_labels, as_matrix, at_least, bound, check_fields


@dataclass
class GridSpec:
    """Candidate lists per hyperparameter; WAF picks the winner."""

    param_grid: dict[str, list] = bound("a non-empty list", bool, default_factory=dict)
    fold_count: int = at_least(2, 5)

    def __post_init__(self):
        check_fields(self)

    def combinations(self) -> list[dict]:
        """Every combination, the last name varying fastest; an empty
        grid has one, ``{}``."""
        return [dict(zip(self.param_grid, values))
                for values in itertools.product(*self.param_grid.values())]


def stratified_kfold(y, fold_count: int, seed: int) -> list[np.ndarray]:
    """Index arrays per fold, each with (nearly) the label mix of ``y``."""
    y = np.asarray(y)
    labels, counts = np.unique(y, return_counts=True)
    for label, count in zip(labels, counts):
        if count < fold_count:
            raise DegenerateDataError(
                f"label {label} has {count} members; cannot build "
                f"{fold_count} stratified folds")
    folds: list[list[int]] = [[] for _ in range(fold_count)]
    rng = np.random.default_rng(seed)
    for label in labels:
        idx = np.nonzero(y == label)[0]
        idx = idx[rng.permutation(idx.size)]
        for pos, i in enumerate(idx):
            folds[pos % fold_count].append(int(i))
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def grid_search(factory, X, y, grid: GridSpec, seed: int):
    """Pick the combination maximizing mean CV WAF, then refit on all rows.

    ``factory(params, seed)`` builds a fresh classifier for one
    combination. Ties go to the earlier combination in declared grid
    order. Only the rows passed in are ever touched, so callers hand
    over the training split and nothing else.
    """
    X = as_matrix(X)
    y = as_labels(y, X.shape[0])
    folds = stratified_kfold(y, grid.fold_count, seed)
    all_idx = np.arange(X.shape[0])
    best_params = None
    best_score = -np.inf
    for params in grid.combinations():
        scores = []
        for fold in folds:
            train_mask = np.ones(X.shape[0], dtype=bool)
            train_mask[fold] = False
            train_idx = all_idx[train_mask]
            model = factory(params, seed)
            model.fit(X[train_idx], y[train_idx])
            scores.append(waf(y[fold], model.predict(X[fold])))
        mean_score = float(np.mean(scores))
        if mean_score > best_score:
            best_score = mean_score
            best_params = params
    model = factory(best_params, seed)
    model.fit(X, y)
    return best_params, model
