"""Gaussian naive Bayes with a variance floor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateDataError
from ..validation import as_labels, as_matrix, bound, check_fitted
from .base import BinaryClassifier


@dataclass(eq=False)
class GaussianNaiveBayes(BinaryClassifier):
    """Per-label Gaussian likelihoods with empirical priors.

    Variances are floored at ``var_smoothing`` times the largest feature
    variance so constant features stay well-defined.
    """

    kind = "gaussian_nb"
    _fitted_attribute = "means_"

    var_smoothing: float = bound("non-negative and finite", lambda v: v >= 0, 1e-9)

    def fit(self, X, y):
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        if np.unique(y).size < 2:
            raise DegenerateDataError("training data has a single label")
        self.n_features_ = X.shape[1]
        floor = self.var_smoothing * float(np.var(X, axis=0).max())
        self.means_ = np.empty((2, X.shape[1]))
        self.variances_ = np.empty((2, X.shape[1]))
        self.priors_ = np.empty(2)
        for label in (0, 1):
            rows = X[y == label]
            self.means_[label] = rows.mean(axis=0)
            self.variances_[label] = np.maximum(rows.var(axis=0), floor)
            if not np.all(self.variances_[label] > 0):
                # every feature constant and identical: fall back to a tiny floor
                self.variances_[label] = np.maximum(self.variances_[label], 1e-12)
            self.priors_[label] = rows.shape[0] / X.shape[0]
        return self

    def _joint_log_likelihood(self, X):
        jll = np.empty((X.shape[0], 2))
        for label in (0, 1):
            var = self.variances_[label]
            log_det = np.sum(np.log(2.0 * np.pi * var))
            sq = ((X - self.means_[label]) ** 2) / var
            jll[:, label] = np.log(self.priors_[label]) - 0.5 * (log_det + sq.sum(axis=1))
        return jll

    def predict_proba(self, X):
        check_fitted(self, "means_")
        X = self._check_input(X, self.n_features_)
        jll = self._joint_log_likelihood(X)
        shift = jll.max(axis=1, keepdims=True)
        exp = np.exp(jll - shift)
        return exp / exp.sum(axis=1, keepdims=True)

    def _export_state(self) -> dict:
        return {
            "n_features": self.n_features_,
            "means": self.means_.tolist(),
            "variances": self.variances_.tolist(),
            "priors": self.priors_.tolist(),
        }

    def _import_state(self, state: dict) -> None:
        self.n_features_ = state["n_features"]
        self.means_ = np.asarray(state["means"], dtype=np.float64)
        self.variances_ = np.asarray(state["variances"], dtype=np.float64)
        self.priors_ = np.asarray(state["priors"], dtype=np.float64)
