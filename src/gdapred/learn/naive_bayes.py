"""Gaussian naive Bayes with a variance floor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..validation import bound
from .base import BinaryClassifier, state_array


@dataclass(eq=False)
class GaussianNaiveBayes(BinaryClassifier):
    """Per-label Gaussian likelihoods with empirical priors.

    Variances are floored at ``var_smoothing`` times the largest feature
    variance so constant features stay well-defined.
    """

    kind = "gaussian_nb"

    var_smoothing: float = bound("non-negative and finite", lambda v: v >= 0, 1e-9)

    def _fit(self, X, y):
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

    def _positive(self, X):
        jll = np.empty((X.shape[0], 2))  # joint log-likelihood per label
        for label in (0, 1):
            var = self.variances_[label]
            log_det = np.sum(np.log(2.0 * np.pi * var))
            sq = ((X - self.means_[label]) ** 2) / var
            jll[:, label] = np.log(self.priors_[label]) - 0.5 * (log_det + sq.sum(axis=1))
        exp = np.exp(jll - jll.max(axis=1, keepdims=True))
        return exp[:, 1] / exp.sum(axis=1)

    def _export_state(self) -> dict:
        return {"means": self.means_, "variances": self.variances_,
                "priors": self.priors_}

    def _import_state(self, state: dict) -> None:
        shape = (2, self.n_features_)
        self.means_ = state_array(state["means"], shape, "means")
        self.variances_ = state_array(state["variances"], shape, "variances")
        self.priors_ = state_array(state["priors"], (2,), "priors")
        if not ((self.variances_ > 0).all() and (self.priors_ > 0).all()):
            raise ValueError("variances and priors must be positive")
