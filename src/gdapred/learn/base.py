"""The classifier contract: input checks, fitted state and persistence."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ..artifacts import decode_array, write_json
from ..errors import DegenerateDataError
from ..validation import as_labels, as_matrix, check_fields, check_fitted


class BinaryClassifier:
    """Base of the classifiers: dataclasses whose fields are their
    hyperparameters, each checked against its annotation and bound.

    The base checks rows and labels, records the fitted width
    ``n_features_`` and persists it. A subclass sets ``kind`` and
    provides only its algorithm: ``_fit(X, y)`` on checked inputs,
    ``_positive(X)``, the positive-label probability of each checked
    row, and ``_export_state`` / ``_import_state`` of what ``_fit``
    learned, its float64 arrays as they are, which the model file holds
    as exact bytes (`state_array` reads one back); ``_import_state``
    runs with ``n_features_`` set and raises ValueError for a state that
    does not fit it and the hyperparameters.
    Hyperparameters travel via ``get_params``.
    """

    def __post_init__(self):
        check_fields(self, f"{self.kind} ")

    def get_params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def fit(self, X, y):
        """Fit on float rows and 0/1 labels of both values. A fit that
        raises leaves the model unfitted."""
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        # return_counts skips plain np.unique's check for a masked
        # array, whose first use imports numpy.ma
        if np.unique(y, return_counts=True)[0].size < 2:
            raise DegenerateDataError("training data has a single label")
        if X.shape[1] == 0:
            raise DegenerateDataError("training data has no feature columns")
        vars(self).pop("n_features_", None)
        self._fit(X, y)
        self.n_features_ = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Columns: the probability of label 0, then of label 1."""
        check_fitted(self, "n_features_")
        X = as_matrix(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(f"feature dimension mismatch: trained with "
                             f"{self.n_features_}, got {X.shape[1]}")
        pos = np.clip(self._positive(X), 0.0, 1.0)
        return np.column_stack([1.0 - pos, pos])

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int64)

    def save(self, path) -> None:
        check_fitted(self, "n_features_")
        write_json(path, {"kind": self.kind, "hyperparameters": self.get_params(),
                          "parameters": {"n_features": self.n_features_,
                                         **self._export_state()}}, one_line=True)


def state_array(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` of a model file, an array `write_json` encoded, as a
    float64 array; a damaged encoding, another shape or a non-finite
    value raises ValueError naming it."""
    array = decode_array(value, name)
    if array.shape != shape:
        raise ValueError(f"{name} has shape {array.shape}, expected {shape}")
    return array
