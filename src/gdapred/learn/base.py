"""Shared classifier surface: hyperparameter checks and model persistence."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ..artifacts import write_json
from ..validation import as_matrix, check_fields, check_fitted


class BinaryClassifier:
    """Base of the classifiers: dataclasses whose fields are their
    hyperparameters, each checked against its annotation and bound.

    A subclass sets ``kind`` and ``_fitted_attribute`` and provides
    ``fit``, ``predict_proba`` and, for persistence, ``_export_state`` /
    ``_import_state`` of the fitted parameters; hyperparameters travel
    via ``get_params``.
    """

    def __post_init__(self):
        check_fields(self, f"{self.kind} ")

    def get_params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int64)

    def save(self, path) -> None:
        check_fitted(self, self._fitted_attribute)
        write_json(path, {"kind": self.kind, "hyperparameters": self.get_params(),
                          "parameters": self._export_state()})

    @staticmethod
    def _stack_proba(pos: np.ndarray) -> np.ndarray:
        pos = np.clip(pos, 0.0, 1.0)
        return np.column_stack([1.0 - pos, pos])

    def _check_input(self, X, expected_dim: int) -> np.ndarray:
        X = as_matrix(X)
        if X.shape[1] != expected_dim:
            raise ValueError(
                f"feature dimension mismatch: trained with {expected_dim}, got {X.shape[1]}")
        return X
