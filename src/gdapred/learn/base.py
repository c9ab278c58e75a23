"""Estimator base class: parameter introspection and model persistence."""

from __future__ import annotations

import inspect

import numpy as np

from ..artifacts import write_json
from ..validation import as_matrix, check_fitted


class Estimator:
    """Minimal fit/predict estimator contract.

    Hyperparameters are the keyword arguments of ``__init__`` and are
    stored verbatim on the instance, which lets ``get_params`` /
    ``set_params`` drive grid search and persistence. ``set_params``
    checks the merged hyperparameters through ``__init__``.
    """

    kind = "estimator"

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "Estimator":
        valid = set(self._param_names())
        for name in params:
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}")
        checked = type(self)(**{**self.get_params(), **params})
        for name in params:
            setattr(self, name, getattr(checked, name))
        return self

    def clone(self) -> "Estimator":
        return type(self)(**self.get_params())

    def __repr__(self):
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"


class BinaryClassifier(Estimator):
    """Adds the shared predict surface over ``predict_proba``."""

    def predict_proba(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:
        return (self.predict_proba(X)[:, 1] > 0.5).astype(np.int64)

    # -- persistence ----------------------------------------------------
    # Subclasses provide _export_state / _import_state for the fitted
    # parameters; hyperparameters travel via get_params.

    def _export_state(self) -> dict:
        raise NotImplementedError

    def _import_state(self, state: dict) -> None:
        raise NotImplementedError

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

