"""Input validation helpers shared by the estimator-style components."""

from __future__ import annotations

import numpy as np


def as_matrix(X, name: str = "X") -> np.ndarray:
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def as_labels(y, n_rows: int | None = None) -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"labels must be 1-dimensional, got shape {arr.shape}")
    if n_rows is not None and arr.shape[0] != n_rows:
        raise ValueError(f"row/label count mismatch: {n_rows} rows, {arr.shape[0]} labels")
    # checked before the cast, which would truncate 0.5 to 0
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    return arr.astype(np.int64)


def as_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_same_dimension(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise ValueError(
            f"{type(estimator).__name__} is not fitted yet; call fit first")
