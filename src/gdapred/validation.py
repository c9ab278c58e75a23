"""Checks of configuration dataclass fields and of array inputs."""

from __future__ import annotations

import functools
import numbers
import sys
import types
import typing
from dataclasses import MISSING, field, fields

import numpy as np

from .errors import ConfigurationError

_KINDS = {int: ("an integer", numbers.Integral), float: ("a finite number", numbers.Real),
          str: ("a string", str), list: ("a list", list), dict: ("a mapping", dict)}


def bound(must: str, ok, default=MISSING, **kwargs):
    """A dataclass field whose value, or each plain value inside it,
    must pass ``ok``; ``must`` says what it must be."""
    return field(default=default, metadata={"bound": (must, ok)}, **kwargs)


def at_least(low: int, default=MISSING, **kwargs):
    must = "a non-negative integer" if low == 0 else f"an integer of at least {low}"
    return bound(must, lambda v: v >= low, default, **kwargs)


def one_of(choices, **kwargs):
    return bound("one of " + ", ".join(map(repr, choices)),
                 lambda v: v in choices, **kwargs)


def check_fields(obj, prefix: str = "") -> None:
    """Check each field of the dataclass ``obj``, frozen or not, against
    its annotation and bound, and store it in its annotated container:
    a `_KINDS` key, ``X | None``, ``list``/``set``/``tuple[X, ...]`` or
    ``dict[str, X]``. An integer must fit in int64, and a ``list[X]``
    must not repeat a value. A failure raises `ConfigurationError` naming
    ``prefix`` and the key path, what the value must be, and the value."""
    for name, hint, bound_ in _field_checks(type(obj)):
        value = _checked(getattr(obj, name), hint, bound_, prefix + name)
        object.__setattr__(obj, name, value)


@functools.cache
def _field_checks(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata.get("bound")) for f in fields(cls))


def _checked(value, hint, bound_, path: str):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _checked(value, args[0], bound_, path)
    if origin is dict:
        if isinstance(value, dict):
            return {k: _checked(v, args[1], bound_, f"{path}.{k}")
                    for k, v in value.items()}
        must = "a mapping"
    elif origin is not None:  # list, set or tuple
        if isinstance(value, (list, tuple, set)):
            items = [_checked(v, args[0], bound_, f"{path}[{i}]")
                     for i, v in enumerate(value)]
            for i, v in enumerate(items):
                if origin is list and v in items[:i]:
                    raise ConfigurationError(f"{path}[{i}] repeats {v!r}")
            return origin(items)
        must = "a list"
    else:
        must, kind = _KINDS[hint]
        must, ok = bound_ or (must, lambda v: True)
        if hint is int and isinstance(value, kind) and not -2**63 <= value < 2**63:
            must = "an integer that fits in int64"
        elif (isinstance(value, kind) and not isinstance(value, bool)  # a float64 for a float
                and (hint is not float or abs(value) <= sys.float_info.max) and ok(value)):
            return value
    raise ConfigurationError(f"{path} must be {must}, got {value!r}")


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


def check_fitted(estimator, attribute: str) -> None:
    if not hasattr(estimator, attribute):
        raise ValueError(
            f"{type(estimator).__name__} is not fitted yet; call fit first")
