"""Fully connected network: ReLU hidden layers, logistic output.

Trained with mini-batch gradient descent plus momentum on the binary
cross-entropy, raising `DivergenceError` once a weight is non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateDataError, DivergenceError
from ..validation import as_labels, as_matrix, at_least, bound, check_fitted
from .base import BinaryClassifier

Params = list[tuple[np.ndarray, np.ndarray]]  # (weights, biases) per layer


def _init_params(layer_sizes, rng) -> Params:
    params = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params.append((W, np.zeros(fan_out)))
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # split by sign so neither exp() overflows
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def _forward(params: Params, X: np.ndarray):
    """Activations per layer; hidden ReLU, logistic output column."""
    activations = [X]
    pre = []
    a = X
    for i, (W, b) in enumerate(params):
        z = a @ W + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(params) - 1 else _sigmoid(z)
        activations.append(a)
    return activations, pre


def _loss(params: Params, X: np.ndarray, y: np.ndarray) -> float:
    p = _forward(params, X)[0][-1][:, 0]
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _backward(params: Params, X: np.ndarray, y: np.ndarray):
    """Mean-cross-entropy gradients for every weight matrix and bias."""
    n = X.shape[0]
    activations, pre = _forward(params, X)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params)
    delta = (activations[-1][:, 0] - y).reshape(-1, 1) / n
    for layer in range(len(params) - 1, -1, -1):
        W, _ = params[layer]
        grads[layer] = (activations[layer].T @ delta, delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ W.T) * (pre[layer - 1] > 0.0)
    return grads


@dataclass(eq=False)
class MLPClassifier(BinaryClassifier):
    """``hidden_layers`` lists the hidden layer widths, kept as a tuple."""

    kind = "mlp"
    _fitted_attribute = "params_"

    hidden_layers: tuple[int, ...] = at_least(1, (100,))
    learning_rate: float = bound("positive and finite", lambda v: v > 0, 0.01)
    epochs: int = at_least(1, 200)
    batch_size: int = at_least(1, 32)
    momentum: float = bound("in [0, 1)", lambda v: 0 <= v < 1, 0.9)
    seed: int = at_least(0, 0)

    def fit(self, X, y):
        X = as_matrix(X)
        y = as_labels(y, X.shape[0])
        if np.unique(y).size < 2:
            raise DegenerateDataError("training data has a single label")
        self.n_features_ = X.shape[1]
        sizes = [X.shape[1], *self.hidden_layers, 1]
        rng = np.random.default_rng(self.seed)
        params = _init_params(sizes, rng)
        velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
        y_float = y.astype(np.float64)
        n = X.shape[0]
        for epoch in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start:start + self.batch_size]
                grads = _backward(params, X[batch], y_float[batch])
                for layer, (gW, gb) in enumerate(grads):
                    vW, vb = velocity[layer]
                    vW = self.momentum * vW - self.learning_rate * gW
                    vb = self.momentum * vb - self.learning_rate * gb
                    W, b = params[layer]
                    params[layer] = (W + vW, b + vb)
                    velocity[layer] = (vW, vb)
            if not all(np.isfinite(p).all() for layer in params for p in layer):
                raise DivergenceError(f"mlp: non-finite weights at epoch {epoch} "
                                      f"(learning_rate={self.learning_rate})")
        self.params_ = params
        return self

    def predict_proba(self, X):
        check_fitted(self, "params_")
        X = self._check_input(X, self.n_features_)
        p = _forward(self.params_, X)[0][-1][:, 0]
        return self._stack_proba(p)

    def _export_state(self) -> dict:
        return {
            "n_features": self.n_features_,
            "weights": [W.tolist() for W, _ in self.params_],
            "biases": [b.tolist() for _, b in self.params_],
        }

    def _import_state(self, state: dict) -> None:
        self.n_features_ = state["n_features"]
        self.params_ = [
            (np.asarray(W, dtype=np.float64), np.asarray(b, dtype=np.float64))
            for W, b in zip(state["weights"], state["biases"])
        ]

