"""Fully connected network: ReLU hidden layers, logistic output.

Trained with mini-batch gradient descent plus classical momentum
(Sutskever et al. 2013) on the binary cross-entropy, raising
`DivergenceError` once a weight is non-finite.

The weights and biases of all layers are one float64 vector, each
layer's ``W`` and ``b`` a reshaped view of it, and the gradient is a
second vector of the same layout that `_backward`, the backprop the
gradient check also calls, fills in place. A step is then three in-place
passes over whole vectors, ``v *= m; v -= lr * g; theta += v``: the
per-element operations of ``v = m·v − lr·g; W = W + v`` written per
layer, so the weights are the same to the bit, and the update builds no
array. ``tests/mlp_reference.py`` keeps the per-layer form as the oracle.
A model file holds that one vector, ``theta``, as exact bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DivergenceError
from ..validation import at_least, bound
from .base import BinaryClassifier, state_array

Params = list[tuple[np.ndarray, np.ndarray]]  # (weights, biases) per layer


def _vector_size(layer_sizes) -> int:
    return sum(fan_in * fan_out + fan_out
               for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def _views(vector: np.ndarray, layer_sizes) -> Params:
    """Each layer's ``(W, b)`` as views of ``vector``, which holds the
    layers in order, each its row-major ``W`` and then its ``b``."""
    params, start = [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        stop = start + fan_in * fan_out
        params.append((vector[start:stop].reshape(fan_in, fan_out),
                       vector[stop:stop + fan_out]))
        start = stop + fan_out
    return params


def _init_params(layer_sizes, rng) -> np.ndarray:
    """The parameter vector: Glorot-uniform weights drawn layer by layer,
    zero biases."""
    vector = np.zeros(_vector_size(layer_sizes))
    for W, _ in _views(vector, layer_sizes):
        limit = np.sqrt(6.0 / (W.shape[0] + W.shape[1]))
        W[...] = rng.uniform(-limit, limit, size=W.shape)
    return vector


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # e^-|z| never overflows: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _forward(params: Params, X: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, ``X`` first; hidden ReLU, logistic output
    column."""
    activations = [X]
    for i, (W, b) in enumerate(params):
        z = activations[-1] @ W
        z += b
        activations.append(np.maximum(z, 0.0, out=z) if i < len(params) - 1
                           else _sigmoid(z))
    return activations


def _backward(params: Params, grads: Params, X: np.ndarray, y: np.ndarray) -> None:
    """Write the mean-cross-entropy gradient of every weight matrix and
    bias into ``grads``, arrays of the shapes of ``params``."""
    n = X.shape[0]
    activations = _forward(params, X)
    delta = (activations[-1][:, 0] - y).reshape(-1, 1) / n
    for layer in range(len(params) - 1, -1, -1):
        gW, gb = grads[layer]
        np.matmul(activations[layer].T, delta, out=gW)
        np.sum(delta, axis=0, out=gb)
        if layer > 0:
            W = params[layer][0]
            # one column: an outer product, the bits of the matmul without BLAS
            delta = delta * W.T if W.shape[1] == 1 else delta @ W.T
            delta *= activations[layer] > 0.0  # ReLU output > 0 where its input is


@dataclass(eq=False)
class MLPClassifier(BinaryClassifier):
    """``hidden_layers`` lists the hidden layer widths, kept as a tuple."""

    kind = "mlp"

    hidden_layers: tuple[int, ...] = at_least(1, (100,))
    learning_rate: float = bound("positive and finite", lambda v: v > 0, 0.01)
    epochs: int = at_least(1, 200)
    batch_size: int = at_least(1, 32)
    momentum: float = bound("in [0, 1)", lambda v: 0 <= v < 1, 0.9)
    seed: int = at_least(0, 0)

    def _layer_sizes(self, n_features: int) -> list[int]:
        return [n_features, *self.hidden_layers, 1]

    def _fit(self, X, y):
        sizes = self._layer_sizes(X.shape[1])
        rng = np.random.default_rng(self.seed)
        theta = _init_params(sizes, rng)
        grad, velocity = np.empty_like(theta), np.zeros_like(theta)
        params, grads = _views(theta, sizes), _views(grad, sizes)
        y_float = y.astype(np.float64)
        n = X.shape[0]
        for epoch in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start:start + self.batch_size]
                _backward(params, grads, X[batch], y_float[batch])
                velocity *= self.momentum
                velocity -= self.learning_rate * grad
                theta += velocity
            if not np.isfinite(theta).all():
                raise DivergenceError(f"mlp: non-finite weights at epoch {epoch} "
                                      f"(learning_rate={self.learning_rate})")
        self.theta_, self.params_ = theta, params

    def _positive(self, X):
        return _forward(self.params_, X)[-1][:, 0]

    def _export_state(self) -> dict:
        return {"theta": self.theta_}

    def _import_state(self, state: dict) -> None:
        sizes = self._layer_sizes(self.n_features_)
        theta = state_array(state["theta"], (_vector_size(sizes),), "theta")
        self.theta_, self.params_ = theta, _views(theta, sizes)
