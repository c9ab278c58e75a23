"""Reference MLP trainer: per-layer ``(W, b)`` tuples, rebuilt each step.

This is the straightforward form of `gdapred.learn.MLPClassifier`'s
training: the same Glorot-uniform initialisation and draw order, the
same per-epoch permutation and batches, the same backprop, and classical
momentum (Sutskever et al. 2013) written per layer as
``v = m * v - lr * g; W = W + v``, each step building new weight, bias
and velocity arrays. Tests compare the flat-vector trainer against it;
it is not used by the package.
"""

import numpy as np

from gdapred.errors import DivergenceError


def _init_params(layer_sizes, rng):
    params = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params.append((W, np.zeros(fan_out)))
    return params


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    expz = np.exp(z[~pos])
    out[~pos] = expz / (1.0 + expz)
    return out


def _forward(params, X):
    activations = [X]
    pre = []
    a = X
    for i, (W, b) in enumerate(params):
        z = a @ W + b
        pre.append(z)
        a = np.maximum(z, 0.0) if i < len(params) - 1 else _sigmoid(z)
        activations.append(a)
    return activations, pre


def _backward(params, X, y):
    n = X.shape[0]
    activations, pre = _forward(params, X)
    grads = [None] * len(params)
    delta = (activations[-1][:, 0] - y).reshape(-1, 1) / n
    for layer in range(len(params) - 1, -1, -1):
        W, _ = params[layer]
        grads[layer] = (activations[layer].T @ delta, delta.sum(axis=0))
        if layer > 0:
            delta = (delta @ W.T) * (pre[layer - 1] > 0.0)
    return grads


def train_mlp_reference(X, y, hidden_layers=(100,), learning_rate=0.01,
                        epochs=200, batch_size=32, momentum=0.9, seed=0):
    """The (W, b) of every layer after training on float rows ``X`` and
    0/1 labels ``y``."""
    X = np.asarray(X, dtype=np.float64)
    sizes = [X.shape[1], *hidden_layers, 1]
    rng = np.random.default_rng(seed)
    params = _init_params(sizes, rng)
    velocity = [(np.zeros_like(W), np.zeros_like(b)) for W, b in params]
    y_float = np.asarray(y).astype(np.float64)
    n = X.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start:start + batch_size]
            grads = _backward(params, X[batch], y_float[batch])
            for layer, (gW, gb) in enumerate(grads):
                vW, vb = velocity[layer]
                vW = momentum * vW - learning_rate * gW
                vb = momentum * vb - learning_rate * gb
                W, b = params[layer]
                params[layer] = (W + vW, b + vb)
                velocity[layer] = (vW, vb)
        if not all(np.isfinite(p).all() for layer in params for p in layer):
            raise DivergenceError(f"mlp: non-finite weights at epoch {epoch}")
    return params


def predict_proba_reference(params, X):
    """Columns: the probability of label 0, then of label 1."""
    pos = np.clip(_forward(params, np.asarray(X, dtype=np.float64))[0][-1][:, 0],
                  0.0, 1.0)
    return np.column_stack([1.0 - pos, pos])
