"""Supervised classifiers over pair features."""

from __future__ import annotations

from ..artifacts import read_json
from .base import BinaryClassifier, Estimator
from .forest import RandomForestClassifier
from .grid import GridSpec, grid_search, stratified_kfold
from .mlp import MLPClassifier, mlp_gradient_check
from .naive_bayes import GaussianNaiveBayes

CLASSIFIER_KINDS = {
    "random_forest": RandomForestClassifier,
    "gaussian_nb": GaussianNaiveBayes,
    "mlp": MLPClassifier,
}

#: hyperparameter grids used when a run asks for grid search but
#: supplies no candidates of its own
DEFAULT_GRIDS = {
    "random_forest": {"n_trees": [100, 200, 500], "max_depth": [None, 10, 20]},
    "mlp": {"hidden_layers": [(100,), (200,), (100, 50)],
            "learning_rate": [0.01, 0.001]},
    "gaussian_nb": {},
}


def make_classifier(kind: str, params: dict | None = None,
                    seed: int = 0) -> BinaryClassifier:
    if kind not in CLASSIFIER_KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    cls = CLASSIFIER_KINDS[kind]
    params = dict(params or {})
    if kind == "mlp" and "hidden_layers" in params:
        params["hidden_layers"] = tuple(params["hidden_layers"])
    if "seed" in cls._param_names():
        params.setdefault("seed", seed)
    return cls(**params)


def fit(kind: str, X, y, hyperparameters: dict | None = None,
        seed: int = 0) -> BinaryClassifier:
    """Construct and train a classifier of the named kind."""
    return make_classifier(kind, hyperparameters, seed).fit(X, y)


def load_model(path) -> BinaryClassifier:
    """Rebuild a persisted model; predictions round-trip bit-exactly."""
    payload = read_json(path)
    model = make_classifier(payload["kind"], payload["hyperparameters"])
    model._import_state(payload["parameters"])
    return model


__all__ = [
    "BinaryClassifier", "CLASSIFIER_KINDS", "DEFAULT_GRIDS", "Estimator",
    "GaussianNaiveBayes", "GridSpec", "MLPClassifier",
    "RandomForestClassifier", "fit", "grid_search", "load_model",
    "make_classifier", "mlp_gradient_check", "stratified_kfold",
]
