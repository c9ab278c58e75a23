"""Supervised classifiers over pair features."""

from __future__ import annotations

from dataclasses import fields

from ..artifacts import read_json
from ..errors import IntegrityError
from .base import BinaryClassifier
from .forest import RandomForestClassifier
from .grid import GridSpec, grid_search, stratified_kfold
from .mlp import MLPClassifier
from .naive_bayes import GaussianNaiveBayes

CLASSIFIER_KINDS = {cls.kind: cls for cls in (
    RandomForestClassifier, GaussianNaiveBayes, MLPClassifier)}

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
    """A fresh classifier of ``kind``, seeded with ``seed`` unless
    ``params`` names a seed of its own."""
    if kind not in CLASSIFIER_KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    cls = CLASSIFIER_KINDS[kind]
    params = dict(params or {})
    if any(f.name == "seed" for f in fields(cls)):
        params.setdefault("seed", seed)
    return cls(**params)


def load_model(path) -> BinaryClassifier:
    """Rebuild a persisted model; predictions round-trip bit-exactly. A
    file that does not hold a model of a known kind raises
    `IntegrityError` naming it."""
    try:
        payload = read_json(path)
        model = make_classifier(payload["kind"], payload["hyperparameters"])
        state = payload["parameters"]
        model._import_state(state)
        model.n_features_ = state["n_features"]
    except KeyError as err:
        raise IntegrityError(f"{path}: model file lacks the key {err}") from err
    except (TypeError, ValueError) as err:
        raise IntegrityError(f"{path}: not a model file: {err}") from err
    return model


__all__ = [
    "BinaryClassifier", "CLASSIFIER_KINDS", "DEFAULT_GRIDS",
    "GaussianNaiveBayes", "GridSpec", "MLPClassifier",
    "RandomForestClassifier", "grid_search", "load_model",
    "make_classifier", "stratified_kfold",
]
