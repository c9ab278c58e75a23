"""Shared embedding-training configuration and the node-vector table."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..artifacts import read_tsv, write_tsv
from ..errors import ConfigurationError, DivergenceError, IntegrityError

KGE_METHODS = ("transe", "distmult", "walk", "walk_lexical")


@dataclass
class KgeTrainConfig:
    dimension: int = 200
    epochs: int = 100
    learning_rate: float = 0.025
    margin: float = 1.0
    negatives_per_positive: int = 5
    batch_size: int = 128
    walks_per_node: int = 100
    walk_depth: int = 4
    window: int = 5
    l2_penalty: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("dimension", "epochs", "negatives_per_positive",
                     "batch_size", "walks_per_node", "walk_depth", "window"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        for name in ("learning_rate", "margin"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass
class EmbeddingTable:
    dimension: int
    vectors: dict[str, np.ndarray]
    method: str
    seed: int
    relation_vectors: dict[str, np.ndarray] = field(default_factory=dict)
    loss_history: list[float] = field(default_factory=list, compare=False)

    def __post_init__(self):
        for node, vec in self.vectors.items():
            if vec.shape != (self.dimension,):
                raise ValueError(f"vector for {node} has shape {vec.shape}")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"vector for {node} has non-finite components")


def decayed_rate(base: float, progress):
    """Linear decay with a small floor; progress (or an array of it) in [0, 1]."""
    return base * np.maximum(1.0 - progress, 1e-4)


def check_finite(method: str, epoch: int, learning_rate: float, loss: float,
                 *tables: np.ndarray) -> float:
    """Every trainer's divergence check: ``loss`` if it and every table
    entry are finite, else `DivergenceError`."""
    if np.isfinite(loss) and all(np.isfinite(t).all() for t in tables):
        return loss
    raise DivergenceError(f"{method}: non-finite loss or parameters at epoch "
                          f"{epoch} (learning_rate={learning_rate})")


def scatter_add(table: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """``np.add.at(table, index, rows)`` for 2-D ``table`` and ``rows``.

    Rows that share an index are summed by one ``np.bincount`` over
    (touched rows x columns), in input order, and each touched row of
    ``table`` is updated once; rows not in ``index`` are never read.
    """
    touched, slot = np.unique(index, return_inverse=True)
    dim = table.shape[1]
    flat = np.add.outer(slot * dim, np.arange(dim)).ravel()
    sums = np.bincount(flat, np.ravel(rows), minlength=touched.size * dim)
    table[touched] += sums.reshape(touched.size, dim)


def write_embeddings(table: EmbeddingTable, path) -> None:
    """A `node_count<TAB>dimension` first row, then one row per node."""
    write_tsv(path, (len(table.vectors), table.dimension), (
        (node, *table.vectors[node].tolist()) for node in sorted(table.vectors)))


def read_embeddings(path, method: str = "", seed: int = 0) -> EmbeddingTable:
    rows = read_tsv(path, width=lambda first: int(first[1]) + 1)
    count, dim = map(int, next(rows))
    vectors = {node: np.array(list(map(float, values)), dtype=np.float64)
               for node, *values in rows}
    if len(vectors) != count:
        raise IntegrityError(f"{path}, line 1: expected {count} rows, found {len(vectors)}")
    return EmbeddingTable(dim, vectors, method, seed)
