"""Shared embedding-training configuration and the node-vector table."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..artifacts import read_matrix, write_matrix
from ..errors import DivergenceError, IntegrityError
from ..validation import at_least, bound, check_fields

KGE_METHODS = ("transe", "distmult", "walk", "walk_lexical")


@dataclass
class KgeTrainConfig:
    dimension: int = at_least(1, 200)
    epochs: int = at_least(1, 100)
    learning_rate: float = bound("positive and finite", lambda v: v > 0, 0.025)
    margin: float = bound("positive and finite", lambda v: v > 0, 1.0)
    negatives_per_positive: int = at_least(1, 5)
    batch_size: int = at_least(1, 128)
    walks_per_node: int = at_least(1, 100)
    walk_depth: int = at_least(1, 4)
    window: int = at_least(1, 5)
    l2_penalty: float = bound("non-negative and finite", lambda v: v >= 0, 1e-4)
    seed: int = at_least(0, 0)

    def __post_init__(self):
        check_fields(self)


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


def scatter_add(table: np.ndarray, index: np.ndarray, rows: np.ndarray,
                flat: np.ndarray) -> np.ndarray:
    """``np.add.at(table, index, rows)`` for 2-D ``table`` and ``rows``;
    returns the touched rows of ``table``, sorted.

    Rows that share an index are summed by one ``np.bincount`` over
    (touched rows x columns), in input order, and each touched row of
    ``table`` is updated once; rows not in ``index`` are never read.
    The bincount's index, one entry per element of ``rows``, is written
    to ``flat``, an intp array of at least ``rows.size`` entries that a
    caller scattering every batch makes once.
    """
    touched, slot = np.unique(index, return_inverse=True)
    dim = table.shape[1]
    flat = flat[:rows.size]
    np.add(slot[:, None] * dim, np.arange(dim), out=flat.reshape(slot.size, dim))
    sums = np.bincount(flat, np.ravel(rows), minlength=touched.size * dim)
    table[touched] += sums.reshape(touched.size, dim)
    return touched


def write_embeddings(table: EmbeddingTable, path) -> None:
    """One row per node, in sorted node order."""
    nodes = sorted(table.vectors)
    write_matrix(path, nodes, np.reshape(
        [table.vectors[node] for node in nodes], (len(nodes), table.dimension)))


def read_embeddings(path, method: str = "", seed: int = 0) -> EmbeddingTable:
    nodes, matrix = read_matrix(path)
    vectors = dict(zip(nodes, matrix))
    if len(vectors) != len(nodes):
        repeated = next(n for i, n in enumerate(nodes) if n in nodes[:i])
        raise IntegrityError(f"{path}: node {repeated!r} has more than one row")
    return EmbeddingTable(matrix.shape[1], vectors, method, seed)
