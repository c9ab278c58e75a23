"""Shared embedding-training configuration and the node-vector table."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..artifacts import read_float_table, write_tsv
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
    """A `node_count<TAB>dimension` first row, then one row per node."""
    write_tsv(path, (len(table.vectors), table.dimension), (
        (node, *table.vectors[node].tolist()) for node in sorted(table.vectors)))


def _row_width(header: list[str]) -> int:
    """Cells per row under a `node_count<TAB>dimension` first row; its
    ValueError on a damaged row becomes an IntegrityError naming line 1."""
    _, dim = map(int, header)
    return dim + 1


def read_embeddings(path, method: str = "", seed: int = 0) -> EmbeddingTable:
    header, nodes, matrix = read_float_table(path, keys=1, width=_row_width)
    count, dim = map(int, header)
    vectors = {node: row for (node,), row in zip(nodes, matrix)}
    if len(vectors) != count:
        raise IntegrityError(f"{path}, line 1: expected {count} rows, found {len(vectors)}")
    return EmbeddingTable(dim, vectors, method, seed)
