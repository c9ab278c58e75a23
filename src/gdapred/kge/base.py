"""Shared embedding-training configuration and the node-vector table."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import lt

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


def _table_fault(ids: list[str], matrix: np.ndarray) -> str | None:
    """Why ``ids`` and ``matrix`` are no table (one row per id, the ids
    sorted and distinct, every row finite), or None."""
    if matrix.ndim != 2 or len(matrix) != len(ids):
        return f"{len(ids)} ids for a matrix of shape {matrix.shape}"
    if not all(map(lt, ids, ids[1:])):
        repeated = [node for node, count in Counter(ids).items() if count > 1]
        return (f"node {repeated[0]!r} has more than one row" if repeated
                else "the ids are not sorted")
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        return f"vector for {ids[int(np.argmin(finite))]} has non-finite components"
    return None


@dataclass
class EmbeddingTable:
    """Node vectors as the sorted, distinct node ids and one C-contiguous
    float64 matrix, row i the vector of ``nodes[i]``; a translational
    trainer also keeps its sorted relations and their matrix. A table
    that breaks this raises ValueError."""
    nodes: list[str]
    matrix: np.ndarray
    method: str
    relations: list[str] = field(default_factory=list)
    relation_matrix: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    loss_history: list[float] = field(default_factory=list, compare=False)

    def __post_init__(self):
        self.matrix, self.relation_matrix = (np.ascontiguousarray(m, dtype=np.float64)
                                             for m in (self.matrix, self.relation_matrix))
        fault = (_table_fault(self.nodes, self.matrix)
                 or _table_fault(self.relations, self.relation_matrix))
        if fault:
            raise ValueError(fault)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]


def decayed_rate(base: float, progress):
    """Linear decay with a small floor; progress (or an array of it) in [0, 1]."""
    return base * np.maximum(1.0 - progress, 1e-4)


def softplus(z: np.ndarray) -> np.ndarray:
    """``np.logaddexp(0, z)`` as ``max(z, 0) + log1p(exp(-|z|))``: vector
    ``exp`` and ``log1p`` calls, which cost a quarter of logaddexp's
    scalar ones per entry. ``exp`` sees only ``-|z| <= 0``, so nothing
    overflows; NaN stays NaN."""
    out = np.abs(z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


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
    write_matrix(path, table.nodes, table.matrix)


def read_embeddings(path) -> EmbeddingTable:
    """The table `write_embeddings` saved, its method "" (the file keeps
    none); IntegrityError names the file if its rows do not form a table."""
    nodes, matrix = read_matrix(path)
    try:
        return EmbeddingTable(nodes, matrix, "")
    except ValueError as err:
        raise IntegrityError(f"{path}: {err}") from None
