"""Pair representations r(g, d) from gene and disease vectors."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from .artifacts import read_matrix, write_matrix
from .errors import IntegrityError, ZeroVectorError

if TYPE_CHECKING:
    from .evaluation import AssociationDataset
    from .kge import EmbeddingTable

#: operator -> its rule over the last axis; only concatenation is not symmetric
_OPERATORS = {
    "concatenation": lambda g, d: np.concatenate([g, d], axis=-1),
    "average": lambda g, d: (g + d) / 2.0,
    "hadamard": lambda g, d: g * d,
    "weighted_l1": lambda g, d: np.abs(g - d),
    "weighted_l2": lambda g, d: (g - d) ** 2,
}
PAIR_OPERATORS = tuple(_OPERATORS)


def _gene_disease(g, d) -> tuple[np.ndarray, np.ndarray]:
    """Both as float64 arrays of one shape, one vector or (n, d) rows, all finite."""
    g, d = np.asarray(g, dtype=np.float64), np.asarray(d, dtype=np.float64)
    if g.shape != d.shape or g.ndim not in (1, 2):
        raise ValueError(f"dimension mismatch or not 1-D/2-D: {g.shape} vs {d.shape}")
    if not (np.isfinite(g).all() and np.isfinite(d).all()):
        raise ValueError("gene or disease vectors contain NaN or infinite values")
    return g, d


def combine(g, d, operator: str) -> np.ndarray:
    """Combine gene and disease vectors into pair feature vectors: one
    pair, or row i of ``g`` with row i of ``d``."""
    if operator not in _OPERATORS:
        raise ValueError(f"unknown pair operator {operator!r}")
    return _OPERATORS[operator](*_gene_disease(g, d))


def _scaled_to_unit(x: np.ndarray) -> np.ndarray:
    """Each vector of ``x`` times the power of two that brings its largest
    magnitude into [0.5, 1). The scaling is exact, so ordinary vectors keep
    their cosine to the bit, and the squared norms of tiny or huge vectors
    neither underflow nor overflow."""
    return np.ldexp(x, -np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))[1])


def cosine(g, d) -> float | np.ndarray:
    """Cosine similarity in [-1, 1] of one pair (a float) or of each row
    pair (an array); zero vectors are rejected."""
    g, d = map(_scaled_to_unit, _gene_disease(g, d))
    # np.vecdot keeps np.dot's bits, so these are np.linalg.norm's sqrt(x . x)
    ng, nd = np.sqrt(np.vecdot(g, g)), np.sqrt(np.vecdot(d, d))
    if not (ng.all() and nd.all()):
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    # rounding can push parallel vectors a hair past +-1
    cs = np.clip(np.vecdot(g, d) / (ng * nd), -1.0, 1.0)
    return float(cs) if cs.ndim == 0 else cs


def cosine_unit_score(g, d) -> float | np.ndarray:
    """Cosine mapped to [0, 1] via (1 + cs) / 2 for threshold sweeps."""
    return (1.0 + cosine(g, d)) / 2.0


def pair_vectors(dataset: "AssociationDataset",
                 table: "EmbeddingTable") -> tuple[np.ndarray, np.ndarray]:
    """The gene rows and the disease rows of every dataset pair, in
    dataset order; IntegrityError names the entities ``table`` lacks."""
    # object arrays compare as str does: a numpy str array drops trailing NULs
    nodes = np.array(table.nodes, dtype=object)
    wanted = np.array([*dataset.genes, *dataset.diseases], dtype=object)
    # the table's nodes are sorted, so a node's row is where its id sorts
    rows = np.searchsorted(nodes, wanted)
    found = rows < len(nodes)
    found[found] = nodes[rows[found]] == wanted[found]
    if not found.all():
        raise IntegrityError("entities without embedding vectors: "
                             + ", ".join(sorted(set(wanted[~found].tolist()))))
    genes, diseases = np.split(rows, [len(dataset.genes)])
    return table.matrix[genes], table.matrix[diseases]


def build_pair_features(dataset: "AssociationDataset", table: "EmbeddingTable",
                        operators: Iterable[str]) -> dict[str, np.ndarray]:
    """Each pair operator's feature matrix, one row per dataset pair in
    dataset order, from the pairs' embedding vectors, gathered once."""
    vectors = pair_vectors(dataset, table)
    out = {}
    for operator in operators:
        rows = combine(*vectors, operator)
        if not np.all(np.isfinite(rows)):
            raise IntegrityError("pair features contain non-finite entries")
        out[operator] = rows
    return out


def write_pair_features(ids: list[tuple[str, str]], rows: np.ndarray, path) -> None:
    """``rows``, row i with the id ``gene<TAB>disease`` of the pair ``ids[i]``."""
    write_matrix(path, [f"{g}\t{d}" for g, d in ids], rows)


def read_pair_features(path) -> tuple[list[tuple[str, str]], np.ndarray]:
    """The (gene id, disease id) of each row and the feature matrix."""
    return read_matrix(path, cells=2)
