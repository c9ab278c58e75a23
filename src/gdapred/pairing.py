"""Pair representations r(g, d) from gene and disease vectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import read_tsv, write_tsv
from .errors import IntegrityError, ZeroVectorError
from .ontology import EntityId

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


def cosine(g, d) -> float | np.ndarray:
    """Cosine similarity in [-1, 1] of one pair (a float) or of each row
    pair (an array); zero vectors are rejected."""
    g, d = _gene_disease(g, d)
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


@dataclass
class PairFeatures:
    rows: np.ndarray  # one row per dataset pair, in dataset order
    pairs: list[tuple[EntityId, EntityId]]


def pair_vectors(dataset: "AssociationDataset",
                 table: "EmbeddingTable") -> tuple[np.ndarray, np.ndarray]:
    """The gene rows and the disease rows of every dataset pair, in
    dataset order; IntegrityError names the entities ``table`` lacks."""
    vectors = table.vectors
    missing = sorted({e.node_id for p in dataset.pairs for e in p.key} - vectors.keys())
    if missing:
        raise IntegrityError("entities without embedding vectors: " + ", ".join(missing))
    return (np.array([vectors[p.gene.node_id] for p in dataset.pairs]),
            np.array([vectors[p.disease.node_id] for p in dataset.pairs]))


def build_pair_features(dataset: "AssociationDataset", table: "EmbeddingTable",
                        operator: str) -> PairFeatures:
    """Apply a pair operator to every dataset pair's embedding vectors."""
    rows = combine(*pair_vectors(dataset, table), operator)
    if not np.all(np.isfinite(rows)):
        raise IntegrityError("pair features contain non-finite entries")
    return PairFeatures(rows, [p.key for p in dataset.pairs])


def write_pair_features(features: PairFeatures, path) -> None:
    width = features.rows.shape[1]
    write_tsv(path, ("gene", "disease", *(f"f{i}" for i in range(width))), (
        (gene.id, disease.id, *row)
        for (gene, disease), row in zip(features.pairs, features.rows.tolist())))


def read_pair_features(path) -> PairFeatures:
    pairs, rows = [], []
    cells = read_tsv(path)
    next(cells)  # header
    for gene_id, disease_id, *values in cells:
        pairs.append((EntityId(gene_id, "gene"), EntityId(disease_id, "disease")))
        rows.append(list(map(float, values)))
    return PairFeatures(np.asarray(rows, dtype=np.float64), pairs)
