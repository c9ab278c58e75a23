"""Pair representations r(g, d) from gene and disease vectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import read_tsv, write_tsv
from .errors import IntegrityError, ZeroVectorError
from .ontology import EntityId
from .validation import as_vector, check_same_dimension

if TYPE_CHECKING:
    from .evaluation import AssociationDataset
    from .kge import EmbeddingTable

PAIR_OPERATORS = ("concatenation", "average", "hadamard", "weighted_l1", "weighted_l2")


def combine(g, d, operator: str) -> np.ndarray:
    """Combine a gene and a disease vector into one pair feature vector.

    Ordering is fixed gene-first for concatenation; the other operators
    are symmetric.
    """
    g = as_vector(g, "gene vector")
    d = as_vector(d, "disease vector")
    check_same_dimension(g, d)
    if operator == "concatenation":
        return np.concatenate([g, d])
    if operator == "average":
        return (g + d) / 2.0
    if operator == "hadamard":
        return g * d
    if operator == "weighted_l1":
        return np.abs(g - d)
    if operator == "weighted_l2":
        return (g - d) ** 2
    raise ValueError(f"unknown pair operator {operator!r}")


def cosine(g, d) -> float:
    """Cosine similarity in [-1, 1]; zero vectors are rejected."""
    g = as_vector(g, "gene vector")
    d = as_vector(d, "disease vector")
    check_same_dimension(g, d)
    ng = float(np.linalg.norm(g))
    nd = float(np.linalg.norm(d))
    if ng == 0.0 or nd == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    # rounding can push parallel vectors a hair past +-1
    return float(np.clip(np.dot(g, d) / (ng * nd), -1.0, 1.0))


def cosine_unit_score(g, d) -> float:
    """Cosine mapped to [0, 1] via (1 + cs) / 2 for threshold sweeps."""
    return (1.0 + cosine(g, d)) / 2.0


@dataclass
class PairFeatures:
    rows: np.ndarray  # one row per dataset pair, in dataset order
    pairs: list[tuple[EntityId, EntityId]]


def check_vectors(dataset: "AssociationDataset", table: "EmbeddingTable") -> None:
    """Raise IntegrityError naming the dataset entities ``table`` lacks."""
    missing = sorted(
        {p.gene.node_id for p in dataset.pairs if p.gene.node_id not in table.vectors}
        | {p.disease.node_id for p in dataset.pairs if p.disease.node_id not in table.vectors})
    if missing:
        raise IntegrityError("entities without embedding vectors: " + ", ".join(missing))


def build_pair_features(dataset: "AssociationDataset", table: "EmbeddingTable",
                        operator: str) -> PairFeatures:
    """Apply a pair operator to every dataset pair's embedding vectors."""
    if operator not in PAIR_OPERATORS:
        raise ValueError(f"unknown pair operator {operator!r}")
    check_vectors(dataset, table)
    rows = np.stack([
        combine(table.vectors[p.gene.node_id], table.vectors[p.disease.node_id], operator)
        for p in dataset.pairs
    ])
    if not np.all(np.isfinite(rows)):
        raise IntegrityError("pair features contain non-finite entries")
    pairs = [(p.gene, p.disease) for p in dataset.pairs]
    return PairFeatures(rows, pairs)


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
