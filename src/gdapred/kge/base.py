"""Shared embedding-training configuration and the node-vector table."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError

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
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.margin <= 0:
            raise ConfigurationError("margin must be positive")


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


def decayed_rate(base: float, progress: float) -> float:
    """Linear decay with a small floor, progress in [0, 1]."""
    return base * max(1.0 - progress, 1e-4)


def write_embeddings(table: EmbeddingTable, path) -> None:
    """`node_count dimension` header, then one space-separated row per node."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.vectors)} {table.dimension}\n")
        for node in sorted(table.vectors):
            components = " ".join(repr(float(v)) for v in table.vectors[node])
            fh.write(f"{node} {components}\n")


def read_embeddings(path, method: str = "", seed: int = 0) -> EmbeddingTable:
    with open(path, encoding="utf-8") as fh:
        count, dim = (int(v) for v in fh.readline().split())
        vectors: dict[str, np.ndarray] = {}
        for line in fh:
            parts = line.rstrip("\n").split(" ")
            vectors[parts[0]] = np.array([float(v) for v in parts[1:]],
                                         dtype=np.float64)
    if len(vectors) != count:
        raise ValueError(f"expected {count} rows, found {len(vectors)}")
    return EmbeddingTable(dim, vectors, method, seed)
