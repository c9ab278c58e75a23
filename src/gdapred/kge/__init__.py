"""Node embeddings over a knowledge graph.

Four methods: translational distance (transe), semantic matching
(distmult), random-walk corpora (walk), and walk plus lexical/axiom
corpora (walk_lexical); the latter two share the skip-gram trainer.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ConfigurationError
from ..kg import KnowledgeGraph
from ..ontology import Ontology
from .base import (
    KGE_METHODS,
    EmbeddingTable,
    KgeTrainConfig,
    read_embeddings,
    write_embeddings,
)
from .corpus import WalkCorpus, build_lexical_corpus, generate_walks
from .skipgram import sgns_loss, train_skipgram
from .translational import (
    distmult_logistic_loss,
    distmult_score,
    train_distmult,
    train_transe,
    transe_margin_loss,
    transe_score,
)


def embed(kg: KnowledgeGraph, method: str,
          config: KgeTrainConfig | None = None,
          ontologies: Sequence[Ontology] = ()) -> EmbeddingTable:
    """Train node vectors with the named method (dimension defaults to 200)."""
    config = config or KgeTrainConfig()
    if method == "transe":
        return train_transe(kg, config)
    if method == "distmult":
        return train_distmult(kg, config)
    if method in ("walk", "walk_lexical"):
        corpus = generate_walks(kg, config.walks_per_node, config.walk_depth,
                                config.seed)
        if method == "walk_lexical":
            corpus = corpus.extend(build_lexical_corpus(kg, ontologies))
        return train_skipgram(corpus, config, method_tag=method)
    raise ConfigurationError(f"unknown embedding method {method!r}")


__all__ = [
    "KGE_METHODS", "EmbeddingTable", "KgeTrainConfig", "WalkCorpus",
    "build_lexical_corpus", "distmult_logistic_loss", "distmult_score",
    "embed", "generate_walks", "read_embeddings", "sgns_loss",
    "train_distmult", "train_skipgram", "train_transe",
    "transe_margin_loss", "transe_score", "write_embeddings",
]
