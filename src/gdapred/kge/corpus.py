"""Walk and lexical corpora feeding the skip-gram trainer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..kg import HAS_ANNOTATION, SUBCLASS_OF, KnowledgeGraph
from ..ontology import Ontology


@dataclass
class WalkCorpus:
    sentences: list[list[str]]
    #: tokens that are KG nodes (the only ones exported after training)
    node_tokens: frozenset[str]

    def extend(self, other: "WalkCorpus") -> "WalkCorpus":
        return WalkCorpus(self.sentences + other.sentences,
                          self.node_tokens | other.node_tokens)


def generate_walks(kg: KnowledgeGraph, walks_per_node: int, depth: int,
                   seed: int) -> WalkCorpus:
    """``walks_per_node`` random walks of ``depth`` edge steps from every
    node, in sorted node order.

    Sentences alternate node and relation tokens; edges are traversable
    in both directions, and each step is uniform over the current node's
    distinct (relation, neighbour) pairs. All walks step together: one
    array of draws per step indexes the graph's CSR adjacency. The same
    seed always yields the same corpus.
    """
    if walks_per_node < 1:
        raise ConfigurationError(
            f"walks_per_node must be at least 1, got {walks_per_node}")
    if depth < 1:
        raise ConfigurationError(f"depth must be at least 1, got {depth}")
    adj = kg.walk_adjacency()
    rng = np.random.default_rng(seed)
    current = np.repeat(np.arange(adj.indptr.size - 1), walks_per_node)
    walks = np.empty((current.size, 2 * depth + 1), dtype=np.int64)
    walks[:, 0] = current
    for step in range(1, 2 * depth + 1, 2):
        start = adj.indptr[current]
        edge = start + rng.integers(0, adj.indptr[current + 1] - start)
        walks[:, step] = adj.relation[edge]
        walks[:, step + 1] = current = adj.neighbour[edge]
    tokens = np.array(adj.tokens, dtype=object)
    return WalkCorpus(tokens[walks].tolist(), frozenset(kg.nodes))


def _words(text: str) -> list[str]:
    return [w for w in text.lower().split() if w]


def build_lexical_corpus(kg: KnowledgeGraph,
                         ontologies: Sequence[Ontology] = ()) -> WalkCorpus:
    """Axiom plus lexical-metadata sentences.

    Emits one sentence per asserted triple, one per non-asserted
    transitive subsumption pair (the inferred-hierarchy approximation),
    one per annotation triple, and one per label/synonym/definition of
    every term present in the graph.
    """
    sentences: list[list[str]] = []
    annotation_triples = []
    for s, rel, o in sorted(kg.triples):
        if rel == HAS_ANNOTATION:
            annotation_triples.append((s, rel, o))
        else:
            sentences.append([s, rel, o])

    asserted = {(s, o) for s, rel, o in kg.triples if rel == SUBCLASS_OF}
    for term in sorted(kg.term_nodes):
        for anc in sorted(kg.ancestor_set(term)):
            if anc != term and (term, anc) not in asserted:
                sentences.append([term, SUBCLASS_OF, anc])

    for ont in ontologies:
        for tid in sorted(ont.terms):
            if tid not in kg.term_nodes:
                continue
            term = ont.terms[tid]
            for text in [term.label, *term.synonyms, term.definition]:
                words = _words(text)
                if words:
                    sentences.append([tid, *words])

    sentences.extend([s, rel, o] for s, rel, o in annotation_triples)
    return WalkCorpus(sentences, frozenset(kg.nodes))
