"""Walk and lexical corpora feeding the skip-gram trainer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
    """Random walks of ``depth`` edge steps from every node.

    Sentences alternate node and relation tokens; edges are traversable
    in both directions. The same seed always yields the same corpus.
    """
    if depth < 1:
        raise ValueError("walk depth must be at least 1")
    adjacency = kg.walk_adjacency()
    rng = np.random.default_rng(seed)
    sentences: list[list[str]] = []
    for node in sorted(kg.nodes):
        for _ in range(walks_per_node):
            walk = [node]
            current = node
            for _ in range(depth):
                neighbours = adjacency[current]
                rel, nxt = neighbours[int(rng.integers(len(neighbours)))]
                walk.append(rel)
                walk.append(nxt)
                current = nxt
            sentences.append(walk)
    return WalkCorpus(sentences, frozenset(kg.nodes))


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
