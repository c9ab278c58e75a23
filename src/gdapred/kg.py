"""Knowledge-graph assembly from ontologies and annotation maps.

Three variants are supported: a single phenotype ontology (HP), the
phenotype plus function ontology joined under a virtual root (HP_GO),
and the joined graph enriched with equivalence bridges from logical
definitions (HP_GO_LD).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .artifacts import read_tsv, write_tsv
from .errors import ConfigurationError, IntegrityError, UnknownNodeError
from .ontology import ENTITY_PREFIXES, AnnotationMap, Ontology, curie_prefix, parents_first

SUBCLASS_OF = "subClassOf"
EQUIVALENT_TO = "equivalentTo"
HAS_ANNOTATION = "hasAnnotation"
VIRTUAL_ROOT = "VR:ROOT"

KG_VARIANTS = ("HP", "HP_GO", "HP_GO_LD")

Triple = tuple[str, str, str]


class WalkAdjacency(NamedTuple):
    """Both edge directions of a graph in CSR form, over token indices.

    ``tokens`` lists the sorted nodes, then the sorted relations. Node
    ``i``'s distinct (relation, neighbour) pairs are
    ``relation[indptr[i]:indptr[i + 1]]`` and ``neighbour[...]``, sorted
    by relation, then neighbour.
    """
    tokens: list[str]
    indptr: np.ndarray
    relation: np.ndarray
    neighbour: np.ndarray


class KnowledgeGraph:
    """Immutable typed triple store with closure queries.

    A graph is its triples: its nodes are their ends, the entity nodes
    those with a GENE or DISEASE prefix and the term nodes the rest.
    Construction happens once; the integer coding, the ancestor bitsets,
    the walk adjacency and the parents-first term order are cached
    lazily and read-only queries are safe to run concurrently.
    """

    def __init__(self, variant: str, triples: Iterable[Triple],
                 notes: dict | None = None):
        if variant not in KG_VARIANTS:
            raise ConfigurationError(f"unknown KG variant {variant!r}")
        self.variant = variant
        self.triples: frozenset[Triple] = frozenset(triples)
        self.nodes: frozenset[str] = frozenset(
            node for s, _, o in self.triples for node in (s, o))
        self.entity_nodes: frozenset[str] = frozenset(filter(is_entity_node, self.nodes))
        self.term_nodes: frozenset[str] = self.nodes - self.entity_nodes
        self.notes: dict = dict(notes or {})
        up: dict[str, set[str]] = {}
        for s, rel, o in self.triples:
            if rel == SUBCLASS_OF:
                up.setdefault(s, set()).add(o)
        self._up = {n: tuple(sorted(v)) for n, v in up.items()}
        self._term_order: tuple[str, ...] | None = None
        self._ancestor_bits: tuple[list[str], dict[str, int]] | None = None
        self._coding: tuple[list[str], list[str], np.ndarray] | None = None
        self._walk_adj: WalkAdjacency | None = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def triple_count(self) -> int:
        return len(self.triples)

    def ancestor_set(self, node: str) -> frozenset[str]:
        """The term ``node`` plus everything reachable upward via
        subClassOf edges; UnknownNodeError for a node that is not a term."""
        if node not in self.term_nodes:
            raise UnknownNodeError(f"{node} is not a term node of this graph")
        seen = {node}
        frontier = [node]
        while frontier:
            cur = frontier.pop()
            for nxt in self._up.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)

    def parents(self, node: str) -> tuple[str, ...]:
        """The sorted direct subClassOf parents of ``node``."""
        return self._up.get(node, ())

    def term_order(self) -> tuple[str, ...]:
        """Every term node after all of its subClassOf parents, built
        once. A subClassOf cycle raises CycleError naming it, and a
        subClassOf edge at an entity node IntegrityError."""
        if self._term_order is None:
            bad = sorted((child, parent) for child, parents in self._up.items()
                         for parent in parents
                         if not self.term_nodes.issuperset((child, parent)))
            if bad:
                raise IntegrityError("subClassOf edges at an entity node: " + ", ".join(
                    f"{child} -> {parent}" for child, parent in bad))
            self._term_order = tuple(parents_first(
                {t: self._up.get(t, ()) for t in self.term_nodes}, SUBCLASS_OF))
        return self._term_order

    def closure_bits(self, bit: Mapping[str, int]) -> dict[str, int]:
        """Each term node's closure as an int: the OR of ``bit`` over the
        term and its ancestors, a term without a bit adding none. One pass
        along ``term_order``, so each parent's closure is complete before
        its children read it."""
        closure: dict[str, int] = {}
        for term in self.term_order():
            bits = bit.get(term, 0)
            for parent in self._up.get(term, ()):
                bits |= closure[parent]
            closure[term] = bits
        return closure

    def ancestor_bits(self) -> tuple[list[str], dict[str, int]]:
        """The sorted term nodes, and each one's ancestor closure with
        bit i standing for the i-th of them, built once: do not change
        the result."""
        if self._ancestor_bits is None:
            terms = sorted(self.term_nodes)
            self._ancestor_bits = terms, self.closure_bits(
                {t: 1 << i for i, t in enumerate(terms)})
        return self._ancestor_bits

    def coding(self) -> tuple[list[str], list[str], np.ndarray]:
        """The sorted nodes, the sorted relations, and the triples as one
        int64 (triples x 3) array whose row i is the i-th of
        ``sorted(self.triples)`` as (node, relation, node) indices; built
        once: do not change the result. Sorted packed keys order the rows
        as the string triples sort, whatever order the set iterates in."""
        if self._coding is None:
            nodes = sorted(self.nodes)
            relations = sorted({rel for _, rel, _ in self.triples})
            node, rel = (dict(zip(ids, range(len(ids)))) for ids in (nodes, relations))
            n, m = len(nodes), len(relations)
            key = np.fromiter(((node[s] * m + rel[r]) * n + node[o]
                               for s, r, o in self.triples),
                              dtype=np.int64, count=len(self.triples))
            key.sort()
            head_relation, tail = np.divmod(key, n)
            self._coding = nodes, relations, np.stack(
                (*np.divmod(head_relation, m), tail), axis=1)
        return self._coding

    def walk_adjacency(self) -> WalkAdjacency:
        """The graph's both-direction adjacency for walking, built once."""
        if self._walk_adj is None:
            nodes, relations, codes = self.coding()
            n, width = len(nodes), len(nodes) + len(relations)
            # every triple both ways, with relation tokens after the nodes
            both = np.concatenate((codes, codes[:, ::-1])) + (0, n, 0)
            key = np.sort((both[:, 0] * width + both[:, 1]) * n + both[:, 2])
            # one key per (node, relation, neighbour): drop the second copy
            # of a self-loop or of an edge stated both ways. Not np.unique,
            # whose first call imports numpy.ma, about 1 MiB of RSS.
            key = key[np.diff(key, prepend=-1) != 0]
            node, pair = np.divmod(key, width * n)
            relation, neighbour = np.divmod(pair, n)
            self._walk_adj = WalkAdjacency(
                nodes + relations, np.searchsorted(node, np.arange(n + 1)),
                relation, neighbour)
        return self._walk_adj


def is_entity_node(node: str) -> bool:
    return curie_prefix(node) in ENTITY_PREFIXES.values()


def build_kg(variant: str, hp: Ontology, go: Ontology | None = None,
             gene_hp: AnnotationMap | None = None,
             disease_hp: AnnotationMap | None = None,
             gene_go: AnnotationMap | None = None) -> KnowledgeGraph:
    """Assemble a KG variant from ontologies and annotation maps.

    `is_a` edges become subClassOf triples, other ontology relationships
    keep their labels, and every annotated entity gains hasAnnotation
    triples. The HP variant reads only ``hp``, ``gene_hp`` and
    ``disease_hp``. The GO variants join GO and its annotations and
    parent every term without a subClassOf parent to the virtual root;
    the LD variant adds both directions of each logical-definition link
    of ``hp`` to a joined term, counting the links added and skipped in
    ``notes``.
    """
    if gene_hp is None or disease_hp is None:
        raise ConfigurationError("gene and disease phenotype annotations are required")
    ontologies, annotation_maps = [hp], [gene_hp, disease_hp]
    if variant != "HP":
        if go is None or gene_go is None:
            raise ConfigurationError(f"variant {variant} requires GO and GO annotations")
        ontologies.append(go)
        annotation_maps.append(gene_go)

    terms = {tid for ont in ontologies for tid in ont.terms}
    triples = {(child, SUBCLASS_OF if rel == "is_a" else rel, parent)
               for ont in ontologies for child, rel, parent in ont.edges}
    missing: set[str] = set()
    for amap in annotation_maps:
        for entity, annotated in amap.entries.items():
            missing |= annotated - terms
            triples.update((entity, HAS_ANNOTATION, term)
                           for term in annotated & terms)
    if missing:
        raise IntegrityError(
            "annotations reference terms missing from the ontologies: "
            + ", ".join(sorted(missing)))

    notes = {}
    if variant != "HP":
        has_parent = {s for s, rel, _ in triples if rel == SUBCLASS_OF}
        triples.update((root, SUBCLASS_OF, VIRTUAL_ROOT)
                       for root in terms - has_parent)
    if variant == "HP_GO_LD":
        added = skipped = 0
        for tid, term in hp.terms.items():
            for target in term.ld_targets:
                if target not in terms:
                    skipped += 1
                    continue
                before = len(triples)
                triples.update({(tid, EQUIVALENT_TO, target),
                                (target, EQUIVALENT_TO, tid)})
                added += len(triples) > before
        notes = {"ld_pairs_added": added, "ld_targets_skipped": skipped}
    return KnowledgeGraph(variant, triples, notes)


def write_triples(kg: KnowledgeGraph, path) -> None:
    """Canonical serialization: sorted triples, no header row."""
    write_tsv(path, None, sorted(kg.triples))


def read_triples(path, variant: str) -> KnowledgeGraph:
    """The graph of a triples file. A line whose cells are not three, or
    that has an empty cell or a node with nothing after its prefix
    (``GENE:``), raises IntegrityError naming it."""
    triples = []
    for lineno, cells in enumerate(read_tsv(path, width=3, header=False), start=1):
        if not all(cells) or cells[0].endswith(":") or cells[2].endswith(":"):
            raise IntegrityError(f"{path}, line {lineno}: a cell is empty "
                                 f"or names no id: {cells}")
        triples.append(tuple(cells))
    return KnowledgeGraph(variant, triples)
