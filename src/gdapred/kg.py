"""Knowledge-graph assembly from ontologies and annotation maps.

Three variants are supported: a single phenotype ontology (HP), the
phenotype plus function ontology joined under a virtual root (HP_GO),
and the joined graph enriched with equivalence bridges from logical
definitions (HP_GO_LD).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from .artifacts import read_tsv, write_tsv
from .errors import ConfigurationError, IntegrityError, UnknownNodeError
from .ontology import AnnotationMap, Ontology, curie_prefix

SUBCLASS_OF = "subClassOf"
EQUIVALENT_TO = "equivalentTo"
HAS_ANNOTATION = "hasAnnotation"
VIRTUAL_ROOT = "VR:ROOT"
ENTITY_PREFIXES = ("GENE", "DISEASE")

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
    Construction happens once; ancestor closures are cached lazily and
    read-only queries are safe to run concurrently.
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
        self._anc_cache: dict[str, frozenset[str]] = {}
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
        cached = self._anc_cache.get(node)
        if cached is not None:
            return cached
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
        result = frozenset(seen)
        self._anc_cache[node] = result
        return result

    def walk_adjacency(self) -> WalkAdjacency:
        """The graph's both-direction adjacency for walking, built once."""
        if self._walk_adj is None:
            nodes = sorted(self.nodes)
            relations = sorted({rel for _, rel, _ in self.triples})
            n = len(nodes)
            node_index = {node: i for i, node in enumerate(nodes)}
            rel_index = {rel: n + i for i, rel in enumerate(relations)}
            codes = np.array([(node_index[s], rel_index[rel], node_index[o])
                              for s, rel, o in self.triples],
                             dtype=np.int64).reshape(-1, 3)
            src = np.concatenate([codes[:, 0], codes[:, 2]])
            dst = np.concatenate([codes[:, 2], codes[:, 0]])
            width = n + len(relations)
            key = np.sort((src * width + np.tile(codes[:, 1], 2)) * n + dst)
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
    return curie_prefix(node) in ENTITY_PREFIXES


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
            triples.update((entity.node_id, HAS_ANNOTATION, term)
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
