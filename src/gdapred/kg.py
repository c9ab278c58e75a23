"""Knowledge-graph assembly from ontologies and annotation maps.

Three variants are supported: a single phenotype ontology (HP), the
phenotype plus function ontology joined under a virtual root (HP_GO),
and the joined graph enriched with equivalence bridges from logical
definitions (HP_GO_LD).
"""

from __future__ import annotations

from typing import Iterable

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


class KnowledgeGraph:
    """Immutable typed triple store with closure queries.

    Construction happens once; ancestor closures are cached lazily and
    read-only queries are safe to run concurrently.
    """

    def __init__(self, variant: str, triples: Iterable[Triple],
                 term_nodes: Iterable[str], entity_nodes: Iterable[str],
                 notes: dict | None = None):
        if variant not in KG_VARIANTS:
            raise ConfigurationError(f"unknown KG variant {variant!r}")
        self.variant = variant
        self.triples: frozenset[Triple] = frozenset(triples)
        self.term_nodes: frozenset[str] = frozenset(term_nodes)
        self.entity_nodes: frozenset[str] = frozenset(entity_nodes)
        self.notes: dict = dict(notes or {})
        up: dict[str, set[str]] = {}
        for s, rel, o in self.triples:
            if rel == SUBCLASS_OF:
                up.setdefault(s, set()).add(o)
        self._up = {n: tuple(sorted(v)) for n, v in up.items()}
        self._anc_cache: dict[str, frozenset[str]] = {}
        self._walk_adj: dict[str, tuple[tuple[str, str], ...]] | None = None

    @property
    def nodes(self) -> frozenset[str]:
        return self.term_nodes | self.entity_nodes

    @property
    def node_count(self) -> int:
        return len(self.term_nodes) + len(self.entity_nodes)

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

    def walk_adjacency(self) -> dict[str, tuple[tuple[str, str], ...]]:
        """Node -> sorted (relation, neighbour) pairs, both edge directions."""
        if self._walk_adj is None:
            adj: dict[str, set[tuple[str, str]]] = {n: set() for n in self.nodes}
            for s, rel, o in self.triples:
                adj[s].add((rel, o))
                adj[o].add((rel, s))
            self._walk_adj = {n: tuple(sorted(v)) for n, v in adj.items()}
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
    triples. Dual-ontology variants are joined under a virtual root;
    the LD variant additionally receives equivalence bridges. The HP
    variant leaves out terms that no triple touches.
    """
    if gene_hp is None or disease_hp is None:
        raise ConfigurationError("gene and disease phenotype annotations are required")
    if variant == "HP":
        if go is not None or gene_go is not None:
            raise ConfigurationError("variant HP takes no GO inputs")
        ontologies = [hp]
        annotation_maps = [gene_hp, disease_hp]
    else:
        if go is None or gene_go is None:
            raise ConfigurationError(f"variant {variant} requires GO and GO annotations")
        ontologies = [hp, go]
        annotation_maps = [gene_hp, disease_hp, gene_go]

    term_nodes: set[str] = set()
    triples: set[Triple] = set()
    for ont in ontologies:
        term_nodes |= set(ont.terms)
        for child, rel, parent in ont.edges:
            label = SUBCLASS_OF if rel == "is_a" else rel
            triples.add((child, label, parent))

    entity_nodes: set[str] = set()
    missing: set[str] = set()
    for amap in annotation_maps:
        for entity, terms in amap.entries.items():
            for term in terms:
                if term not in term_nodes:
                    missing.add(term)
                    continue
                triples.add((entity.node_id, HAS_ANNOTATION, term))
                entity_nodes.add(entity.node_id)
    if missing:
        raise IntegrityError(
            "annotations reference terms missing from the ontologies: "
            + ", ".join(sorted(missing)))

    if variant == "HP":
        # the triples file is the graph's only record, so a term that no
        # triple touches would not survive write_triples/read_triples
        term_nodes &= {node for s, _, o in triples for node in (s, o)}
    kg = KnowledgeGraph(variant, triples, term_nodes, entity_nodes)
    if variant != "HP":
        kg = add_virtual_root(kg)
    if variant == "HP_GO_LD":
        kg = apply_logical_definitions(kg, hp)
    return kg


def add_virtual_root(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Parent every ontology root to a shared virtual root. Idempotent."""
    has_parent = {s for s, rel, _ in kg.triples if rel == SUBCLASS_OF}
    roots = sorted(t for t in kg.term_nodes
                   if t != VIRTUAL_ROOT and t not in has_parent)
    triples = set(kg.triples)
    for root in roots:
        triples.add((root, SUBCLASS_OF, VIRTUAL_ROOT))
    return KnowledgeGraph(kg.variant, triples,
                          kg.term_nodes | {VIRTUAL_ROOT},
                          kg.entity_nodes, kg.notes)


def apply_logical_definitions(kg: KnowledgeGraph, hp: Ontology) -> KnowledgeGraph:
    """Add bidirectional equivalence triples for logical-definition links.

    Every term of ``hp`` that names foreign-prefix targets in its logical
    definition is bridged to each target present in the graph; absent
    targets are skipped and counted in ``notes``.
    """
    triples = set(kg.triples)
    added = 0
    skipped = 0
    for tid, term in hp.terms.items():
        if tid not in kg.term_nodes:
            continue
        for target in term.ld_targets:
            if target in kg.term_nodes:
                before = len(triples)
                triples.add((tid, EQUIVALENT_TO, target))
                triples.add((target, EQUIVALENT_TO, tid))
                if len(triples) > before:
                    added += 1
            else:
                skipped += 1
    notes = dict(kg.notes)
    notes["ld_pairs_added"] = added
    notes["ld_targets_skipped"] = skipped
    return KnowledgeGraph(kg.variant, triples, kg.term_nodes,
                          kg.entity_nodes, notes)


def write_triples(kg: KnowledgeGraph, path) -> None:
    """Canonical serialization: sorted triples, no header row."""
    write_tsv(path, None, sorted(kg.triples))


def read_triples(path, variant: str) -> KnowledgeGraph:
    triples: set[Triple] = set(map(tuple, read_tsv(path, width=3, header=False)))
    nodes = {s for s, _, _ in triples} | {o for _, _, o in triples}
    entity_nodes = {n for n in nodes if is_entity_node(n)}
    return KnowledgeGraph(variant, triples, nodes - entity_nodes, entity_nodes)
