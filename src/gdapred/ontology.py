"""Readers for ontology and annotation inputs.

Covers the OBO flat-file subset shipped by HP and GO releases, GAF 2.x
annotation files, genes_to_phenotype / HPOA-style phenotype tables,
two-column identifier mapping files, and curated gene-disease
association TSVs. All parsers are pure: the same bytes always produce
the same structures.
"""

from __future__ import annotations

import graphlib
import logging
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ConfigurationError,
    CycleError,
    DanglingReferenceError,
    DegenerateDataError,
    ParseError,
)

logger = logging.getLogger(__name__)

CURIE_RE = re.compile(r"^[A-Za-z]+:[A-Za-z0-9_]+$")
HP_TERM_RE = re.compile(r"^HP:[A-Za-z0-9_]+$")
_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')

GENE = "gene"
DISEASE = "disease"


def is_curie(value: str) -> bool:
    return bool(CURIE_RE.match(value))


def curie_prefix(term: str) -> str:
    return term.split(":", 1)[0]


@dataclass(frozen=True)
class EntityId:
    """A gene or disease identifier in the association vocabulary."""

    id: str
    kind: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("entity id must be non-empty")
        if self.kind not in (GENE, DISEASE):
            raise ValueError(f"unknown entity kind {self.kind!r}")

    @property
    def node_id(self) -> str:
        """Graph node identifier, namespaced so ids cannot collide."""
        return f"{self.kind.upper()}:{self.id}"


@dataclass
class OntologyTerm:
    id: str
    label: str = ""
    synonyms: list[str] = field(default_factory=list)
    definition: str = ""
    obsolete: bool = False
    #: foreign-prefix terms referenced by this term's logical definition
    ld_targets: list[str] = field(default_factory=list)


@dataclass
class Ontology:
    """Terms plus typed subsumption/relationship edges forming a DAG."""

    terms: dict[str, OntologyTerm]
    edges: set[tuple[str, str, str]]  # (child, relation, parent)
    roots: set[str]
    obsolete_ids: set[str] = field(default_factory=set)
    stats: dict[str, int] = field(default_factory=dict, compare=False)


def _first_quoted(value: str) -> str | None:
    m = _QUOTED_RE.search(value)
    if m is None:
        return None
    return m.group(1).replace('\\"', '"')


def _term_stanzas(text: str) -> Iterator[tuple[int, list[str]]]:
    """The header's line number and the stripped lines of each `[Term]`
    stanza. Lines before the first header and other stanzas are skipped."""
    lines = [line.strip() for line in text.splitlines()]
    heads = [i for i, line in enumerate(lines) if line[:1] == "[" and line[-1:] == "]"]
    for start, end in zip(heads, heads[1:] + [len(lines)]):
        if lines[start] == "[Term]":
            yield start + 1, lines[start + 1:end]


def parse_obo(text: str) -> Ontology:
    """Parse `[Term]` stanzas of an OBO flat file into an Ontology.

    Obsolete terms are dropped (annotations pointing at them are
    handled downstream); `is_a:` targets must be defined somewhere in
    the file and the `is_a` graph must be acyclic.
    """
    records: dict[str, OntologyTerm] = {}
    is_a_edges: list[tuple[str, str, str]] = []  # child, "is_a", parent
    rel_edges: list[tuple[str, str, str]] = []  # child, relation, parent
    for first, lines in _term_stanzas(text):
        # tag order within a stanza is free, so the id is known only at its end
        term = OntologyTerm(id="")
        parents, rels, ld = [], [], []  # is_a targets, (relation, target), LD targets
        for lineno, line in enumerate(lines, start=first + 1):
            if not line or line[0] == "!":
                continue
            tag, _, value = line.partition(":")
            tag = tag.strip()
            value = value.strip()
            if tag == "id":
                if not is_curie(value):
                    raise ParseError(f"line {lineno}: malformed term id {value!r}")
                term.id = value
            elif tag == "name":
                term.label = value
            elif tag == "def":
                quoted = _first_quoted(value)
                term.definition = quoted if quoted is not None else value
            elif tag == "synonym":
                quoted = _first_quoted(value)
                if quoted:
                    term.synonyms.append(quoted)
            elif tag == "is_a":
                target = value.partition("!")[0].split()
                if not target:
                    raise ParseError(f"line {lineno}: empty is_a target")
                parents.append(target[0])
            elif tag == "relationship":
                parts = value.partition("!")[0].split()
                if len(parts) < 2:
                    logger.warning("line %d: malformed relationship %r skipped", lineno, value)
                    continue
                rels.append((parts[0], parts[1]))
            elif tag == "intersection_of":
                parts = value.partition("!")[0].split()
                if len(parts) == 1 and is_curie(parts[0]):
                    ld.append(parts[0])
                elif len(parts) >= 2 and is_curie(parts[1]):
                    ld.append(parts[1])
            elif tag == "is_obsolete":
                term.obsolete = value.lower().startswith("true")
        if not term.id:
            raise ParseError(f"[Term] stanza starting at line {first} has no id")
        if term.id in records:
            raise ParseError(f"duplicate term id {term.id} (stanza at line {first})")
        for parent in parents:
            is_a_edges.append((term.id, "is_a", parent))
        for rel, parent in rels:
            rel_edges.append((term.id, rel, parent))
        own_prefix = curie_prefix(term.id)
        for target in ld:
            if curie_prefix(target) != own_prefix and target not in term.ld_targets:
                term.ld_targets.append(target)
        records[term.id] = term

    dangling = sorted({parent for _, _, parent in is_a_edges if parent not in records})
    if dangling:
        raise DanglingReferenceError("is_a targets never defined in file: "
                                     + ", ".join(dangling))

    obsolete_ids = {t for t, rec in records.items() if rec.obsolete}
    terms = {t: rec for t, rec in records.items() if not rec.obsolete}
    edges: set[tuple[str, str, str]] = set()
    dropped = 0
    for edge in is_a_edges + rel_edges:
        child, _, parent = edge
        if parent not in records or child in obsolete_ids or parent in obsolete_ids:
            dropped += 1
        else:
            edges.add(edge)

    _check_acyclic(terms, edges)

    has_parent = {c for c, rel, _ in edges if rel == "is_a"}
    roots = {t for t in terms if t not in has_parent}
    return Ontology(terms=terms, edges=edges, roots=roots, obsolete_ids=obsolete_ids,
                    stats={"obsolete_terms": len(obsolete_ids), "dropped_edges": dropped})


def _check_acyclic(terms: Mapping[str, OntologyTerm],
                   edges: Iterable[tuple[str, str, str]]) -> None:
    # each term a node, each is_a edge leading from child to parent, all
    # added sorted, so the cycle reported does not follow the hash order
    sorter = graphlib.TopologicalSorter()
    for term in sorted(terms):
        sorter.add(term)
    for child, parent in sorted((c, p) for c, rel, p in edges if rel == "is_a"):
        sorter.add(parent, child)
    try:
        sorter.prepare()
    except graphlib.CycleError as err:
        raise CycleError("is_a cycle: " + " -> ".join(err.args[1])) from None


def _data_rows(text: str, comment: str) -> Iterator[tuple[int, list[str]]]:
    """The line number and tab-separated cells of each line that is
    neither empty nor starts with ``comment``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw and not raw.startswith(comment):
            yield lineno, raw.split("\t")


@dataclass
class AnnotationMap:
    """Entity -> set of ontology term ids."""

    entries: dict[EntityId, set[str]] = field(default_factory=dict)
    stats: dict[str, int] = field(default_factory=dict, compare=False)

    def add(self, entity: EntityId, term: str) -> None:
        self.entries.setdefault(entity, set()).add(term)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, entity: EntityId) -> bool:
        return entity in self.entries


def parse_gaf(text: str, accession_to_gene: Mapping[str, str],
              exclude_evidence: set[str] | None = None) -> AnnotationMap:
    """Map genes to GO terms from a GAF 2.x file.

    ``accession_to_gene`` translates the protein accession in column 2
    to the gene vocabulary used by the association source. Rows with a
    NOT qualifier, an excluded evidence code, or an unmapped accession
    are skipped (the latter counted in ``stats``).
    """
    exclude_evidence = exclude_evidence or set()
    amap = AnnotationMap(stats={
        "rows_used": 0,
        "rows_skipped_short": 0,
        "rows_skipped_not": 0,
        "rows_skipped_evidence": 0,
        "rows_skipped_unmapped": 0,
    })
    data_rows = 0
    for lineno, cols in _data_rows(text, "!"):
        if len(cols) < 15:
            logger.warning("GAF line %d has %d columns, skipped", lineno, len(cols))
            amap.stats["rows_skipped_short"] += 1
            continue
        data_rows += 1
        qualifier, term, evidence = cols[3], cols[4], cols[6]
        if "NOT" in qualifier.split("|"):
            amap.stats["rows_skipped_not"] += 1
            continue
        if evidence in exclude_evidence:
            amap.stats["rows_skipped_evidence"] += 1
            continue
        gene_id = accession_to_gene.get(cols[1])
        if gene_id is None:
            amap.stats["rows_skipped_unmapped"] += 1
            continue
        amap.add(EntityId(gene_id, GENE), term)
        amap.stats["rows_used"] += 1
    if data_rows == 0:
        raise DegenerateDataError("GAF input contains no data rows")
    return amap


def parse_gene_phenotype(text: str) -> AnnotationMap:
    """Map genes to HP terms from a genes_to_phenotype-style TSV."""
    amap = AnnotationMap(stats={"rows_used": 0, "rows_skipped_malformed": 0})
    for lineno, cols in _data_rows(text, "#"):
        term = next((c for c in cols[1:] if HP_TERM_RE.match(c)), None)
        if not cols[0] or term is None:
            logger.warning("gene-phenotype line %d has no HP term, skipped", lineno)
            amap.stats["rows_skipped_malformed"] += 1
            continue
        amap.add(EntityId(cols[0], GENE), term)
        amap.stats["rows_used"] += 1
    return amap


def parse_disease_phenotype(text: str,
                            disease_mapping: Mapping[str, str]) -> AnnotationMap:
    """Map diseases to HP terms from an HPOA-style TSV.

    ``disease_mapping`` translates the OMIM:/ORPHA: database ids keying
    the file into the disease vocabulary of the association source.
    """
    if not disease_mapping:
        raise ConfigurationError("disease mapping is empty")
    amap = AnnotationMap(stats={
        "rows_used": 0,
        "rows_skipped_short": 0,
        "rows_skipped_not": 0,
        "rows_skipped_unmapped": 0,
        "rows_skipped_malformed": 0,
    })
    for lineno, cols in _data_rows(text, "#"):
        if len(cols) < 4:
            amap.stats["rows_skipped_short"] += 1
            continue
        if "NOT" in cols[2].split("|"):
            amap.stats["rows_skipped_not"] += 1
            continue
        term = cols[3] if HP_TERM_RE.match(cols[3]) else next(
            (c for c in cols if HP_TERM_RE.match(c)), None)
        if term is None:
            logger.warning("disease-phenotype line %d has no HP term, skipped", lineno)
            amap.stats["rows_skipped_malformed"] += 1
            continue
        disease_id = disease_mapping.get(cols[0])
        if disease_id is None:
            amap.stats["rows_skipped_unmapped"] += 1
            continue
        amap.add(EntityId(disease_id, DISEASE), term)
        amap.stats["rows_used"] += 1
    return amap


def parse_mapping(text: str) -> dict[str, str]:
    """Two-column TSV (external id, canonical id); first entry wins."""
    mapping: dict[str, str] = {}
    for _, cols in _data_rows(text, "#"):
        if len(cols) < 2 or not cols[0] or not cols[1]:
            continue
        mapping.setdefault(cols[0], cols[1])
    return mapping


@dataclass
class CuratedAssociation:
    gene: EntityId
    disease: EntityId
    sources: set[str]


def parse_associations(text: str, gene_column: str = "gene_id",
                       disease_column: str = "disease_id",
                       source_column: str = "source") -> list[CuratedAssociation]:
    """Read curated gene-disease association rows, merging sources per
    pair. ParseError names a missing column or the line of an empty id."""
    rows = _data_rows(text, "#")
    _, header = next(rows, (0, None))
    if header is None:
        raise ParseError("association file has no header row")
    idx = {}
    for name in (gene_column, disease_column, source_column):
        if name not in header:
            raise ParseError(f"association file missing required column {name!r}")
        idx[name] = header.index(name)
    merged: dict[tuple[EntityId, EntityId], set[str]] = {}
    for lineno, cols in rows:
        if len(cols) <= max(idx.values()):
            logger.warning("association row %r too short, skipped", "\t".join(cols))
            continue
        for name in (gene_column, disease_column):
            if not cols[idx[name]]:
                raise ParseError(f"line {lineno}: empty {name!r} cell")
        gene = EntityId(cols[idx[gene_column]], GENE)
        disease = EntityId(cols[idx[disease_column]], DISEASE)
        merged.setdefault((gene, disease), set()).add(cols[idx[source_column]])
    return [CuratedAssociation(g, d, srcs) for (g, d), srcs in merged.items()]


def filter_associations(assocs: Iterable[CuratedAssociation],
                        excluded_sources: set[str],
                        gene_go: AnnotationMap,
                        gene_hp: AnnotationMap,
                        disease_hp: AnnotationMap) -> list[CuratedAssociation]:
    """Keep pairs with no excluded source whose gene has GO and HP
    annotations and whose disease has HP annotations.

    A pair is dropped when *any* of its sources is excluded. The result
    is deduplicated and ordered by (gene id, disease id), so it does not
    depend on input row order.
    """
    seen: set[tuple[EntityId, EntityId]] = set()
    kept: list[CuratedAssociation] = []
    for a in assocs:
        if a.sources & excluded_sources:
            continue
        if a.gene not in gene_go or a.gene not in gene_hp or a.disease not in disease_hp:
            continue
        key = (a.gene, a.disease)
        if key in seen:
            continue
        seen.add(key)
        kept.append(a)
    kept.sort(key=lambda a: (a.gene.id, a.disease.id))
    return kept


def prune_annotations(amap: AnnotationMap,
                      ontologies: Sequence[Ontology]) -> AnnotationMap:
    """Drop annotation terms that are obsolete or unknown to the ontologies.

    Entities left with no terms are removed. The drop counts land in
    ``stats`` after ``amap``'s own.
    """
    valid: set[str] = set()
    obsolete: set[str] = set()
    for ont in ontologies:
        valid |= set(ont.terms)
        obsolete |= ont.obsolete_ids
    out = AnnotationMap(stats={
        **amap.stats,
        "dropped_obsolete": 0,
        "dropped_unknown": 0,
        "dropped_entities": 0,
    })
    for entity, terms in amap.entries.items():
        keep = set()
        for t in terms:
            if t in valid:
                keep.add(t)
            elif t in obsolete:
                out.stats["dropped_obsolete"] += 1
            else:
                out.stats["dropped_unknown"] += 1
        if keep:
            out.entries[entity] = keep
        else:
            out.stats["dropped_entities"] += 1
    return out


def restrict_annotations(amap: AnnotationMap,
                         entities: Iterable[EntityId]) -> AnnotationMap:
    wanted = set(entities)
    return AnnotationMap(
        entries={e: set(t) for e, t in amap.entries.items() if e in wanted})


def merge_annotation_maps(*maps: AnnotationMap) -> AnnotationMap:
    merged = AnnotationMap()
    for m in maps:
        for entity, terms in m.entries.items():
            merged.entries.setdefault(entity, set()).update(terms)
    return merged
