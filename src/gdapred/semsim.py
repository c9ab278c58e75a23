"""Information content and semantic-similarity baselines.

Implements the Seco (descendant-count) and corpus/Resnik IC flavours and
the six groupwise measure configurations (BMA, MAX, SimGIC crossed with
both IC flavours) used to score gene-disease pairs on the phenotype KG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .artifacts import write_tsv
from .errors import DegenerateDataError
from .kg import KnowledgeGraph
from .ontology import AnnotationMap, EntityId

if TYPE_CHECKING:
    from .evaluation import AssociationDataset

IC_SECO = "seco"
IC_RESNIK_CORPUS = "resnik_corpus"
AGGREGATIONS = ("BMA", "MAX", "SIMGIC")


@dataclass
class InformationContentTable:
    flavor: str
    values: dict[str, float]
    #: MICA bitmasks over the KG the table was last used with, built
    #: from ``values`` on first use: do not change ``values`` after that
    _masks: "_AncestorMasks | None" = field(
        default=None, init=False, repr=False, compare=False)

    def _masks_for(self, kg: KnowledgeGraph) -> "_AncestorMasks":
        if self._masks is None or self._masks.kg is not kg:
            self._masks = _AncestorMasks(kg, self.values)
        return self._masks


class _AncestorMasks:
    """Ancestor sets as bitmasks over the IC ranking of one KG.

    The terms with IC > 0 are ranked by IC, highest first, ties broken
    by term id; bit r of a term's mask is set when the rank-r term is
    among its ancestors. The lowest bit two masks share is then their
    most informative common ancestor, and no shared bit means MICA 0.
    """

    def __init__(self, kg: KnowledgeGraph, values: dict[str, float]):
        self.kg = kg
        ranked = sorted((t for t, v in values.items() if v > 0.0),
                        key=lambda t: (-values[t], t))
        self.rank = {t: r for r, t in enumerate(ranked)}
        self.ic = [values[t] for t in ranked]
        self.masks: dict[str, int] = {}

    def mask(self, term: str) -> int:
        mask = self.masks.get(term)
        if mask is None:
            mask = 0
            for t in self.kg.ancestor_set(term):
                r = self.rank.get(t)
                if r is not None:
                    mask |= 1 << r
            self.masks[term] = mask
        return mask


@dataclass(frozen=True)
class SimilarityConfig:
    aggregation: str
    ic_flavor: str

    def __post_init__(self):
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.ic_flavor not in (IC_SECO, IC_RESNIK_CORPUS):
            raise ValueError(f"unknown IC flavor {self.ic_flavor!r}")

    @property
    def name(self) -> str:
        return f"{self.aggregation}_{self.ic_flavor}"


#: the six baseline measure configurations
SSM_CONFIGS = tuple(
    SimilarityConfig(agg, flavor)
    for agg in AGGREGATIONS
    for flavor in (IC_SECO, IC_RESNIK_CORPUS)
)


def ic_seco(kg: KnowledgeGraph) -> InformationContentTable:
    """Descendant-count IC: 1 - log(|descendants|+1)/log(N).

    Roots score 0, leaves score 1; descendants are counted through the
    subClassOf closure and exclude the term itself.
    """
    terms = sorted(kg.term_nodes)
    n = len(terms)
    if n < 2:
        raise DegenerateDataError(f"need at least 2 term nodes, got {n}")
    desc_count = {t: 0 for t in terms}
    for t in terms:
        for anc in kg.ancestor_set(t):
            if anc != t:
                desc_count[anc] += 1
    log_n = math.log(n)
    values = {t: 1.0 - math.log(desc_count[t] + 1) / log_n for t in terms}
    return InformationContentTable(IC_SECO, values)


def ic_resnik(kg: KnowledgeGraph, annotations: AnnotationMap) -> InformationContentTable:
    """Corpus IC: -ln p(term), p from true-path-propagated entity counts.

    Each entity counts toward every ancestor of each of its annotation
    terms. Terms that no entity reaches have undefined IC and are left
    out of the table.
    """
    n_entities = len(annotations.entries)
    if n_entities == 0:
        raise DegenerateDataError("no annotated entities in the corpus")
    counts: dict[str, int] = {}
    for terms in annotations.entries.values():
        for t in _closure_union(terms, kg):
            counts[t] = counts.get(t, 0) + 1
    log_n = math.log(n_entities)
    values = {t: log_n - math.log(c) for t, c in counts.items()}
    return InformationContentTable(IC_RESNIK_CORPUS, values)


def ic_table(flavor: str, kg: KnowledgeGraph,
             annotations: AnnotationMap) -> InformationContentTable:
    """The IC table of one flavour, from ``ic_seco`` or ``ic_resnik``."""
    if flavor == IC_SECO:
        return ic_seco(kg)
    return ic_resnik(kg, annotations)


def sim_resnik_pair(a: str, b: str, kg: KnowledgeGraph,
                    ic: InformationContentTable) -> float:
    """IC of the most informative common ancestor of two terms; 0.0 when
    no common ancestor has a positive IC."""
    masks = ic._masks_for(kg)
    common = masks.mask(a) & masks.mask(b)
    return masks.ic[(common & -common).bit_length() - 1] if common else 0.0


def _closure_union(terms: Iterable[str], kg: KnowledgeGraph) -> set[str]:
    out: set[str] = set()
    for t in terms:
        out |= kg.ancestor_set(t)
    return out


def sim_groupwise(gene_terms: set[str], disease_terms: set[str],
                  config: SimilarityConfig, kg: KnowledgeGraph,
                  ic: InformationContentTable, pair_sim=sim_resnik_pair) -> float:
    """Aggregate term-pair similarity over two annotation sets.

    BMA averages the two directional best-match means, MAX takes the
    global pairwise maximum, and SimGIC is the IC-weighted Jaccard of
    the ancestor closures. ``pair_sim`` exists so batch callers can
    memoize the pairwise core across many entity pairs.
    """
    if not gene_terms or not disease_terms:
        raise DegenerateDataError("groupwise similarity needs non-empty term sets")
    if config.aggregation == "SIMGIC":
        anc_a = _closure_union(gene_terms, kg)
        anc_b = _closure_union(disease_terms, kg)
        # fsum is exact, so the result does not depend on set iteration order
        inter = math.fsum(ic.values[t] for t in anc_a & anc_b if t in ic.values)
        union = math.fsum(ic.values[t] for t in anc_a | anc_b if t in ic.values)
        return inter / union if union > 0 else 0.0
    a_list = sorted(gene_terms)
    b_list = sorted(disease_terms)
    row_best = [0.0] * len(a_list)
    col_best = [0.0] * len(b_list)
    for i, a in enumerate(a_list):
        for j, b in enumerate(b_list):
            s = pair_sim(a, b, kg, ic)
            if s > row_best[i]:
                row_best[i] = s
            if s > col_best[j]:
                col_best[j] = s
    if config.aggregation == "MAX":
        return max(row_best)
    return 0.5 * (sum(row_best) / len(row_best) + sum(col_best) / len(col_best))


@dataclass
class ScoredPair:
    gene: EntityId
    disease: EntityId
    raw_score: float
    normalized_score: float
    label: int


@dataclass
class ScoredPairs:
    rows: list[ScoredPair]
    excluded_entities: list[EntityId] = field(default_factory=list)

    def normalized_scores(self) -> list[float]:
        return [r.normalized_score for r in self.rows]


def ssm_baseline(dataset: "AssociationDataset", config: SimilarityConfig,
                 kg: KnowledgeGraph, annotations: AnnotationMap,
                 ic: InformationContentTable | None = None) -> ScoredPairs:
    """Score every dataset pair with a groupwise measure.

    Raw scores are min-max normalized to [0, 1] across the scored set
    (corpus IC is unbounded); if all raw scores coincide every pair maps
    to 1.0. Entities without annotations are reported, not scored.
    ``ic`` lets measures of one IC flavour share a table (and its MICA
    masks); without it the table is built here.
    """
    if ic is None:
        ic = ic_table(config.ic_flavor, kg, annotations)
    elif ic.flavor != config.ic_flavor:
        raise ValueError(f"{config.name} needs a {config.ic_flavor} IC table, "
                         f"got {ic.flavor}")

    # term pairs recur across entity pairs; sim_resnik_pair is symmetric
    memo: dict[tuple[str, str], float] = {}

    def cached_pair(a, b, kg_, ic_):
        key = (a, b) if a <= b else (b, a)
        value = memo.get(key)
        if value is None:
            value = sim_resnik_pair(key[0], key[1], kg_, ic_)
            memo[key] = value
        return value

    rows: list[ScoredPair] = []
    excluded: list[EntityId] = []
    excluded_seen: set[EntityId] = set()
    for pair in dataset.pairs:
        gene_terms = annotations.entries.get(pair.gene)
        disease_terms = annotations.entries.get(pair.disease)
        missing = [e for e, t in ((pair.gene, gene_terms), (pair.disease, disease_terms))
                   if not t]
        if missing:
            for e in missing:
                if e not in excluded_seen:
                    excluded_seen.add(e)
                    excluded.append(e)
            continue
        raw = sim_groupwise(gene_terms, disease_terms, config, kg, ic,
                            pair_sim=cached_pair)
        rows.append(ScoredPair(pair.gene, pair.disease, raw, 0.0, pair.label))
    if rows:
        lo = min(r.raw_score for r in rows)
        hi = max(r.raw_score for r in rows)
        for r in rows:
            r.normalized_score = (r.raw_score - lo) / (hi - lo) if hi > lo else 1.0
    return ScoredPairs(rows, excluded)


def write_scored_pairs(scored: ScoredPairs, path) -> None:
    write_tsv(path, ("gene", "disease", "raw_score", "normalized_score", "label"), (
        (r.gene.id, r.disease.id, r.raw_score, r.normalized_score,
         "positive" if r.label else "negative") for r in scored.rows))
