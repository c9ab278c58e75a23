"""Information content and semantic-similarity baselines.

Implements the Seco (descendant-count) and corpus/Resnik IC flavours and
the six groupwise measure configurations (BMA, MAX, SimGIC crossed with
both IC flavours) used to score gene-disease pairs on the phenotype KG.

Every closure the tables and measures need is a Python-int bitset per
term, built in one pass along the KG's parents-first term order, each
term OR-ing its parents' bitsets (or, children first, pushing its own
into theirs): ancestors over the sorted terms (kept on the KG) for the
corpus IC counts and SimGIC's rows, descendants for the Seco counts,
and the MICA masks over the IC-ranked terms. SimGIC sums IC exactly in
integers.

What no measure changes is a ``PairPlan``, built once per dataset and
shared by the measure runs over it: the scored pairs, their distinct
annotation sets, the distinct term pairs of their lookups and the sets'
closure rows. ``ssm_baseline`` scores a plan's pairs with one measure
and one IC table; it is the one implementation of each measure, and
``tests/helpers.py`` keeps the single-pair set forms as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from typing import TYPE_CHECKING, Collection, Sequence

import numpy as np

from .artifacts import write_tsv
from .errors import DegenerateDataError, UnknownNodeError
from .evaluation import LABEL_NAMES
from .kg import KnowledgeGraph
from .ontology import AnnotationMap
from .validation import check_fields, one_of

if TYPE_CHECKING:
    from .evaluation import AssociationDataset

IC_SECO = "seco"
IC_RESNIK_CORPUS = "resnik_corpus"
AGGREGATIONS = ("BMA", "MAX", "SIMGIC")
#: intersection-mask cells, pairs x KG terms, held at once while a
#: SimGIC run sums its pairs (BMA and MAX hold one value per lookup)
_CHUNK = 1 << 14


@dataclass
class InformationContentTable:
    flavor: str
    values: dict[str, float]
    #: the table over the KG it was last used with, built from
    #: ``values`` on first use: do not change ``values`` after that
    _index: "_GraphIndex | None" = field(
        default=None, init=False, repr=False, compare=False)

    def _index_for(self, kg: KnowledgeGraph) -> "_GraphIndex":
        if self._index is None or self._index.kg is not kg:
            self._index = _GraphIndex(kg, self.values)
        return self._index


class _GraphIndex:
    """The MICA masks of one IC table over the term nodes of one KG.

    The terms with IC > 0 are ranked by IC, lowest first, ties broken by
    term id; bit r of ``masks[t]`` is set when the rank-r term is among
    the ancestors of t. The highest bit two masks share is then their
    most informative common ancestor, and no shared bit means MICA 0.
    """

    def __init__(self, kg: KnowledgeGraph, values: dict[str, float]):
        self.kg = kg
        ranked = sorted((t for t, v in values.items() if v > 0.0),
                        key=lambda t: (values[t], t))
        self.ic = [values[t] for t in ranked]
        self.masks = kg.closure_bits({t: 1 << r for r, t in enumerate(ranked)})


def _closure_rows(sets: Collection[Collection[str]], closure: dict[str, int],
                  width: int) -> np.ndarray:
    """The union of ``closure`` over each set's terms, as one boolean row
    of ``width`` columns per set; UnknownNodeError for a term that is not
    a term node."""
    size = (width + 7) // 8
    packed = bytearray()
    for terms in sets:
        bits = 0
        for t in terms:
            try:
                bits |= closure[t]
            except KeyError:
                raise UnknownNodeError(
                    f"{t} is not a term node of this graph") from None
        packed += bits.to_bytes(size, "little")
    rows = np.unpackbits(np.array(packed, dtype=np.uint8).reshape(len(sets), size),
                         axis=1, count=width, bitorder="little")
    return rows.view(bool)


@dataclass(frozen=True)
class SimilarityConfig:
    aggregation: str = one_of(AGGREGATIONS)
    ic_flavor: str = one_of((IC_SECO, IC_RESNIK_CORPUS))

    def __post_init__(self):
        check_fields(self)

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
    n = len(kg.term_nodes)
    if n < 2:
        raise DegenerateDataError(f"need at least 2 term nodes, got {n}")
    order = kg.term_order()
    # children first, each term pushes its descendants and itself up
    below = {t: 1 << i for i, t in enumerate(order)}
    for t in reversed(order):
        for parent in kg.parents(t):
            below[parent] |= below[t]
    log_n = math.log(n)
    values = {t: 1.0 - math.log(below[t].bit_count()) / log_n
              for t in sorted(order)}
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
    terms, closure = kg.ancestor_bits()
    counts = _closure_rows(annotations.entries.values(), closure,
                           len(terms)).sum(axis=0).tolist()
    log_n = math.log(n_entities)
    values = {t: log_n - math.log(c) for t, c in zip(terms, counts) if c}
    return InformationContentTable(IC_RESNIK_CORPUS, values)


def ic_table(flavor: str, kg: KnowledgeGraph,
             annotations: AnnotationMap) -> InformationContentTable:
    """The IC table of one flavour, from ``ic_seco`` or ``ic_resnik``,
    with its MICA masks over ``kg`` built."""
    table = ic_seco(kg) if flavor == IC_SECO else ic_resnik(kg, annotations)
    table._index_for(kg)
    return table


def sim_resnik_pair(a: str, b: str, kg: KnowledgeGraph,
                    ic: InformationContentTable) -> float:
    """IC of the most informative common ancestor of two terms; 0.0 when
    no common ancestor has a positive IC."""
    index = ic._index
    if index is None or index.kg is not kg:
        index = ic._index_for(kg)
    masks = index.masks
    try:
        common = masks[a] & masks[b]
    except KeyError as missing:
        raise UnknownNodeError(
            f"{missing.args[0]} is not a term node of this graph") from None
    return index.ic[common.bit_length() - 1] if common else 0.0


def sim_groupwise(gene_terms: Collection[str], disease_terms: Collection[str],
                  config: SimilarityConfig, similarities: np.ndarray) -> float:
    """BMA or MAX of two annotation sets from ``similarities``, the
    ``sim_resnik_pair`` values of the sorted gene terms x the sorted
    disease terms as a (|G|, |D|) float64 block.

    BMA averages the two directional best-match means and MAX takes the
    global pairwise maximum. A SimGIC config or a block of another shape
    is a ValueError. The result is a Python float.
    """
    if not gene_terms or not disease_terms:
        raise DegenerateDataError("groupwise similarity needs non-empty term sets")
    if config.aggregation == "SIMGIC":
        raise ValueError(f"{config.name} is not a best-match measure")
    shape = (len(gene_terms), len(disease_terms))
    block = np.asarray(similarities, dtype=np.float64)
    if block.shape != shape:
        raise ValueError(f"similarities of shape {block.shape} for "
                         f"{shape[0]} x {shape[1]} terms")
    # similarities are >= 0, so a best match is the plain max of its row
    # or column; max is exact, and + 0.0 makes a -0.0 maximum the 0.0 of
    # a running max from 0.0. The means sum in sorted term order.
    if config.aggregation == "MAX":
        return float(block.max()) + 0.0
    row_best = block.max(axis=1).tolist()
    col_best = block.max(axis=0).tolist()
    return 0.5 * (sum(row_best) / len(row_best) + sum(col_best) / len(col_best))


class PairPlan:
    """What scoring one dataset's pairs needs that no measure changes.

    Built once per dataset, annotation map and KG, of which it keeps
    only the KG, which must not change after, and shared by every
    ``ssm_baseline`` run over them: the ascending dataset positions of
    the scored pairs, ``rows``, and the entities without annotations;
    the distinct annotation sets, in order of first use, with each
    pair's gene set and disease set as indices into them; and, each built on first use, so by the first run
    that needs it, BMA and MAX's term-pair ``lookups`` and SimGIC's
    ``closure_rows``.
    """

    def __init__(self, dataset: "AssociationDataset", kg: KnowledgeGraph,
                 annotations: AnnotationMap):
        self.kg = kg
        rows: list[int] = []
        self.genes: list[int] = []
        self.diseases: list[int] = []
        number: dict[frozenset[str], int] = {}
        of_entity: dict[str, int | None] = {}
        excluded: dict[str, None] = {}

        def index(entity: str) -> int | None:
            if entity not in of_entity:
                terms = annotations.entries.get(entity)
                of_entity[entity] = number.setdefault(
                    frozenset(terms), len(number)) if terms else None
            if of_entity[entity] is None:
                excluded[entity] = None
            return of_entity[entity]

        for row, (gene, disease) in enumerate(zip(dataset.genes, dataset.diseases)):
            gi, di = index(gene), index(disease)
            if gi is not None and di is not None:
                rows.append(row)
                self.genes.append(gi)
                self.diseases.append(di)
        self.rows = np.array(rows, dtype=np.int64)
        self.sets: list[frozenset[str]] = list(number)
        self.excluded: list[str] = list(excluded)

    @cached_property
    def lookups(self) -> tuple[list[str], list[str], np.ndarray, list[int]]:
        """BMA and MAX's term-pair lookups: the distinct unordered term
        pairs, as the list of their first terms and the list of their
        second; each lookup's index into them, a pair's lookups in
        row-major order over its sorted gene x disease terms, one pair
        after another; and the bounds of each pair's lookups."""
        sets = self.sets
        # terms are numbered in sorted order, so (min, max) of two numbers
        # is the pair in string order and each set's numbers sort as its terms
        terms = sorted(set().union(*sets))
        number = {t: i for i, t in enumerate(terms)}
        members = [sorted(number[t] for t in s) for s in sets]
        sizes = np.array([len(m) for m in members])
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        indices = np.fromiter(chain.from_iterable(members), np.int64,
                              count=int(indptr[-1]))
        g = np.array(self.genes)
        d = np.array(self.diseases)
        bounds = np.concatenate(([0], np.cumsum(sizes[g] * sizes[d]))).tolist()
        # one row per (pair, gene term), then one lookup per disease term
        # of the row's pair. Per-lookup arrays set the stage's peak
        # memory: each is updated in place and freed once used.
        row_sets = np.repeat(d, sizes[g])
        a = np.repeat(_concat_slices(indptr, indices, g), sizes[row_sets])
        b = _concat_slices(indptr, indices, row_sets)
        codes = np.minimum(a, b)
        codes *= len(terms)
        codes += np.maximum(a, b, out=a)
        del a, b
        # np.unique(codes, return_inverse=True), holding half as many
        # per-lookup arrays at once
        order = np.argsort(codes)
        codes = codes[order]
        first = np.empty(len(codes), dtype=bool)
        first[0] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        distinct = codes[first]
        del codes
        rank = np.cumsum(first)
        rank -= 1
        inverse = np.empty_like(order)
        inverse[order] = rank
        del order, rank
        names = np.array(terms, dtype=object)
        return (names[distinct // len(terms)].tolist(),
                names[distinct % len(terms)].tolist(), inverse, bounds)

    @cached_property
    def closure_rows(self) -> np.ndarray:
        """SimGIC's rows: each distinct set's ancestor closure as a
        boolean row over the KG's sorted term nodes."""
        terms, closure = self.kg.ancestor_bits()
        return _closure_rows(self.sets, closure, len(terms))


def ssm_baseline(plan: PairPlan, config: SimilarityConfig,
                 ic: InformationContentTable) -> tuple[np.ndarray, np.ndarray]:
    """The raw and the normalized scores of the plan's pairs, in the
    order of ``plan.rows``, with one groupwise measure and an IC table of
    its flavour (ValueError for another flavour).

    Raw scores are min-max normalized to [0, 1] across the scored set
    (corpus IC is unbounded); if all raw scores coincide every pair maps
    to 1.0. Entities without annotations are the plan's ``excluded``,
    not scored.

    A BMA or MAX run calls ``sim_resnik_pair`` once per distinct
    unordered term pair of the plan, all up front, gathers the values
    of every lookup in one step, then calls ``sim_groupwise`` once per
    pair with that pair's block. SimGIC sums IC exactly over each pair's
    shared and joint closure rows, so each score has the bits of
    ``math.fsum`` over the IC of the two sets' shared and joint
    ancestors.
    """
    if ic.flavor != config.ic_flavor:
        raise ValueError(f"{config.name} needs a {config.ic_flavor} IC table, "
                         f"got {ic.flavor}")

    raw: list[float] = []
    if len(plan.rows):
        if config.aggregation == "SIMGIC":
            raw = _simgic_scores(plan, ic)
        else:
            raw = _best_match_scores(plan, config, ic)
    raw = np.array(raw, dtype=np.float64)
    lo, hi = raw.min(initial=np.inf), raw.max(initial=-np.inf)
    return raw, np.divide(raw - lo, hi - lo, out=np.ones_like(raw), where=hi > lo)


def _best_match_scores(plan: PairPlan, config: SimilarityConfig,
                       ic: InformationContentTable) -> list[float]:
    """BMA or MAX of each scored pair of ``plan``."""
    kg, sets = plan.kg, plan.sets
    left, right, inverse, bounds = plan.lookups
    values = np.fromiter(map(sim_resnik_pair, left, right, repeat(kg), repeat(ic)),
                         dtype=np.float64, count=len(left))[inverse]
    return [sim_groupwise(sets[gi], sets[di], config,
                          values[lo:hi].reshape(len(sets[gi]), len(sets[di])))
            for gi, di, lo, hi in zip(plan.genes, plan.diseases, bounds, bounds[1:])]


def _concat_slices(indptr: np.ndarray, indices: np.ndarray,
                   which: np.ndarray) -> np.ndarray:
    """``indices[indptr[w]:indptr[w + 1]]`` for each w of ``which``, concatenated."""
    starts = indptr[which]
    lengths = indptr[which + 1] - starts
    ends = np.cumsum(lengths)
    at = np.repeat(starts - ends + lengths, lengths)
    at += np.arange(ends[-1])
    return indices[at]


def _simgic_scores(plan: PairPlan, ic: InformationContentTable) -> list[float]:
    """SimGIC of each scored pair of ``plan``.

    The IC over a pair's shared columns of the plan's closure rows comes
    from ``_ExactSums`` on one chunk of pairs at a time, and over its
    joint columns as the two sets' own sums less the shared one, all
    exact integers.
    """
    terms, _ = plan.kg.ancestor_bits()
    rows = plan.closure_rows
    sums = _ExactSums([ic.values.get(t, 0.0) for t in terms])
    step = max(1, _CHUNK // len(terms))
    own = [total for lo in range(0, len(rows), step)
           for total in sums.of_rows(rows[lo:lo + step])]
    raw: list[float] = []
    for lo in range(0, len(plan.genes), step):
        g = plan.genes[lo:lo + step]
        d = plan.diseases[lo:lo + step]
        for gi, di, shared in zip(g, d, sums.of_rows(rows[g] & rows[d])):
            inter = sums.value(shared)
            union = sums.value(own[gi] + own[di] - shared)
            raw.append(inter / union if union > 0 else 0.0)
    return raw


class _ExactSums:
    """Exact sums of float weights over 0/1 masks.

    Each weight is p/q with q a power of two, so each is an integer
    multiple ``n_t`` of 1/``scale``, ``scale`` the largest q. Split into
    signed limbs of ``bits`` bits, with terms x 2^bits <= 2^53, the
    limbs of any subset sum in float64 without rounding, in any order,
    so a BLAS dot of a mask row with each row of the (limbs x terms)
    matrix is exact; the limb sums of a row join back into its integer
    sum, and dividing that by ``scale`` rounds once, correctly, as
    ``math.fsum``.
    """

    def __init__(self, weights: Sequence[float]):
        ratios = [w.as_integer_ratio() for w in weights]
        top = max((q for _, q in ratios), default=1).bit_length()
        self.scale = 1 << (top - 1)
        ints = [p << (top - q.bit_length()) for p, q in ratios]
        self.bits = 53 - (len(ints) - 1).bit_length()
        width = max((abs(n).bit_length() for n in ints), default=0)
        low = (1 << self.bits) - 1
        shifts = range(0, max(width, 1), self.bits)
        magnitudes = np.array([[(abs(n) >> s) & low for n in ints] for s in shifts],
                              dtype=np.float64)
        self.limbs = magnitudes * np.sign(np.array(weights))

    def of_rows(self, mask: np.ndarray) -> list[int]:
        """The integer sum of the weights over each row's True columns."""
        # a dot per row and limb, not a matmul: as the first level-3
        # BLAS call of a run, a matmul here slowed the translational
        # benchmark's later embed stage by about 8% (2-vCPU x86-64 VM)
        limb_sums = np.vecdot(mask[:, None, :], self.limbs).astype(np.int64).T.tolist()
        totals = limb_sums[0]
        for k, sums in enumerate(limb_sums[1:], start=1):
            totals = [t + (s << (k * self.bits)) for t, s in zip(totals, sums)]
        return totals

    def value(self, total: int) -> float:
        """The float nearest ``total`` / ``scale``: int / int rounds once."""
        return total / self.scale


def write_scored_pairs(dataset: "AssociationDataset", rows: np.ndarray,
                       raw: np.ndarray, normalized: np.ndarray, path) -> None:
    """One line per dataset pair at ``rows``, with its two scores."""
    ids = dataset.id_pairs()
    write_tsv(path, ("gene", "disease", "raw_score", "normalized_score", "label"), (
        (*ids[i], r, n, LABEL_NAMES[label]) for i, r, n, label in zip(
            rows.tolist(), raw.tolist(), normalized.tolist(),
            dataset.labels[rows].tolist())))
