"""Dataset assembly, classification metrics, and evaluation reports.

Negative sampling draws unknown gene-disease combinations from the
entities seen in positive pairs; the stratified split is persisted so
every experiment reuses the same partition. WAF is the support-weighted
mean of the per-label F-measures; AUC uses the rank statistic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .artifacts import read_json, read_tsv, write_json, write_tsv
from .errors import DegenerateDataError, InfeasibleNegativesError
from .ontology import CuratedAssociation, EntityId

POSITIVE = 1
NEGATIVE = 0
TRAIN = "train"
TEST = "test"


@dataclass(frozen=True)
class LabeledPair:
    gene: EntityId
    disease: EntityId
    label: int

    @property
    def key(self) -> tuple[EntityId, EntityId]:
        return (self.gene, self.disease)


@dataclass
class AssociationDataset:
    pairs: list[LabeledPair]
    split: dict[tuple[EntityId, EntityId], str] | None = None
    seed: int | None = None

    def __post_init__(self):
        keys = [p.key for p in self.pairs]
        if len(set(keys)) != len(keys):
            raise ValueError("dataset contains duplicate gene-disease pairs")

    def positives(self) -> list[LabeledPair]:
        return [p for p in self.pairs if p.label == POSITIVE]

    def negatives(self) -> list[LabeledPair]:
        return [p for p in self.pairs if p.label == NEGATIVE]

    def labels(self) -> np.ndarray:
        return np.array([p.label for p in self.pairs], dtype=np.int64)

    def partition_indices(self, partition: str) -> np.ndarray:
        if self.split is None:
            raise DegenerateDataError("dataset has no persisted split")
        return np.array([i for i, p in enumerate(self.pairs)
                         if self.split[p.key] == partition], dtype=np.int64)

    def entities(self) -> tuple[set[EntityId], set[EntityId]]:
        genes = {p.gene for p in self.pairs}
        diseases = {p.disease for p in self.pairs}
        return genes, diseases


def _as_pairs(positives: Iterable) -> list[tuple[EntityId, EntityId]]:
    out = []
    for p in positives:
        if isinstance(p, CuratedAssociation):
            out.append((p.gene, p.disease))
        elif isinstance(p, LabeledPair):
            out.append((p.gene, p.disease))
        else:
            gene, disease = p
            out.append((gene, disease))
    return out


def sample_negatives(positives: Iterable, seed: int) -> AssociationDataset:
    """Build a balanced dataset by sampling unknown combinations.

    Negatives pair genes and diseases that both occur in the positive
    set but have no known association; duplicates and known positives
    are rejected until the negative count matches the positive count.
    """
    pos_pairs = _as_pairs(positives)
    pos_set = set(pos_pairs)
    if len(pos_set) != len(pos_pairs):
        raise ValueError("positive pairs contain duplicates")
    genes = sorted({g for g, _ in pos_pairs}, key=lambda e: e.id)
    diseases = sorted({d for _, d in pos_pairs}, key=lambda e: e.id)
    if len(genes) < 2 or len(diseases) < 2:
        raise DegenerateDataError("need at least 2 distinct genes and diseases")
    need = len(pos_pairs)
    feasible = len(genes) * len(diseases) - len(pos_set)
    if feasible < need:
        raise InfeasibleNegativesError(
            f"only {feasible} unknown combinations available, {need} required")

    rng = np.random.default_rng(seed)
    negatives: list[tuple[EntityId, EntityId]] = []
    if need > feasible // 2:
        # rejection sampling would crawl near exhaustion; enumerate instead
        candidates = [(g, d) for g in genes for d in diseases if (g, d) not in pos_set]
        order = rng.permutation(len(candidates))
        negatives = [candidates[i] for i in order[:need]]
    else:
        chosen: set[tuple[EntityId, EntityId]] = set()
        while len(negatives) < need:
            g = genes[int(rng.integers(len(genes)))]
            d = diseases[int(rng.integers(len(diseases)))]
            if (g, d) in pos_set or (g, d) in chosen:
                continue
            chosen.add((g, d))
            negatives.append((g, d))

    pairs = [LabeledPair(g, d, POSITIVE) for g, d in pos_pairs]
    pairs += [LabeledPair(g, d, NEGATIVE) for g, d in negatives]
    return AssociationDataset(pairs, seed=seed)


def stratified_split(dataset: AssociationDataset, train_fraction: float = 0.7,
                     seed: int = 0) -> AssociationDataset:
    """Assign train/test per label; train size rounds half up."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    split: dict[tuple[EntityId, EntityId], str] = {}
    for label in (POSITIVE, NEGATIVE):
        indices = [i for i, p in enumerate(dataset.pairs) if p.label == label]
        if len(indices) < 2:
            raise DegenerateDataError(
                f"label {label} has {len(indices)} members; cannot stratify")
        n_train = int(math.floor(train_fraction * len(indices) + 0.5))
        order = rng.permutation(len(indices))
        for pos, j in enumerate(order):
            pair = dataset.pairs[indices[j]]
            split[pair.key] = TRAIN if pos < n_train else TEST
    return AssociationDataset(list(dataset.pairs), split=split, seed=seed)


def write_dataset(dataset: AssociationDataset, path) -> None:
    write_tsv(path, ("gene", "disease", "label", "partition"), (
        (p.gene.id, p.disease.id, "positive" if p.label == POSITIVE else "negative",
         dataset.split[p.key] if dataset.split else "")
        for p in dataset.pairs))


def read_dataset(path) -> AssociationDataset:
    pairs, split = [], {}
    rows = read_tsv(path)
    next(rows)  # header
    for gene_id, disease_id, label, part in rows:
        pair = LabeledPair(EntityId(gene_id, "gene"), EntityId(disease_id, "disease"),
                           POSITIVE if label == "positive" else NEGATIVE)
        pairs.append(pair)
        if part:
            split[pair.key] = part
    return AssociationDataset(pairs, split=split or None)


def per_label_metrics(y_true, y_pred) -> dict[str, dict[str, float]]:
    """Precision/recall/F1 and support for the positive and negative label."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.size == 0:
        raise DegenerateDataError("empty input")
    if y_true.shape != y_pred.shape:
        raise ValueError("label arrays must have equal length")
    out: dict[str, dict[str, float]] = {}
    for name, label in (("positive", POSITIVE), ("negative", NEGATIVE)):
        tp = int(np.sum((y_pred == label) & (y_true == label)))
        fp = int(np.sum((y_pred == label) & (y_true != label)))
        fn = int(np.sum((y_pred != label) & (y_true == label)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        out[name] = {"precision": precision, "recall": recall, "f1": f1,
                     "support": tp + fn}
    return out


def waf(y_true, y_pred) -> float:
    """Weighted average of per-label F-measures (weights = true supports)."""
    metrics = per_label_metrics(y_true, y_pred)
    total = sum(m["support"] for m in metrics.values())
    return sum(m["f1"] * m["support"] for m in metrics.values()) / total


def roc_auc(y_true, scores) -> tuple[float, list[tuple[float | None, float, float]]]:
    """Rank-statistic AUC plus the ROC staircase.

    AUC = (concordant + ties/2) / (n_pos * n_neg), computed from average
    ranks. ROC points sweep the sorted unique scores; the leading (0, 0)
    anchor carries a ``None`` threshold.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    n_pos = int(np.sum(y_true == POSITIVE))
    n_neg = int(np.sum(y_true == NEGATIVE))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDataError("AUC undefined: both labels must be present")

    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # runs of equal scores in ascending order span starts[k]..ends[k]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:] - 1, len(scores) - 1]
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0,  # average rank, 1-based
                             ends - starts + 1)
    pos_rank_sum = float(np.sum(ranks[y_true == POSITIVE]))
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    # the staircase takes one step per distinct score, highest first
    sorted_y = y_true[order]
    tp = np.add.reduceat(sorted_y == POSITIVE, starts, dtype=np.int64)[::-1].cumsum()
    fp = np.add.reduceat(sorted_y == NEGATIVE, starts, dtype=np.int64)[::-1].cumsum()
    points: list[tuple[float | None, float, float]] = [(None, 0.0, 0.0)]
    points += zip(sorted_scores[starts[::-1]].tolist(), (fp / n_neg).tolist(),
                  (tp / n_pos).tolist())
    return auc, points


def threshold_waf_table(scores, y_true) -> list[tuple[float, float]]:
    """WAF at each of the 101 thresholds 0.00, 0.01, ..., 1.00.

    A pair is predicted positive when its score strictly exceeds the
    threshold, so threshold 1.0 predicts all-negative.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.int64)
    if scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        raise ValueError("threshold sweep requires scores within [0, 1]")
    table = []
    for i in range(101):
        t = i / 100.0
        y_pred = (scores > t).astype(np.int64)
        table.append((t, waf(y_true, y_pred)))
    return table


def threshold_sweep(scores, y_true) -> tuple[float, float]:
    """Best (threshold, WAF) over the 0.01-step grid; ties pick the smallest."""
    table = threshold_waf_table(scores, y_true)
    best_t, best_w = table[0]
    for t, w in table[1:]:
        if w > best_w:
            best_t, best_w = t, w
    return best_t, best_w


@dataclass
class EvalReport:
    mode: str  # "classifier" | "score_threshold"
    config: dict = field(default_factory=dict)
    seed: int | None = None
    threshold: float | None = None
    waf: float = 0.0
    auc: float = 0.0
    per_label: dict = field(default_factory=dict)
    roc: list = field(default_factory=list)

    def to_json(self) -> str:
        # vars, not asdict: asdict deep-copies every ROC point
        return json.dumps(vars(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls(**json.loads(text))

    def write(self, path) -> None:
        write_json(path, vars(self))

    @classmethod
    def read(cls, path) -> "EvalReport":
        return cls(**read_json(path))


def write_roc_tsv(points: Sequence[tuple[float | None, float, float]], path) -> None:
    write_tsv(path, ("threshold", "fpr", "tpr"), (
        (math.inf if t is None else t, fpr, tpr) for t, fpr, tpr in points))


def evaluate_run(dataset: AssociationDataset, mode: str, *, model=None,
                 features=None, scores=None, config: dict | None = None,
                 seed: int | None = None) -> EvalReport:
    """Produce an EvalReport for a classifier or a scored baseline.

    Classifier mode evaluates hard predictions (probability > 0.5) and
    AUC on the held-out test partition. Score-threshold mode mirrors the
    baseline protocol: the threshold maximizing WAF is chosen on the
    full scored set and reported together with the AUC of the scores.
    """
    if dataset.split is None:
        raise DegenerateDataError("dataset has no persisted split")
    config = dict(config or {})
    if mode == "classifier":
        if model is None or features is None:
            raise ValueError("classifier mode needs a model and pair features")
        test_idx = dataset.partition_indices(TEST)
        y_true = dataset.labels()[test_idx]
        proba = model.predict_proba(features.rows[test_idx])[:, 1]
        y_pred = (proba > 0.5).astype(np.int64)
        auc, points = roc_auc(y_true, proba)
        return EvalReport(
            mode=mode, config=config, seed=seed, threshold=None,
            waf=waf(y_true, y_pred), auc=auc,
            per_label=per_label_metrics(y_true, y_pred), roc=points)
    if mode == "score_threshold":
        if scores is None:
            raise ValueError("score_threshold mode needs scores for every pair")
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape[0] != len(dataset.pairs):
            raise ValueError("one score per dataset pair is required")
        y_true = dataset.labels()
        best_t, best_w = threshold_sweep(scores, y_true)
        y_pred = (scores > best_t).astype(np.int64)
        auc, points = roc_auc(y_true, scores)
        return EvalReport(
            mode=mode, config=config, seed=seed, threshold=best_t,
            waf=best_w, auc=auc,
            per_label=per_label_metrics(y_true, y_pred), roc=points)
    raise ValueError(f"unknown evaluation mode {mode!r}")
