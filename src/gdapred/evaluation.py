"""Dataset assembly, classification metrics, and evaluation reports.

Negative sampling draws unknown gene-disease combinations from the
entities seen in positive pairs; the stratified split is persisted so
every experiment reuses the same partition. WAF is the support-weighted
mean of the per-label F-measures; AUC uses the rank statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from .artifacts import read_tsv, write_json, write_tsv
from .errors import DegenerateDataError, InfeasibleNegativesError, IntegrityError
from .ontology import DISEASE, GENE, EntityId

POSITIVE = 1
NEGATIVE = 0
#: each label's name in the dataset and scored-pairs files, by label
LABEL_NAMES = ("negative", "positive")
TRAIN = "train"
TEST = "test"


@dataclass(eq=False)
class AssociationDataset:
    """Gene-disease pairs as columns, row i being one pair: ``genes[i]``
    and ``diseases[i]`` (one shared `EntityId` per distinct id when read
    from a file), its 0/1 label ``labels[i]`` and, once split, whether it
    is in the train partition, ``train[i]``. The columns have equal
    lengths, no (gene, disease) pair occurs twice and every label is
    `POSITIVE` or `NEGATIVE`; a dataset that breaks this raises
    ValueError."""
    genes: list[EntityId]
    diseases: list[EntityId]
    labels: np.ndarray
    train: np.ndarray | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.train is not None:
            self.train = np.asarray(self.train, dtype=bool)
        n = len(self.labels)
        if not len(self.genes) == len(self.diseases) == n or (
                self.train is not None and self.train.shape != (n,)):
            raise ValueError("dataset columns differ in length")
        if len(set(zip(self.genes, self.diseases))) != n:
            raise ValueError("dataset contains duplicate gene-disease pairs")
        if not np.all((self.labels == POSITIVE) | (self.labels == NEGATIVE)):
            raise ValueError(f"labels must be {POSITIVE} or {NEGATIVE}")

    def __len__(self) -> int:
        return len(self.labels)

    def id_pairs(self) -> list[tuple[str, str]]:
        """The (gene id, disease id) of every pair, in row order."""
        return list(zip([g.id for g in self.genes], [d.id for d in self.diseases]))

    def partition_indices(self, partition: str) -> np.ndarray:
        """The ascending positions of the pairs in ``partition``."""
        if self.train is None:
            raise DegenerateDataError("dataset has no persisted split")
        if partition not in (TRAIN, TEST):
            raise ValueError(f"unknown partition {partition!r}")
        return np.flatnonzero(self.train == (partition == TRAIN))


def sample_negatives(positives: Iterable[tuple[EntityId, EntityId]],
                     seed: int) -> AssociationDataset:
    """Build a balanced dataset by sampling unknown combinations.

    Negatives pair genes and diseases that both occur in the positive
    set but have no known association; duplicates and known positives
    are rejected until the negative count matches the positive count.
    """
    pos_pairs = list(positives)
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

    pairs = pos_pairs + negatives
    return AssociationDataset([g for g, _ in pairs], [d for _, d in pairs],
                              np.repeat([POSITIVE, NEGATIVE], need))


def stratified_split(dataset: AssociationDataset, train_fraction: float = 0.7,
                     seed: int = 0) -> AssociationDataset:
    """Assign train/test per label; train size rounds half up. A label
    with fewer than 2 members, or whose rounded train size leaves one
    side without any of them, raises DegenerateDataError."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    members = {label: np.flatnonzero(dataset.labels == label)
               for label in (POSITIVE, NEGATIVE)}
    for label, indices in members.items():
        if len(indices) < 2:
            raise DegenerateDataError(
                f"label {label} has {len(indices)} members; cannot stratify")
    rng = np.random.default_rng(seed)
    train = np.zeros(len(dataset), dtype=bool)
    for label, indices in members.items():
        n_train = int(math.floor(train_fraction * len(indices) + 0.5))
        if n_train in (0, len(indices)):
            raise DegenerateDataError(
                f"train_fraction {train_fraction} leaves the "
                f"{TRAIN if n_train == 0 else TEST} partition without any of "
                f"the {len(indices)} members of label {label}")
        train[indices[rng.permutation(len(indices))[:n_train]]] = True
    return replace(dataset, train=train)


def write_dataset(dataset: AssociationDataset, path) -> None:
    parts = (repeat("") if dataset.train is None else
             [(TEST, TRAIN)[t] for t in dataset.train.tolist()])
    write_tsv(path, ("gene", "disease", "label", "partition"), (
        (gene, disease, LABEL_NAMES[label], part) for (gene, disease), label, part
        in zip(dataset.id_pairs(), dataset.labels.tolist(), parts)))


def read_dataset(path) -> AssociationDataset:
    """IntegrityError names the line of a label other than positive or
    negative, of a partition other than train, test or empty, of an empty
    gene or disease id, of a repeated (gene, disease) pair, or of the
    first row whose partition cell is set when the first row's is empty,
    or empty when it is set. A file without pairs raises it too."""
    label_of = {name: label for label, name in enumerate(LABEL_NAMES)}
    pairs: dict[tuple[str, str], None] = {}
    labels, parts = [], []
    rows = read_tsv(path, width=4)
    next(rows)  # header
    for lineno, (gene_id, disease_id, label, part) in enumerate(rows, start=2):
        if label not in label_of or part not in (TRAIN, TEST, ""):
            raise IntegrityError(f"{path}, line {lineno}: unknown label {label!r} "
                                 f"or partition {part!r}")
        if not gene_id or not disease_id:
            raise IntegrityError(f"{path}, line {lineno}: empty gene or disease id")
        if parts and bool(part) != bool(parts[0]):
            raise IntegrityError(f"{path}, line {lineno}: partition {part!r}, but "
                                 "partitions must be set on every row or on none")
        if (gene_id, disease_id) in pairs:
            raise IntegrityError(f"{path}, line {lineno}: repeats the pair "
                                 f"({gene_id}, {disease_id})")
        pairs[gene_id, disease_id] = None
        labels.append(label_of[label])
        parts.append(part)
    if not pairs:
        raise IntegrityError(f"{path}: holds no pairs")
    gene_ids, disease_ids = zip(*pairs)
    return AssociationDataset(
        _entities(gene_ids, GENE), _entities(disease_ids, DISEASE), labels,
        [p == TRAIN for p in parts] if parts[0] else None)


def _entities(ids: Sequence[str], kind: str) -> list[EntityId]:
    """One `EntityId` of ``kind`` per distinct id, listed for each of ``ids``."""
    of_id = {i: EntityId(i, kind) for i in set(ids)}
    return [of_id[i] for i in ids]


def _confusion(y_true, scores, thresholds):
    """(tp, fp, fn, tn) when a score above the threshold predicts positive,
    for one threshold or an array of them, from one sort of the scores."""
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.size == 0:
        raise DegenerateDataError("empty input")
    if y_true.shape != scores.shape:
        raise ValueError("label arrays must have equal length")
    if not np.all((y_true == POSITIVE) | (y_true == NEGATIVE)):
        raise ValueError(f"labels must be {POSITIVE} or {NEGATIVE}")
    order = np.argsort(scores, kind="stable")
    positives_below = np.r_[0, np.cumsum(y_true[order])]  # among the k lowest
    negative = np.searchsorted(scores[order], thresholds, side="right")  # predicted
    fn, n_pos = positives_below[negative], positives_below[-1]
    return n_pos - fn, y_true.size - n_pos - (negative - fn), fn, negative - fn


def _count_metrics(tp, fp, fn, tn):
    """Per-label precision, recall, F1 and support, and the WAF, from the
    positive label's confusion counts: Python numbers, or lists for arrays."""
    per_label = {}
    for name, hit, false_alarm, miss in (("positive", tp, fp, fn),
                                         ("negative", tn, fn, fp)):
        # hit <= denominator, so an empty denominator gives 0 / 1 = 0.0
        precision = hit / np.maximum(hit + false_alarm, 1)
        recall = hit / np.maximum(hit + miss, 1)
        f1 = np.divide(2 * precision * recall, precision + recall,
                       out=np.zeros(np.shape(hit)), where=precision + recall > 0)
        per_label[name] = {"precision": precision, "recall": recall, "f1": f1,
                           "support": hit + miss}
    weighted = per_label["positive"]["f1"] * (tp + fn) + per_label["negative"]["f1"] * (tn + fp)
    return ({name: {key: value.tolist() for key, value in metrics.items()}
             for name, metrics in per_label.items()},
            (weighted / (tp + fp + fn + tn)).tolist())


def waf(y_true, y_pred) -> float:
    """Weighted average of per-label F-measures (weights = true supports)."""
    return _count_metrics(*_confusion(y_true, y_pred, 0.5))[1]


def roc_auc(y_true, scores) -> tuple[float, list[tuple[float | None, float, float]]]:
    """Rank-statistic AUC plus the ROC staircase.

    AUC = (concordant + ties/2) / (n_pos * n_neg), computed from average
    ranks. ROC points sweep the sorted unique scores; the leading (0, 0)
    anchor carries a ``None`` threshold.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    ascending = np.sort(scores, kind="stable")  # of 0.0 and -0.0, the first shows
    distinct = ascending[np.diff(ascending, prepend=-np.inf) != 0][::-1]
    # a score at or above one distinct score is above the next lower one
    tp, fp, _, _ = _confusion(y_true, scores, np.r_[distinct[1:], -np.inf])
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDataError("AUC undefined: both labels must be present")
    # the scores tied at distinct[k] share the average of the 1-based ranks
    # below[k] + 1 .. below[k] + tied[k]; every sum of ranks here is exact
    tied = np.diff(tp + fp, prepend=0)
    below = scores.size - (tp + fp)
    pos_rank_sum = float(np.sum(np.diff(tp, prepend=0) * (below + 0.5 * (tied + 1))))
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    points: list[tuple[float | None, float, float]] = [(None, 0.0, 0.0)]
    points += zip(distinct.tolist(), (fp / n_neg).tolist(), (tp / n_pos).tolist())
    return auc, points


def threshold_waf_table(scores, y_true) -> list[tuple[float, float]]:
    """WAF at each of the 101 thresholds 0.00, 0.01, ..., 1.00.

    A pair is predicted positive when its score strictly exceeds the
    threshold, so threshold 1.0 predicts all-negative.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all((scores >= 0.0) & (scores <= 1.0)):
        raise ValueError("threshold sweep requires scores within [0, 1]")
    thresholds = np.arange(101) / 100.0
    _, wafs = _count_metrics(*_confusion(y_true, scores, thresholds))
    return list(zip(thresholds.tolist(), wafs))


def threshold_sweep(scores, y_true) -> tuple[float, float]:
    """Best (threshold, WAF) over the 0.01-step grid; ties pick the smallest."""
    return max(threshold_waf_table(scores, y_true), key=lambda row: row[1])


@dataclass
class EvalReport:
    mode: str  # "classifier" | "score_threshold"
    config: dict = field(default_factory=dict)
    seed: int | None = None
    threshold: float | None = None
    waf: float = 0.0
    auc: float = 0.0
    per_label: dict = field(default_factory=dict)
    #: the ROC staircase; `write_roc_tsv` stores it, `write` leaves it out
    roc: list = field(default_factory=list)

    def write(self, path) -> None:
        write_json(path, {k: v for k, v in vars(self).items() if k != "roc"})


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
    if dataset.train is None:
        raise DegenerateDataError("dataset has no persisted split")
    if mode == "classifier":
        if model is None or features is None:
            raise ValueError("classifier mode needs a model and pair features")
        test_idx = dataset.partition_indices(TEST)
        y_true = dataset.labels[test_idx]
        scores = model.predict_proba(features[test_idx])[:, 1]
        threshold, reported = 0.5, None
    elif mode == "score_threshold":
        if scores is None:
            raise ValueError("score_threshold mode needs scores for every pair")
        if len(scores) != len(dataset):
            raise ValueError("one score per dataset pair is required")
        y_true = dataset.labels
        threshold = reported = threshold_sweep(scores, y_true)[0]
    else:
        raise ValueError(f"unknown evaluation mode {mode!r}")
    per_label, weighted = _count_metrics(*_confusion(y_true, scores, threshold))
    auc, points = roc_auc(y_true, scores)
    return EvalReport(mode=mode, config=dict(config or {}), seed=seed,
                      threshold=reported, waf=weighted, auc=auc,
                      per_label=per_label, roc=points)
