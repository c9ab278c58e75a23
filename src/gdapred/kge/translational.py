"""Translational-distance and semantic-matching embedding trainers.

Both share one mini-batch SGD loop over the KG's triples with uniformly
corrupted negatives, and each applies exactly the batch gradients of the
loss function that the tests check against finite differences.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateDataError
from ..kg import KnowledgeGraph
from ..validation import as_vector, check_same_dimension
from .base import (EmbeddingTable, KgeTrainConfig, check_finite, decayed_rate,
                   scatter_add)

L1 = "L1"
L2 = "L2"


def _distance(diff: np.ndarray, norm: str) -> np.ndarray:
    """The L1 or L2 length of ``diff`` over its last axis."""
    if norm == L1:
        return np.sum(np.abs(diff), axis=-1)
    if norm == L2:
        return np.linalg.norm(diff, axis=-1)
    raise ValueError(f"unknown norm {norm!r}")


def transe_score(h, r, t, norm: str = L2) -> float:
    """Negated translation residual; higher means more plausible."""
    h, r, t = as_vector(h), as_vector(r), as_vector(t)
    check_same_dimension(h, r)
    check_same_dimension(h, t)
    return -float(_distance(h + r - t, norm))


def transe_margin_loss(h, r, t, h2, r2, t2, margin: float = 1.0,
                       norm: str = L2):
    """Margin ranking loss ``max(0, margin + d(h + r - t) - d(h2 + r2 - t2))``
    and its six gradients (zero at the kinks of ``d``).

    Takes one sample, or true triples as (b, 1, d) rows against their
    corruptions as (b, k, d): the loss is then summed over the b x k
    samples and each gradient has one row per sample, (b, k, d), for a
    trainer to accumulate per identifier.
    """
    h, r, t, h2, r2, t2 = (np.asarray(v, dtype=np.float64)
                           for v in (h, r, t, h2, r2, t2))
    pos, neg = h + r - t, h2 + r2 - t2
    d_pos, d_neg = _distance(pos, norm), _distance(neg, norm)
    violation = margin + d_pos - d_neg
    loss = float(np.sum(np.maximum(violation, 0.0)))
    if norm == L1:
        pos, neg = np.sign(pos), np.sign(neg)
    else:
        pos /= np.where(d_pos > 0, d_pos, 1.0)[..., None]
        neg /= np.where(d_neg > 0, d_neg, 1.0)[..., None]
    active = (violation > 0.0).astype(np.float64)[..., None]
    g_pos = pos * active
    neg *= active
    g_neg = -neg
    return loss, (g_pos, g_pos, -g_pos, g_neg, g_neg, neg)


def distmult_score(h, r, t) -> float:
    """Trilinear product sum_i h_i * r_i * t_i."""
    h, r, t = as_vector(h), as_vector(r), as_vector(t)
    check_same_dimension(h, r)
    check_same_dimension(h, t)
    return float(np.sum(h * r * t))


def distmult_logistic_loss(h, r, t, label, l2_penalty: float = 1e-4):
    """softplus(-label * score) plus the L2 penalty, and its gradients.

    One triple of vectors with a ±1 label, or (n, d) rows with n labels:
    the loss is summed over the rows and each gradient has one row per
    input row.
    """
    h, r, t = (np.asarray(v, dtype=np.float64) for v in (h, r, t))
    label = np.asarray(label, dtype=np.float64)
    z = -label * np.sum(h * r * t, axis=-1)
    loss = float(np.sum(np.logaddexp(0.0, z))) + l2_penalty * float(
        np.sum(h * h) + np.sum(r * r) + np.sum(t * t))
    factor = (-label / (1.0 + np.exp(-z)))[..., None]
    grads = (r * t, h * t, h * r)
    for grad, own in zip(grads, (h, r, t)):
        grad *= factor
        grad += 2.0 * l2_penalty * own
    return loss, grads


def _indexed_triples(kg: KnowledgeGraph):
    nodes = sorted(kg.nodes)
    relations = sorted({rel for _, rel, _ in kg.triples})
    node_idx = {n: i for i, n in enumerate(nodes)}
    rel_idx = {r: i for i, r in enumerate(relations)}
    H, R, T = (np.array(column, dtype=np.int64) for column in zip(*(
        (node_idx[s], rel_idx[r], node_idx[o]) for s, r, o in sorted(kg.triples))))
    return nodes, relations, H, R, T


def _init_matrix(rng, rows: int, dim: int) -> np.ndarray:
    bound = 6.0 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=(rows, dim))


def _project_to_unit_ball(E: np.ndarray) -> None:
    norms = np.linalg.norm(E, axis=1)
    over = norms > 1.0
    E[over] /= norms[over, None]


def _descend(scale: float, *updates) -> None:
    """``table[index] -= scale * grad`` for each update, summed per row;
    each ``grad`` is scaled in place, so no two updates share one."""
    for table, index, grad in updates:
        grad *= -scale
        scatter_add(table, index, grad)


class _TripleSgd:
    """One seeded mini-batch SGD run over a KG's triples.

    One generator, seeded with ``config.seed``, draws the entity table,
    the relation table, whatever the trainer draws before ``run``, and
    then per epoch a permutation of the triples and per batch ``k``
    corruptions of each triple (``corrupt``).
    """

    def __init__(self, kg: KnowledgeGraph, config: KgeTrainConfig):
        if not kg.triples:
            raise DegenerateDataError("cannot train on an empty graph")
        self.nodes, self.relations, *self.triples = _indexed_triples(kg)
        self.config, self.k = config, config.negatives_per_positive
        self.rng = np.random.default_rng(config.seed)
        self.E = _init_matrix(self.rng, len(self.nodes), config.dimension)
        self.Rel = _init_matrix(self.rng, len(self.relations), config.dimension)

    def corrupt(self, H, R, T):
        """``k`` copies of each triple, each with its head or its tail
        replaced by a uniform node."""
        head = self.rng.integers(0, 2, size=H.size * self.k).astype(bool)
        node = self.rng.integers(0, len(self.nodes), size=H.size * self.k)
        H2, R2, T2 = (np.repeat(X, self.k) for X in (H, R, T))
        return np.where(head, node, H2), R2, np.where(head, T2, node)

    def run(self, method: str, step, record) -> EmbeddingTable:
        """``step(pos, neg, lr)`` applies one batch's update and returns
        its loss and the last gradient it applied; ``record`` maps the sum
        of an epoch's batch losses to its ``loss_history`` entry."""
        config, n = self.config, self.triples[0].size
        history: list[float] = []
        for epoch in range(config.epochs):
            lr = decayed_rate(config.learning_rate, epoch / config.epochs)
            order = self.rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, config.batch_size):
                pos = tuple(X[order[start:start + config.batch_size]]
                            for X in self.triples)
                # one gradient array lives until the next batch's replaces it:
                # with all of a batch's arrays freed at once, malloc returned
                # the heap top to the kernel every batch, and refaulting it was slow
                loss, last_grad = step(pos, self.corrupt(*pos), lr)
                epoch_loss += loss
            history.append(check_finite(
                method, epoch, config.learning_rate, record(epoch_loss),
                self.E, self.Rel))
        return EmbeddingTable(
            config.dimension, dict(zip(self.nodes, self.E.copy())), method,
            config.seed, dict(zip(self.relations, self.Rel.copy())), history)


def train_transe(kg: KnowledgeGraph, config: KgeTrainConfig) -> EmbeddingTable:
    """Margin-ranking SGD on the L2 distance; entity rows stay inside the
    unit L2 ball. ``loss_history`` holds the mean margin violation on one
    corruption set drawn before the first epoch, so it is a function of
    the parameters rather than of each epoch's draws."""
    sgd = _TripleSgd(kg, config)
    E, Rel, k = sgd.E, sgd.Rel, sgd.k
    _project_to_unit_ball(E)
    fixed = sgd.corrupt(*sgd.triples)

    def step(pos, neg, lr):
        (h, r, t), (h2, r2, t2) = pos, neg
        loss, (gh, gr, gt, gh2, gr2, gt2) = transe_margin_loss(
            E[h][:, None], Rel[r][:, None], E[t][:, None],
            *(M[i].reshape(h.size, k, -1) for M, i in ((E, h2), (Rel, r2), (E, t2))),
            margin=config.margin)
        # renormalising is not idempotent in the last bit, so a batch
        # with no active pair leaves the table alone
        if loss == 0.0:
            return loss, None
        _descend(lr / h2.size, (E, np.repeat(h, k), gh),
                 (E, np.repeat(t, k), gt), (Rel, r2, gr + gr2),
                 (E, h2, gh2), (E, t2, gt2))
        _project_to_unit_ball(E)
        return loss, gt2

    def margin_objective(_) -> float:
        (H, R, T), (H2, R2, T2) = sgd.triples, fixed
        d_pos = _distance(E[H] + Rel[R] - E[T], L2)
        d_neg = _distance(E[H2] + Rel[R2] - E[T2], L2)
        violation = config.margin + np.repeat(d_pos, k) - d_neg
        return float(np.mean(np.maximum(violation, 0.0)))

    return sgd.run("transe", step, margin_objective)


def train_distmult(kg: KnowledgeGraph, config: KgeTrainConfig) -> EmbeddingTable:
    """Logistic loss over true and corrupted triples with L2 penalty;
    ``loss_history`` holds each epoch's mean loss per sample."""
    sgd = _TripleSgd(kg, config)
    E, Rel = sgd.E, sgd.Rel

    def step(pos, neg, lr):
        hh, rr, tt = (np.concatenate(rows) for rows in zip(pos, neg))
        labels = np.repeat([1.0, -1.0], [pos[0].size, neg[0].size])
        loss, grads = distmult_logistic_loss(
            E[hh], Rel[rr], E[tt], labels, config.l2_penalty)
        _descend(lr / hh.size, *zip((E, Rel, E), (hh, rr, tt), grads))
        return loss, grads[-1]

    samples = sgd.triples[0].size * (1 + sgd.k)
    return sgd.run("distmult", step, lambda epoch_loss: epoch_loss / samples)
