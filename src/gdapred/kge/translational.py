"""Translational-distance and semantic-matching embedding trainers.

Both share one mini-batch SGD loop over the KG's triples with uniformly
corrupted negatives. Their loss functions, `transe_margin_loss` and
`distmult_logistic_loss` in ``tests/triple_reference.py``, are the
specification that the tests check against finite differences, and each
trainer applies exactly their batch gradients, folded: a batch gathers
each true triple's rows once and its drawn nodes once, sums the
gradients of each true triple's rows over its corruptions, and makes one
scatter per table. ``tests/test_kge.py::TestTripleOracle`` checks both
trainers against the unfolded form in that file.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateDataError
from ..kg import KnowledgeGraph
from .base import (EmbeddingTable, KgeTrainConfig, check_finite, decayed_rate,
                   scatter_add, softplus)

def _init_matrix(rng, rows: int, dim: int) -> np.ndarray:
    bound = 6.0 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=(rows, dim))


def _project_to_unit_ball(E: np.ndarray, rows=None) -> None:
    """Scale the ``rows`` of ``E`` (all by default) that are longer than 1
    back onto the unit sphere."""
    rows = np.arange(len(E)) if rows is None else rows
    norms = np.linalg.norm(E[rows], axis=1)
    over = norms > 1.0
    E[rows[over]] /= norms[over, None]


def _length(x: np.ndarray) -> np.ndarray:
    """L2 length over the last axis, with no temporary the size of ``x``."""
    return np.sqrt(np.vecdot(x, x))


def _pick(head, on_head, on_tail, out) -> None:
    """For each corruption, its triple's row of ``on_head`` (b, d) if it
    replaces the head, else of ``on_tail``, into ``out`` (b, k, d)."""
    b = head.shape[0]
    np.take(np.concatenate((on_tail, on_head)), np.arange(b)[:, None] + b * head,
            axis=0, out=out, mode="clip")


def _fold(head, coef, rows, on_head, on_tail) -> None:
    """Per triple, the sum of ``coef * rows`` over its head corruptions
    into ``on_head`` (b, d), and over its tail corruptions into
    ``on_tail``."""
    np.matmul(np.where(head, coef, 0.0)[:, None], rows, out=on_head[:, None])
    np.matmul(np.where(head, 0.0, coef)[:, None], rows, out=on_tail[:, None])


def _transe_residuals(E, Rel, h, r, t, head, node, out, partners):
    """Each true triple's residual ``h + r - t`` (b, d) and its length, and
    the lengths of its k corruptions' residuals.

    A corruption keeps the relation and one entity of its triple, so the
    drawn nodes are the only (b, k, d) gather. Its residual, up to sign,
    is ``n - x``, which is written to ``out``: a head corruption's
    residual ``n + r - t`` has ``x = t - r``, a tail corruption's
    ``h + r - n`` is ``-(n - x)`` with ``x = h + r``. ``partners`` gets
    each ``x``.
    """
    Eh, Rr, Et = E[h], Rel[r], E[t]
    pos = Eh + Rr - Et
    _pick(head, Et - Rr, Eh + Rr, partners)
    np.take(E, node, axis=0, out=out, mode="clip")
    out -= partners
    return pos, _length(pos), _length(out)


class _TripleSgd:
    """One seeded mini-batch SGD run over a KG's triples.

    One generator, seeded with ``config.seed``, draws the entity table,
    the relation table, whatever the trainer draws before ``run``, and
    then per epoch a permutation of the triples and per batch ``k``
    corruptions of each triple (``corrupt``).

    A step works in buffers made once per run (``views``) and applies its
    update with one scatter per table (``descend``). Batch-sized arrays
    allocated and freed per batch let malloc hand the heap top back to
    the kernel and fault it in again on the next batch. Gathers into them
    use ``np.take(..., mode="clip")``, which writes straight into ``out``
    (the default mode goes through a copy); every index is in range.
    """

    def __init__(self, kg: KnowledgeGraph, config: KgeTrainConfig):
        if not kg.triples:
            raise DegenerateDataError("cannot train on an empty graph")
        self.nodes, self.relations, codes = kg.coding()
        self.triples = tuple(codes.T.copy())
        self.config, self.k = config, config.negatives_per_positive
        self.rng = np.random.default_rng(config.seed)
        self.E = _init_matrix(self.rng, len(self.nodes), config.dimension)
        self.Rel = _init_matrix(self.rng, len(self.relations), config.dimension)
        batch = min(config.batch_size, self.triples[0].size)
        self.rows = np.empty(((2 + self.k) * batch, config.dimension))
        self.partners = np.empty((batch, self.k, config.dimension))
        self.flat = np.empty(self.rows.size, dtype=np.intp)

    def corrupt(self, size: int):
        """For each of ``size`` triples, ``k`` corruptions: whether each
        replaces the head (else the tail), and the uniform node that
        replaces it; both (size, k)."""
        head = self.rng.integers(0, 2, size=size * self.k).astype(bool)
        node = self.rng.integers(0, len(self.nodes), size=size * self.k)
        return head.reshape(size, self.k), node.reshape(size, self.k)

    def views(self, b: int):
        """The buffers for a batch of ``b`` triples: the entity rows that
        `descend` adds, one per head (b, d), per tail (b, d) and per drawn
        node (b, k, d), and one (b, k, d) row per drawn node for the step's
        own use."""
        rows = self.rows[:(2 + self.k) * b]
        return (rows[:b], rows[b:2 * b], rows[2 * b:].reshape(b, self.k, -1),
                self.partners[:b])

    def descend(self, h, r, t, node, rel_rows) -> np.ndarray:
        """Add the buffer's entity rows to ``E`` and ``rel_rows`` to
        ``Rel``, one scatter per table; returns the touched entity rows."""
        rows = self.rows[:(2 + self.k) * h.size]
        scatter_add(self.Rel, r, rel_rows, self.flat)
        return scatter_add(self.E, np.concatenate((h, t, node.ravel())), rows,
                           self.flat)

    def run(self, method: str, step, record) -> EmbeddingTable:
        """``step(pos, head, node, lr)`` applies one batch's update to the
        true triples ``pos`` and their corruptions and returns its loss;
        ``record`` maps the sum of an epoch's batch losses to its
        ``loss_history`` entry."""
        config, n = self.config, self.triples[0].size
        history: list[float] = []
        for epoch in range(config.epochs):
            lr = decayed_rate(config.learning_rate, epoch / config.epochs)
            order = self.rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, config.batch_size):
                pos = tuple(X[order[start:start + config.batch_size]]
                            for X in self.triples)
                epoch_loss += step(pos, *self.corrupt(pos[0].size), lr)
            history.append(check_finite(
                method, epoch, config.learning_rate, record(epoch_loss),
                self.E, self.Rel))
        return EmbeddingTable(self.nodes, self.E, method, self.relations,
                              self.Rel, history)


def train_transe(kg: KnowledgeGraph, config: KgeTrainConfig) -> EmbeddingTable:
    """Margin-ranking SGD on the L2 distance; entity rows stay inside the
    unit L2 ball. ``loss_history`` holds the mean margin violation on one
    corruption set drawn before the first epoch, so it is a function of
    the parameters rather than of each epoch's draws.

    Each batch descends the summed gradient of `transe_margin_loss` (the
    oracle in ``tests/triple_reference.py``) over its b x k (triple,
    corruption) samples, scaled by ``lr / (b k)``. The
    per-sample gradients are folded before scattering: each true triple's
    head, tail and relation row gets the sum over its k samples (the
    positive side, and the corruptions that keep that row), so the entity
    table takes one scatter of 2b + bk rows and the relation table one of
    b rows. Only the touched entity rows are renormalised.
    ``TestTripleOracle`` checks this against the unfolded form in
    ``tests/triple_reference.py``: the loss function's gradients,
    ``np.add.at`` and whole-table renormalisation.
    """
    sgd = _TripleSgd(kg, config)
    E, Rel = sgd.E, sgd.Rel
    _project_to_unit_ball(E)
    fixed = sgd.corrupt(sgd.triples[0].size)

    def step(pos, head, node, lr):
        h, r, t = pos
        rows_h, rows_t, u, x = sgd.views(h.size)
        res, d_pos, d_neg = _transe_residuals(E, Rel, h, r, t, head, node, u, x)
        violation = config.margin + d_pos[:, None] - d_neg
        loss = float(np.sum(np.maximum(violation, 0.0)))
        # renormalising is not idempotent in the last bit, so a batch
        # with no active pair leaves the table alone
        if loss == 0.0:
            return loss
        # each active sample's step along its unit residuals
        active = np.where(violation > 0.0, lr / node.size, 0.0)
        res *= (active.sum(axis=1) / np.where(d_pos > 0, d_pos, 1.0))[:, None]
        c_neg = active / np.where(d_neg > 0, d_neg, 1.0)
        # with W the sum of c_neg * residual over a triple's head
        # corruptions (which keep t) and V over its tail corruptions (which
        # keep h, and whose residual is -u): h += V - res, t += res - W,
        # r += W + V - res, and each drawn node += c_neg * u
        _fold(head, np.where(head, c_neg, -c_neg), u, rows_t, rows_h)
        rel_rows = rows_t + rows_h - res
        rows_h -= res
        np.subtract(res, rows_t, out=rows_t)
        u *= c_neg[..., None]
        _project_to_unit_ball(E, sgd.descend(h, r, t, node, rel_rows))
        return loss

    def margin_objective(_) -> float:
        (H, R, T), (head, node), b = sgd.triples, fixed, config.batch_size
        total = 0.0
        for start in range(0, H.size, b):
            batch = slice(start, start + b)
            _, d_pos, d_neg = _transe_residuals(
                E, Rel, H[batch], R[batch], T[batch], head[batch], node[batch],
                *sgd.views(H[batch].size)[2:])
            total += np.sum(np.maximum(config.margin + d_pos[:, None] - d_neg, 0.0))
        return float(total) / node.size

    return sgd.run("transe", step, margin_objective)


def train_distmult(kg: KnowledgeGraph, config: KgeTrainConfig) -> EmbeddingTable:
    """Logistic loss over true and corrupted triples with L2 penalty;
    ``loss_history`` holds each epoch's mean loss per sample.

    Each batch descends the summed gradient of `distmult_logistic_loss`
    (the oracle in ``tests/triple_reference.py``) over its b true triples
    (label +1) and b x k corruptions (label -1),
    scaled by ``lr / (b (1 + k))``. As in `train_transe`, the gradients
    of each true triple's head, tail and relation rows are summed over
    its 1 + k samples before one scatter per table, and
    ``TestTripleOracle`` checks this against the unfolded form in
    ``tests/triple_reference.py``.
    """
    sgd = _TripleSgd(kg, config)
    E, Rel, k, l2 = sgd.E, sgd.Rel, sgd.k, config.l2_penalty

    def step(pos, head, node, lr):
        h, r, t = pos
        rows_h, rows_t, N, partner = sgd.views(h.size)
        np.take(E, node, axis=0, out=N, mode="clip")
        Eh, Rr, Et = E[h], Rel[r], E[t]
        hr, rt = Eh * Rr, Rr * Et
        # a head corruption scores n . (r * t), a tail corruption (h * r) . n
        _pick(head, rt, hr, partner)
        s_pos = np.vecdot(hr, Et)
        s_neg = np.vecdot(N, partner)
        n_tail = k - np.count_nonzero(head, axis=1)
        loss = float(np.sum(softplus(-s_pos))
                     + np.sum(softplus(s_neg))) + l2 * float(
            (1 + k) * np.vdot(Rr, Rr) + np.vdot(N, N)
            + np.dot(1 + n_tail, np.vecdot(Eh, Eh))
            + np.dot(1 + k - n_tail, np.vecdot(Et, Et)))
        scale = lr / (h.size * (1 + k))
        # -scale times each sample's loss derivative by its score
        f_pos = (scale / (1.0 + np.exp(s_pos)))[:, None]
        f_neg = -scale / (1.0 + np.exp(-s_neg))
        decay = 2.0 * l2 * scale
        # with S the sum of f_neg * n over a triple's head corruptions
        # (which keep t) and U over its tail corruptions (which keep h):
        # h += r (t f_pos + U), t += r (h f_pos + S), r += h t f_pos + t S
        # + h U, each drawn node += f_neg * partner, and every gathered
        # row decays once per sample it is in
        _fold(head, f_neg, N, rows_t, rows_h)
        rel_rows = (Eh * Et) * f_pos + Et * rows_t + Eh * rows_h
        rel_rows -= (decay * (1 + k)) * Rr
        rows_h += Et * f_pos
        rows_h *= Rr
        rows_h -= (decay * (1 + n_tail))[:, None] * Eh
        rows_t += Eh * f_pos
        rows_t *= Rr
        rows_t -= (decay * (1 + k - n_tail))[:, None] * Et
        N *= -decay
        partner *= f_neg[..., None]
        N += partner
        sgd.descend(h, r, t, node, rel_rows)
        return loss

    samples = sgd.triples[0].size * (1 + k)
    return sgd.run("distmult", step, lambda epoch_loss: epoch_loss / samples)
