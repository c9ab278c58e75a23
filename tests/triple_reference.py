"""Reference TransE and DistMult trainers: the spec losses, ``np.add.at``
and whole-table renormalisation.

The loss functions `transe_margin_loss` and `distmult_logistic_loss` are
the specification of the two trainers: the gradient checks cover them,
and `gdapred.kge.train_transe` and `gdapred.kge.train_distmult` apply
exactly their batch gradients, folded.

The trainers here are the straightforward form of the package's: the
same node and relation order, seeded initialisation, per-epoch
permutation, corruption draws and learning-rate schedule. Each batch
gathers every true and corrupted triple's rows, takes the per-sample
gradients of the loss functions, scatters each of them into its table
with ``np.add.at``, and for TransE then renormalises the whole entity
table. Tests compare the fused trainers against them; they are not used
by the package.

The single-triple scores `transe_score` and `distmult_score` live here
too: only tests call them.

Each trainer also returns its draws, one ``(H, T, head, node)`` tuple per
batch, so a test can check which cases a run covered.
"""

import numpy as np

from gdapred.kge import EmbeddingTable
from gdapred.kge.base import decayed_rate

L1 = "L1"
L2 = "L2"


def _distance(diff: np.ndarray, norm: str) -> np.ndarray:
    """The L1 or L2 length of ``diff`` over its last axis."""
    if norm == L1:
        return np.sum(np.abs(diff), axis=-1)
    if norm == L2:
        return np.linalg.norm(diff, axis=-1)
    raise ValueError(f"unknown norm {norm!r}")


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


def _vectors(*vectors):
    """Finite 1-d float vectors of one dimension, else ValueError."""
    arrays = [np.asarray(v, dtype=np.float64) for v in vectors]
    for a in arrays:
        if a.ndim != 1 or not np.all(np.isfinite(a)):
            raise ValueError(f"expected a finite 1-d vector, got {a!r}")
    if len({a.shape for a in arrays}) > 1:
        raise ValueError(f"dimension mismatch: {[a.shape for a in arrays]}")
    return arrays


def transe_score(h, r, t, norm: str = L2) -> float:
    """Negated translation residual; higher means more plausible."""
    h, r, t = _vectors(h, r, t)
    return -float(_distance(h + r - t, norm))


def distmult_score(h, r, t) -> float:
    """Trilinear product sum_i h_i * r_i * t_i."""
    h, r, t = _vectors(h, r, t)
    return float(np.sum(h * r * t))


def _project_to_unit_ball(E):
    norms = np.linalg.norm(E, axis=1)
    over = norms > 1.0
    E[over] /= norms[over, None]


class _Run:
    def __init__(self, kg, config):
        self.nodes = sorted(kg.nodes)
        self.relations = sorted({rel for _, rel, _ in kg.triples})
        node_idx = {n: i for i, n in enumerate(self.nodes)}
        rel_idx = {r: i for i, r in enumerate(self.relations)}
        rows = [(node_idx[s], rel_idx[r], node_idx[o])
                for s, r, o in sorted(kg.triples)]
        self.triples = tuple(np.array(c, dtype=np.int64) for c in zip(*rows))
        self.config, self.k = config, config.negatives_per_positive
        self.rng = np.random.default_rng(config.seed)
        bound = 6.0 / np.sqrt(config.dimension)
        self.E = self.rng.uniform(-bound, bound,
                                  size=(len(self.nodes), config.dimension))
        self.Rel = self.rng.uniform(-bound, bound,
                                    size=(len(self.relations), config.dimension))
        self.draws = []

    def corrupt(self, H, R, T):
        head = self.rng.integers(0, 2, size=H.size * self.k).astype(bool)
        node = self.rng.integers(0, len(self.nodes), size=H.size * self.k)
        self.draws.append((H, T, head.reshape(-1, self.k), node.reshape(-1, self.k)))
        H2, R2, T2 = (np.repeat(X, self.k) for X in (H, R, T))
        return np.where(head, node, H2), R2, np.where(head, T2, node)

    def run(self, method, step, record):
        config, n = self.config, self.triples[0].size
        history = []
        for epoch in range(config.epochs):
            lr = decayed_rate(config.learning_rate, epoch / config.epochs)
            order = self.rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, config.batch_size):
                pos = tuple(X[order[start:start + config.batch_size]]
                            for X in self.triples)
                epoch_loss += step(pos, self.corrupt(*pos), lr)
            history.append(record(epoch_loss))
        table = EmbeddingTable(self.nodes, self.E.copy(), method, config.seed,
                               self.relations, self.Rel.copy(), history)
        return table, self.draws


def train_transe_reference(kg, config):
    """`train_transe` by the spec; also returns the entity table as it
    was before the first epoch, and the draws."""
    run = _Run(kg, config)
    E, Rel, k = run.E, run.Rel, run.k
    _project_to_unit_ball(E)
    initial = E.copy()
    fixed = run.corrupt(*run.triples)
    run.draws.clear()

    def step(pos, neg, lr):
        (h, r, t), (h2, r2, t2) = pos, neg
        loss, (gh, gr, gt, gh2, gr2, gt2) = transe_margin_loss(
            E[h][:, None], Rel[r][:, None], E[t][:, None],
            *(M[i].reshape(h.size, k, -1) for M, i in ((E, h2), (Rel, r2), (E, t2))),
            margin=config.margin)
        if loss == 0.0:
            return loss
        scale = -lr / h2.size
        for table, index, grad in ((E, np.repeat(h, k), gh), (E, np.repeat(t, k), gt),
                                   (Rel, r2, gr), (Rel, r2, gr2),
                                   (E, h2, gh2), (E, t2, gt2)):
            np.add.at(table, index, scale * grad.reshape(index.size, -1))
        _project_to_unit_ball(E)
        return loss

    def margin_objective(_):
        (H, R, T), (H2, R2, T2) = run.triples, fixed
        d_pos = np.linalg.norm(E[H] + Rel[R] - E[T], axis=-1)
        d_neg = np.linalg.norm(E[H2] + Rel[R2] - E[T2], axis=-1)
        violation = config.margin + np.repeat(d_pos, k) - d_neg
        return float(np.mean(np.maximum(violation, 0.0)))

    table, draws = run.run("transe", step, margin_objective)
    return table, initial, draws


def train_distmult_reference(kg, config):
    """`train_distmult` by the spec; also returns the entity table as it
    was before the first epoch, and the draws."""
    run = _Run(kg, config)
    E, Rel = run.E, run.Rel
    initial = E.copy()

    def step(pos, neg, lr):
        hh, rr, tt = (np.concatenate(rows) for rows in zip(pos, neg))
        labels = np.repeat([1.0, -1.0], [pos[0].size, neg[0].size])
        loss, grads = distmult_logistic_loss(
            E[hh], Rel[rr], E[tt], labels, config.l2_penalty)
        for table, index, grad in zip((E, Rel, E), (hh, rr, tt), grads):
            np.add.at(table, index, (-lr / hh.size) * grad)
        return loss

    samples = run.triples[0].size * (1 + run.k)
    table, draws = run.run("distmult", step, lambda epoch_loss: epoch_loss / samples)
    return table, initial, draws
