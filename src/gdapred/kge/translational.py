"""Translational-distance and semantic-matching embedding trainers.

Both trainers run mini-batch SGD over the KG's triples with uniformly
corrupted negatives. The per-sample loss/gradient functions are exposed
separately so tests can check them against finite differences.
"""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError
from ..kg import KnowledgeGraph
from ..validation import as_vector, check_same_dimension
from .base import EmbeddingTable, KgeTrainConfig, decayed_rate, scatter_add

L1 = "L1"
L2 = "L2"


def transe_score(h, r, t, norm: str = L2) -> float:
    """Negated translation residual; higher means more plausible."""
    h, r, t = as_vector(h), as_vector(r), as_vector(t)
    check_same_dimension(h, r)
    check_same_dimension(h, t)
    diff = h + r - t
    if norm == L1:
        return -float(np.sum(np.abs(diff)))
    if norm == L2:
        return -float(np.linalg.norm(diff))
    raise ValueError(f"unknown norm {norm!r}")


def _distance_grad(diff: np.ndarray, norm: str) -> np.ndarray:
    """d‖diff‖/d diff with the zero subgradient at kinks."""
    if norm == L1:
        return np.sign(diff)
    length = np.linalg.norm(diff)
    return diff / length if length > 0 else np.zeros_like(diff)


def transe_margin_loss(h, r, t, h2, r2, t2, margin: float = 1.0,
                       norm: str = L2):
    """Single-sample margin ranking loss and its six gradients.

    Training shares the relation vector (and one endpoint) between the
    true and corrupted triple; callers accumulate the returned gradients
    per identifier, which makes that sharing exact.
    """
    vecs = [as_vector(v) for v in (h, r, t, h2, r2, t2)]
    h, r, t, h2, r2, t2 = vecs
    pos_diff = h + r - t
    neg_diff = h2 + r2 - t2
    if norm == L1:
        d_pos = float(np.sum(np.abs(pos_diff)))
        d_neg = float(np.sum(np.abs(neg_diff)))
    else:
        d_pos = float(np.linalg.norm(pos_diff))
        d_neg = float(np.linalg.norm(neg_diff))
    loss = margin + d_pos - d_neg
    zeros = [np.zeros_like(h) for _ in range(6)]
    if loss <= 0.0:
        return 0.0, tuple(zeros)
    u_pos = _distance_grad(pos_diff, norm)
    u_neg = _distance_grad(neg_diff, norm)
    return loss, (u_pos, u_pos, -u_pos, -u_neg, -u_neg, u_neg)


def distmult_score(h, r, t) -> float:
    """Trilinear product sum_i h_i * r_i * t_i."""
    h, r, t = as_vector(h), as_vector(r), as_vector(t)
    check_same_dimension(h, r)
    check_same_dimension(h, t)
    return float(np.sum(h * r * t))


def distmult_logistic_loss(h, r, t, label: int, l2_penalty: float = 1e-4):
    """softplus(-label * score) plus L2 penalty, with gradients."""
    h, r, t = as_vector(h), as_vector(r), as_vector(t)
    score = float(np.sum(h * r * t))
    z = -label * score
    loss = float(np.logaddexp(0.0, z)) + l2_penalty * float(
        np.sum(h * h) + np.sum(r * r) + np.sum(t * t))
    sig = 1.0 / (1.0 + np.exp(-z))
    factor = -label * sig
    gh = factor * (r * t) + 2.0 * l2_penalty * h
    gr = factor * (h * t) + 2.0 * l2_penalty * r
    gt = factor * (h * r) + 2.0 * l2_penalty * t
    return loss, (gh, gr, gt)


def _indexed_triples(kg: KnowledgeGraph):
    nodes = sorted(kg.nodes)
    relations = sorted({rel for _, rel, _ in kg.triples})
    node_idx = {n: i for i, n in enumerate(nodes)}
    rel_idx = {r: i for i, r in enumerate(relations)}
    triples = sorted(kg.triples)
    H = np.array([node_idx[s] for s, _, _ in triples], dtype=np.int64)
    R = np.array([rel_idx[r] for _, r, _ in triples], dtype=np.int64)
    T = np.array([node_idx[o] for _, _, o in triples], dtype=np.int64)
    return nodes, relations, H, R, T


def _init_matrix(rng, rows: int, dim: int) -> np.ndarray:
    bound = 6.0 / np.sqrt(dim)
    return rng.uniform(-bound, bound, size=(rows, dim))


def _project_to_unit_ball(E: np.ndarray) -> None:
    norms = np.linalg.norm(E, axis=1)
    over = norms > 1.0
    if np.any(over):
        E[over] /= norms[over, None]


def _corrupt(rng, H, R, T, k: int, n_nodes: int):
    b = H.shape[0]
    H2 = np.repeat(H, k)
    T2 = np.repeat(T, k)
    R2 = np.repeat(R, k)
    replace_head = rng.integers(0, 2, size=b * k).astype(bool)
    random_nodes = rng.integers(0, n_nodes, size=b * k)
    H2 = np.where(replace_head, random_nodes, H2)
    T2 = np.where(~replace_head, random_nodes, T2)
    return H2, R2, T2


def train_transe(kg: KnowledgeGraph, config: KgeTrainConfig) -> EmbeddingTable:
    """Margin-ranking SGD; entity rows stay inside the unit L2 ball."""
    if not kg.triples:
        raise DivergenceError("cannot train on an empty graph")
    nodes, relations, H, R, T = _indexed_triples(kg)
    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    E = _init_matrix(rng, len(nodes), dim)
    Rel = _init_matrix(rng, len(relations), dim)
    _project_to_unit_ball(E)
    k = config.negatives_per_positive
    n = H.shape[0]

    # the recorded loss uses one fixed seeded corruption set, so the
    # history is a function of the parameters rather than of each
    # epoch's negative draws
    eval_h2, eval_r2, eval_t2 = _corrupt(rng, H, R, T, k, len(nodes))

    def margin_objective() -> float:
        d_pos = np.linalg.norm(E[H] + Rel[R] - E[T], axis=1)
        d_neg = np.linalg.norm(E[eval_h2] + Rel[eval_r2] - E[eval_t2], axis=1)
        viol = config.margin + np.repeat(d_pos, k) - d_neg
        return float(np.mean(np.maximum(viol, 0.0)))

    history: list[float] = []
    for epoch in range(config.epochs):
        lr = decayed_rate(config.learning_rate, epoch / config.epochs)
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            h, r, t = H[idx], R[idx], T[idx]
            h2, r2, t2 = _corrupt(rng, h, r, t, k, len(nodes))
            pos_diff = E[h] + Rel[r] - E[t]
            neg_diff = E[h2] + Rel[r2] - E[t2]
            d_pos = np.linalg.norm(pos_diff, axis=1)
            d_neg = np.linalg.norm(neg_diff, axis=1)
            active = config.margin + np.repeat(d_pos, k) - d_neg > 0.0
            if not np.any(active):
                continue
            m = h2.shape[0]
            safe_pos = np.where(d_pos > 0, d_pos, 1.0)
            safe_neg = np.where(d_neg > 0, d_neg, 1.0)
            u_pos = pos_diff / safe_pos[:, None]
            u_neg = neg_diff / safe_neg[:, None]
            scale = lr / m
            w = active.astype(np.float64)
            u_pos_rep = np.repeat(u_pos, k, axis=0) * w[:, None]
            u_neg_w = u_neg * w[:, None]
            scatter_add(E, np.repeat(h, k), -scale * u_pos_rep)
            scatter_add(E, np.repeat(t, k), scale * u_pos_rep)
            scatter_add(Rel, r2, -scale * (u_pos_rep - u_neg_w))
            scatter_add(E, h2, scale * u_neg_w)
            scatter_add(E, t2, -scale * u_neg_w)
            _project_to_unit_ball(E)
        mean_loss = margin_objective()
        if not np.isfinite(mean_loss):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch} (learning_rate={lr})")
        history.append(mean_loss)
    vectors = {node: E[i].copy() for i, node in enumerate(nodes)}
    rel_vectors = {rel: Rel[i].copy() for i, rel in enumerate(relations)}
    return EmbeddingTable(dim, vectors, "transe", config.seed,
                          rel_vectors, history)


def train_distmult(kg: KnowledgeGraph, config: KgeTrainConfig) -> EmbeddingTable:
    """Logistic loss over true and corrupted triples with L2 penalty."""
    if not kg.triples:
        raise DivergenceError("cannot train on an empty graph")
    nodes, relations, H, R, T = _indexed_triples(kg)
    rng = np.random.default_rng(config.seed)
    dim = config.dimension
    E = _init_matrix(rng, len(nodes), dim)
    Rel = _init_matrix(rng, len(relations), dim)
    k = config.negatives_per_positive
    lam = config.l2_penalty
    n = H.shape[0]
    history: list[float] = []
    for epoch in range(config.epochs):
        lr = decayed_rate(config.learning_rate, epoch / config.epochs)
        order = rng.permutation(n)
        epoch_loss = 0.0
        samples = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            h, r, t = H[idx], R[idx], T[idx]
            h2, r2, t2 = _corrupt(rng, h, r, t, k, len(nodes))
            hh = np.concatenate([h, h2])
            rr = np.concatenate([r, r2])
            tt = np.concatenate([t, t2])
            labels = np.concatenate([np.ones(h.shape[0]), -np.ones(h2.shape[0])])
            vh, vr, vt = E[hh], Rel[rr], E[tt]
            scores = np.sum(vh * vr * vt, axis=1)
            z = -labels * scores
            m = hh.shape[0]
            epoch_loss += float(np.sum(np.logaddexp(0.0, z))) + lam * float(
                np.sum(vh * vh) + np.sum(vr * vr) + np.sum(vt * vt))
            samples += m
            factor = (-labels / (1.0 + np.exp(-z)))[:, None]
            scale = lr / m
            scatter_add(E, hh, -scale * (factor * (vr * vt) + 2.0 * lam * vh))
            scatter_add(Rel, rr, -scale * (factor * (vh * vt) + 2.0 * lam * vr))
            scatter_add(E, tt, -scale * (factor * (vh * vr) + 2.0 * lam * vt))
        mean_loss = epoch_loss / samples
        if not np.isfinite(mean_loss):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch} (learning_rate={lr})")
        history.append(mean_loss)
    vectors = {node: E[i].copy() for i, node in enumerate(nodes)}
    rel_vectors = {rel: Rel[i].copy() for i, rel in enumerate(relations)}
    return EmbeddingTable(dim, vectors, "distmult", config.seed,
                          rel_vectors, history)
