"""Reference skip-gram trainer: one ``np.add.at`` update stream per
sentence, pair by pair.

This is the straightforward form of `gdapred.kge.train_skipgram`: the
same vocabulary order, initialisation, negative draws, learning-rate
schedule and one-snapshot-per-sentence update, with every pair's
gradient scattered into the tables separately. Tests compare the dense
trainer against it; it is not used by the package.
"""

from collections import Counter

import numpy as np

from gdapred.kge import EmbeddingTable


def sgns_loss(center, positive, negatives):
    """Single-pair objective and gradients for the gradient-check oracle.

    loss = -log sigmoid(u_pos . v) - sum_k log sigmoid(-u_k . v)
    """
    v = np.asarray(center, dtype=np.float64)
    u_pos = np.asarray(positive, dtype=np.float64)
    u_negs = np.asarray(negatives, dtype=np.float64)
    pos_dot = float(np.dot(u_pos, v))
    neg_dots = u_negs @ v
    loss = float(np.logaddexp(0.0, -pos_dot) + np.sum(np.logaddexp(0.0, neg_dots)))
    s_pos = 1.0 / (1.0 + np.exp(-pos_dot))
    s_neg = 1.0 / (1.0 + np.exp(-neg_dots))
    g_center = (s_pos - 1.0) * u_pos + s_neg @ u_negs
    g_positive = (s_pos - 1.0) * v
    g_negatives = s_neg[:, None] * v[None, :]
    return loss, (g_center, g_positive, g_negatives)


def _pair_template(length: int, window: int):
    centers, contexts = [], []
    for i in range(length):
        for j in range(max(0, i - window), min(length, i + window + 1)):
            if j != i:
                centers.append(i)
                contexts.append(j)
    return np.array(centers, dtype=np.int64), np.array(contexts, dtype=np.int64)


def train_skipgram_reference(corpus, config, method_tag="walk"):
    counts = Counter(tok for sentence in corpus.sentences for tok in sentence)
    vocab = sorted(counts, key=lambda tok: (-counts[tok], tok))
    index = {tok: i for i, tok in enumerate(vocab)}
    freq = np.array([counts[tok] for tok in vocab], dtype=np.float64)
    noise = freq ** 0.75
    noise_cum = np.cumsum(noise / noise.sum())

    dim = config.dimension
    rng = np.random.default_rng(config.seed)
    syn0 = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    syn1 = np.zeros((len(vocab), dim))

    encoded = [np.array([index[tok] for tok in s], dtype=np.int64)
               for s in corpus.sentences if len(s) > 1]
    pairs_per_epoch = sum(_pair_template(len(s), config.window)[0].size
                          for s in encoded)
    total_pairs = pairs_per_epoch * config.epochs
    k = config.negatives_per_positive

    processed = 0
    history = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        for sentence in encoded:
            centers_i, contexts_i = _pair_template(len(sentence), config.window)
            C = sentence[centers_i]
            X = sentence[contexts_i]
            P = C.shape[0]
            lr = config.learning_rate * max(1.0 - processed / total_pairs, 1e-4)
            processed += P

            N = np.minimum(np.searchsorted(noise_cum, rng.random((P, k))),
                           len(vocab) - 1)
            live = (N != X[:, None]).astype(np.float64)

            v = syn0[C]
            u_pos = syn1[X]
            u_neg = syn1[N]
            pos_dot = np.einsum("pd,pd->p", v, u_pos)
            neg_dot = np.einsum("pd,pkd->pk", v, u_neg)
            epoch_loss += float(np.sum(np.logaddexp(0.0, -pos_dot)))
            epoch_loss += float(np.sum(np.logaddexp(0.0, neg_dot) * live))

            g_pos = 1.0 / (1.0 + np.exp(-pos_dot)) - 1.0
            g_neg = live / (1.0 + np.exp(-neg_dot))
            grad_v = g_pos[:, None] * u_pos + np.einsum("pk,pkd->pd", g_neg, u_neg)
            np.add.at(syn0, C, -lr * grad_v)
            np.add.at(syn1, X, -lr * g_pos[:, None] * v)
            np.add.at(syn1, N.reshape(-1),
                      (-lr * g_neg[:, :, None] * v[:, None, :]).reshape(-1, dim))
        history.append(epoch_loss / pairs_per_epoch)

    nodes = sorted(tok for tok in corpus.node_tokens if tok in index)
    return EmbeddingTable(nodes, syn0[[index[tok] for tok in nodes]].reshape(-1, dim),
                          method_tag, config.seed, loss_history=history)


def segment_unique_reference(tokens, segments, n_segments, n_tokens):
    """`gdapred.kge.skipgram._segment_unique` through ``np.unique``."""
    keys, inverse = np.unique(segments * n_tokens + tokens, return_inverse=True)
    starts = np.searchsorted(keys // n_tokens, np.arange(n_segments + 1))
    return keys % n_tokens, starts.tolist(), inverse - starts[segments]
