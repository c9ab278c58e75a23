"""Skip-gram with negative sampling over token sentences."""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..errors import DegenerateDataError
from .base import EmbeddingTable, KgeTrainConfig, check_finite, decayed_rate
from .corpus import WalkCorpus


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


def _pair_template(length: int, window: int, cache: dict):
    """Center/context index arrays for a sentence of the given length."""
    key = length
    if key not in cache:
        centers = []
        contexts = []
        for i in range(length):
            for j in range(max(0, i - window), min(length, i + window + 1)):
                if j != i:
                    centers.append(i)
                    contexts.append(j)
        cache[key] = (np.array(centers, dtype=np.int64),
                      np.array(contexts, dtype=np.int64))
    return cache[key]


# Sentences whose index plan is built in one vectorised pass; the
# updates stay one per sentence. The plan holds about 120 bytes per
# (pair, target): at 128 sentences it raised the walk_forest bench's
# peak RSS by 9%, at 32 by 1%, and smaller blocks saved no memory.
_BLOCK_SENTENCES = 32


def _segment_unique(tokens: np.ndarray, segments: np.ndarray,
                    n_segments: int, n_tokens: int):
    """Distinct tokens within each segment, in one sort.

    Returns the distinct tokens, grouped by segment and ascending within
    it; the start of each segment's group (``n_segments + 1`` offsets);
    and each input's position within its segment's group.
    """
    keys, inverse = np.unique(segments * n_tokens + tokens,
                              return_inverse=True)
    starts = np.searchsorted(keys // n_tokens, np.arange(n_segments + 1))
    return keys % n_tokens, starts.tolist(), inverse - starts[segments]


def _block_plan(block, window, cache, rng, noise_cum, k):
    """Negatives and dense-update indices for a block of sentences.

    Sentence ``j`` owns pairs ``pair_off[j]:pair_off[j + 1]``, row tokens
    ``rows[row_start[j]:row_start[j + 1]]`` (its distinct tokens) and
    column tokens ``cols[col_start[j]:col_start[j + 1]]`` (its distinct
    contexts and negatives). ``flat[p, c]`` is the position in the
    sentence's row-major (rows x cols) score matrix of pair ``p``'s
    center against its context (``c = 0``) or its ``c``-th negative;
    ``weight`` is 0 for a negative that drew the context itself.
    """
    templates = [_pair_template(len(s), window, cache) for s in block]
    n = len(block)
    lengths = np.array([s.size for s in block])
    pairs = np.array([t[0].size for t in templates])
    pair_off = np.concatenate([[0], np.cumsum(pairs)])
    tokens = np.concatenate(block)
    shift = np.repeat(np.cumsum(lengths) - lengths, pairs)
    centers = np.concatenate([t[0] for t in templates]) + shift
    contexts = tokens[np.concatenate([t[1] for t in templates]) + shift]
    pair_seg = np.repeat(np.arange(n), pairs)

    # clip: float cumsum can top out a hair below 1.0
    negatives = np.minimum(
        np.searchsorted(noise_cum, rng.random((contexts.size, k))),
        noise_cum.size - 1)
    weight = np.hstack([np.ones((contexts.size, 1)),
                        negatives != contexts[:, None]])

    rows, row_start, row_of = _segment_unique(
        tokens, np.repeat(np.arange(n), lengths), n, noise_cum.size)
    cols, col_start, col_of = _segment_unique(
        np.hstack([contexts[:, None], negatives]).ravel(),
        np.repeat(pair_seg, k + 1), n, noise_cum.size)
    width = np.diff(col_start)[pair_seg]
    flat = (row_of[centers] * width)[:, None] + col_of.reshape(-1, k + 1)
    return pair_off, rows, row_start, cols, col_start, flat, weight


def train_skipgram(corpus: WalkCorpus, config: KgeTrainConfig,
                   method_tag: str = "walk") -> EmbeddingTable:
    """Train token vectors and return those of the KG's node tokens.

    Negatives come from the unigram^0.75 distribution; draws that hit
    the positive target are dropped. Each sentence is one SGD update
    from one snapshot of the parameters, with the learning rate decayed
    linearly over the pairs seen. The update is a small dense problem:
    with ``v`` the input rows of the sentence's distinct tokens and
    ``u`` the output rows of its distinct targets (its tokens plus its
    negatives), one GEMM ``v @ u.T`` scores every pair, one
    ``np.bincount`` folds the pair coefficients into ``g``, and
    ``g @ u`` and ``g.T @ v`` are the two updates. Negatives and indices
    are planned for a block of sentences at a time, drawn from the
    seeded generator in sentence order, so the result is deterministic
    for a given seed. ``loss_history`` holds the mean loss per pair of
    each epoch; a non-finite loss or vector raises `DivergenceError`.
    """
    counts = Counter(tok for sentence in corpus.sentences for tok in sentence)
    if len(counts) < 2:
        raise DegenerateDataError(
            f"skip-gram needs a vocabulary of at least 2 tokens, got {len(counts)}")
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
    template_cache: dict = {}
    pairs_per_epoch = sum(
        _pair_template(len(s), config.window, template_cache)[0].size
        for s in encoded)
    if pairs_per_epoch == 0:
        raise DegenerateDataError("corpus has no co-occurring tokens to train on")
    total_pairs = pairs_per_epoch * config.epochs
    k = config.negatives_per_positive
    # An entry's loss is weight * softplus(sign * score): sign -1 for the
    # context, +1 for a negative. Its derivative in the score is
    # weight * sign / (1 + exp(-sign * score)).
    sign = np.array([-1.0] + [1.0] * k)

    processed = 0
    history: list[float] = []
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for b0 in range(0, len(encoded), _BLOCK_SENTENCES):
            pair_off, rows_tok, row_start, cols_tok, col_start, flat, weight = \
                _block_plan(encoded[b0:b0 + _BLOCK_SENTENCES], config.window,
                            template_cache, rng, noise_cum, k)
            lr = decayed_rate(config.learning_rate,
                              (processed + pair_off[:-1]) / total_pairs)
            processed += int(pair_off[-1])
            rate = np.repeat(lr, np.diff(pair_off))[:, None] * weight * sign
            scores = np.empty(flat.shape)
            pair_off = pair_off.tolist()
            for j in range(len(pair_off) - 1):
                p0, p1 = pair_off[j], pair_off[j + 1]
                rows = rows_tok[row_start[j]:row_start[j + 1]]
                cols = cols_tok[col_start[j]:col_start[j + 1]]
                v = syn0[rows]
                u = syn1[cols]
                f = flat[p0:p1]
                scores[p0:p1] = score = (v @ u.T).ravel()[f]
                g = np.bincount(f.ravel(),
                                (rate[p0:p1] / (1.0 + np.exp(-sign * score))).ravel(),
                                minlength=rows.size * cols.size)
                g = g.reshape(rows.size, cols.size)
                # both updates come from the snapshot v, u
                syn1[cols] = u - g.T @ v
                syn0[rows] = v - g @ u
            epoch_loss += float(np.sum(weight * np.logaddexp(0.0, sign * scores)))
        history.append(check_finite(
            method_tag, epoch, config.learning_rate,
            epoch_loss / pairs_per_epoch, syn0, syn1))

    vectors = {tok: syn0[index[tok]].copy()
               for tok in corpus.node_tokens if tok in index}
    return EmbeddingTable(dim, vectors, method_tag, config.seed,
                          loss_history=history)
