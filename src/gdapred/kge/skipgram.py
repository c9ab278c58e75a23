"""Skip-gram with negative sampling over token sentences."""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, chain

import numpy as np

from ..errors import DegenerateDataError, DivergenceError
from .base import (EmbeddingTable, KgeTrainConfig, check_finite, decayed_rate,
                   softplus)
from .corpus import WalkCorpus


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


#: an epoch whose mean loss per pair exceeds this multiple of the
#: untrained loss, (1 + k) ln 2 for k negatives, has diverged
_BLOWUP = 10.0

# Sentences whose index plan is built in one vectorised pass; the
# updates stay one per sentence. The plan holds about 120 bytes per
# (pair, target): at 128 sentences it raised the walk_forest bench's
# peak RSS by 9%, at 32 by 1%, and smaller blocks saved no memory.
_BLOCK_SENTENCES = 32


def _noise_guide(noise_cum: np.ndarray) -> np.ndarray:
    """Guide table for inverse-CDF draws from ``noise_cum`` (Chen & Asau).

    ``guide[b]`` is where ``b / m`` falls in ``noise_cum``, for ``m`` the
    smallest power of two at least 16 times the vocabulary, so at most
    one bucket in 16 holds a step of the CDF. Entries are int32, half
    the memory of int64 at 16 entries per token.
    """
    m = 1 << (16 * noise_cum.size - 1).bit_length()
    return np.searchsorted(noise_cum, np.arange(m + 1) / m).astype(np.int32)


def _draw_negatives(u: np.ndarray, noise_cum: np.ndarray,
                    guide: np.ndarray) -> np.ndarray:
    """Negatives for uniform draws ``u``, in O(1) per draw: exactly
    ``np.minimum(np.searchsorted(noise_cum, u), noise_cum.size - 1)``.

    ``guide`` has ``m + 1`` entries for a power of two ``m``, so ``u * m``
    is exact and its floor ``b`` is the bucket with
    ``b / m <= u < (b + 1) / m``; the answer then lies in
    ``[guide[b], guide[b + 1]]``. Only draws whose bucket holds a step
    of the CDF are searched.
    """
    b = (u * (guide.size - 1)).astype(np.intp)
    out = guide[b]
    step = out != guide[1:][b]
    out[step] = np.searchsorted(noise_cum, u[step])
    # clip: float cumsum can top out a hair below 1.0
    return np.minimum(out, noise_cum.size - 1, out=out)


def _segment_unique(tokens: np.ndarray, segments: np.ndarray,
                    n_segments: int, n_tokens: int):
    """Distinct tokens within each segment, in one sort.

    Returns the distinct tokens, grouped by segment and ascending within
    it; the start of each segment's group (``n_segments + 1`` offsets);
    and each input's position within its segment's group. Each
    (segment, token) key is packed above its input position into one
    int64, so one plain sort orders the keys and tells where each came
    from. A block's segments, tokens and positions fit in far fewer
    than 63 bits.
    """
    n = tokens.size
    token_bits = (n_tokens - 1).bit_length()
    position_bits = (n - 1).bit_length()
    packed = segments << token_bits
    packed |= tokens
    packed <<= position_bits
    packed |= np.arange(n)
    packed.sort()
    keys = packed >> position_bits
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    # an index array gathers faster than a boolean mask at this density
    distinct = keys[np.flatnonzero(first)]
    starts = np.searchsorted(distinct >> token_bits, np.arange(n_segments + 1))
    # in place: fresh block-sized temporaries cost page faults
    local = np.cumsum(first)
    local -= 1
    keys >>= token_bits
    local -= np.take(starts, keys, out=keys)
    packed &= (1 << position_bits) - 1
    inverse = np.empty(n, dtype=np.intp)
    inverse[packed] = local
    distinct &= (1 << token_bits) - 1
    return distinct, starts.tolist(), inverse


def _block_plan(tokens, lengths, window, cache, rng, noise_cum, guide, k):
    """Negatives and dense-update indices for a block of sentences: the
    concatenated ``tokens`` of sentences of the given ``lengths``.

    Sentence ``j`` owns pairs ``pair_off[j]:pair_off[j + 1]``, row tokens
    ``rows[row_start[j]:row_start[j + 1]]`` (its distinct tokens) and
    column tokens ``cols[col_start[j]:col_start[j + 1]]`` (its distinct
    contexts and negatives). ``flat[p, c]`` is the position in the
    sentence's row-major (rows x cols) score matrix of pair ``p``'s
    center against its context (``c = 0``) or its ``c``-th negative;
    ``weight`` is 0 for a negative that drew the context itself.
    """
    templates = [_pair_template(length, window, cache) for length in lengths]
    n = len(lengths)
    lengths = np.array(lengths)
    pairs = np.array([t[0].size for t in templates])
    pair_off = np.concatenate([[0], np.cumsum(pairs)])
    shift = np.repeat(np.cumsum(lengths) - lengths, pairs)
    centers = np.concatenate([t[0] for t in templates]) + shift
    contexts = tokens[np.concatenate([t[1] for t in templates]) + shift]
    pair_seg = np.repeat(np.arange(n), pairs)

    targets = np.empty((contexts.size, k + 1), dtype=np.int64)
    targets[:, 0] = contexts
    targets[:, 1:] = _draw_negatives(rng.random((contexts.size, k)),
                                     noise_cum, guide)
    weight = np.ones(targets.shape)
    weight[:, 1:] = targets[:, 1:] != contexts[:, None]

    rows, row_start, row_of = _segment_unique(
        tokens, np.repeat(np.arange(n), lengths), n, noise_cum.size)
    cols, col_start, col_of = _segment_unique(
        targets.ravel(), np.repeat(np.arange(n), pairs * (k + 1)), n,
        noise_cum.size)
    width = np.diff(col_start)[pair_seg]
    flat = (row_of[centers] * width)[:, None] + col_of.reshape(-1, k + 1)
    return pair_off, rows, row_start, cols, col_start, flat, weight


def train_skipgram(corpus: WalkCorpus, config: KgeTrainConfig,
                   method_tag: str = "walk") -> EmbeddingTable:
    """Train token vectors and return those of the KG's node tokens.

    Negatives come from the unigram^0.75 distribution; draws that hit
    the positive target are dropped. A guide table (Chen & Asau 1974)
    inverts the noise CDF in O(1) per draw and gives exactly the index
    a binary search would. Each sentence is one SGD update
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
    So does a finite blow-up: ``syn1`` starts at zero, so every score
    starts at 0 and a pair's loss at most at (1 + k) ln 2 for k
    negatives, and an epoch whose mean loss per pair exceeds 10 times
    that bound raises.
    """
    counts = Counter(chain.from_iterable(corpus.sentences))
    if len(counts) < 2:
        raise DegenerateDataError(
            f"skip-gram needs a vocabulary of at least 2 tokens, got {len(counts)}")
    vocab = sorted(counts, key=lambda tok: (-counts[tok], tok))
    index = {tok: i for i, tok in enumerate(vocab)}
    freq = np.array([counts[tok] for tok in vocab], dtype=np.float64)
    noise = freq ** 0.75
    noise_cum = np.cumsum(noise / noise.sum())
    guide = _noise_guide(noise_cum)

    dim = config.dimension
    rng = np.random.default_rng(config.seed)
    syn0 = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    syn1 = np.zeros((len(vocab), dim))

    # the corpus as one token stream: sentence j is
    # stream[offsets[j]:offsets[j + 1]], of length lengths[j]
    kept = [s for s in corpus.sentences if len(s) > 1]
    lengths = [len(s) for s in kept]
    offsets = list(accumulate(lengths, initial=0))
    stream = np.fromiter(map(index.__getitem__, chain.from_iterable(kept)),
                         dtype=np.int64, count=offsets[-1])
    template_cache: dict = {}
    pairs_per_epoch = sum(
        _pair_template(length, config.window, template_cache)[0].size
        for length in lengths)
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
        for b0 in range(0, len(lengths), _BLOCK_SENTENCES):
            b1 = min(b0 + _BLOCK_SENTENCES, len(lengths))
            pair_off, rows_tok, row_start, cols_tok, col_start, flat, weight = \
                _block_plan(stream[offsets[b0]:offsets[b1]], lengths[b0:b1],
                            config.window, template_cache, rng, noise_cum,
                            guide, k)
            lr = decayed_rate(config.learning_rate,
                              (processed + pair_off[:-1]) / total_pairs)
            processed += int(pair_off[-1])
            rate = np.repeat(lr, np.diff(pair_off))[:, None] * weight * sign
            scores = np.empty(flat.shape)
            pair_off = pair_off.tolist()
            # exp(-sign * score) overflows only where the coefficient's
            # limit, 0, is exact; divergence is left to check_finite
            with np.errstate(over="ignore"):
                for j in range(len(pair_off) - 1):
                    p0, p1 = pair_off[j], pair_off[j + 1]
                    rows = rows_tok[row_start[j]:row_start[j + 1]]
                    cols = cols_tok[col_start[j]:col_start[j + 1]]
                    v = syn0[rows]
                    u = syn1[cols]
                    f = flat[p0:p1]
                    scores[p0:p1] = score = (v @ u.T).ravel()[f]
                    coef = rate[p0:p1] / (1.0 + np.exp(-sign * score))
                    g = np.bincount(f.ravel(), coef.ravel(),
                                    minlength=rows.size * cols.size)
                    g = g.reshape(rows.size, cols.size)
                    # both updates come from the snapshot v, u
                    syn1[cols] = u - g.T @ v
                    syn0[rows] = v - g @ u
            epoch_loss += float(np.sum(weight * softplus(sign * scores)))
        loss = check_finite(method_tag, epoch, config.learning_rate,
                            epoch_loss / pairs_per_epoch, syn0, syn1)
        if loss > _BLOWUP * (1 + k) * math.log(2.0):
            raise DivergenceError(
                f"{method_tag}: mean loss per pair {loss:.3g} at epoch {epoch} "
                f"exceeds {_BLOWUP:g} times its untrained bound "
                f"(learning_rate={config.learning_rate})")
        history.append(loss)

    nodes = sorted(filter(index.__contains__, corpus.node_tokens))
    return EmbeddingTable(nodes, syn0[[index[tok] for tok in nodes]], method_tag,
                          loss_history=history)
