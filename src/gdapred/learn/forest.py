"""Random forest of CART trees grown on Gini impurity."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from ..validation import at_least, bound
from .base import BinaryClassifier

#: bootstrap rows of the trees that one fit grows together; further
#: trees grow in later groups, which bounds the size of a level's arrays
_GROUP_ROWS = 1 << 15


def _dense_ranks(X):
    """(features, rows): each value's rank among the distinct values of
    its column, so equal values share a rank."""
    order = np.argsort(X, axis=0, kind="stable")
    sv = np.take_along_axis(X, order, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    steps[1:] = sv[1:] > sv[:-1]
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=0), axis=0)
    return np.ascontiguousarray(ranks.T)


def _level_splits(X, ranks, y, rows, starts, features):
    """Best split of every node of one level, in one segmented pass per
    sampled-feature slot.

    Node ``s`` holds the rows ``rows[starts[s]:starts[s + 1]]`` of ``X``
    and samples the features ``features[s]``, in ascending order;
    ``ranks`` is ``_dense_ranks(X)``. Returns each node's feature (-1
    when no feature separates its rows), threshold and weighted Gini.
    Thresholds are midpoints between consecutive distinct values. Ties
    go to the first sampled feature, which a later one must beat by
    more than 1e-15, and to the smallest threshold, which keeps training
    deterministic.
    """
    n, m, nodes = X.shape[0], rows.size, starts.size
    sizes = np.diff(starts, append=m)
    seg = np.repeat(np.arange(nodes), sizes)
    y_rows = y[rows]
    # position i scores the split after it, within its node
    n_node = sizes[seg]
    n_left = np.arange(1, m + 1) - starts[seg]
    n_right = n_node - n_left
    last = n_right == 0
    n_right_or_1 = np.where(last, 1, n_right)  # last positions are masked
    pos_node = np.add.reduceat(y_rows, starts)[seg]
    node_key = seg * n  # sort keys group positions by node, then rank
    positions = np.arange(m)
    best_f = np.full(nodes, -1)
    best_t = np.zeros(nodes)
    best_w = np.full(nodes, np.inf)
    for slot in features.T:
        keys = node_key + ranks[slot[seg], rows]
        order = np.argsort(keys)
        keys = keys[order]
        ys = y_rows[order]
        cum = np.cumsum(ys)
        pos_left = cum - (cum[starts] - ys[starts])[seg]
        p_left = pos_left / n_left
        p_right = (pos_node - pos_left) / n_right_or_1
        gini_left = 1.0 - p_left**2 - (1.0 - p_left)**2
        gini_right = 1.0 - p_right**2 - (1.0 - p_right)**2
        weighted = (n_left * gini_left + n_right * gini_right) / n_node
        weighted[last] = np.inf
        weighted[:-1][keys[1:] == keys[:-1]] = np.inf
        low = np.minimum.reduceat(weighted, starts)
        first = np.minimum.reduceat(
            np.where(weighted == low[seg], positions, m), starts)
        better = low < best_w - 1e-15
        i, f = first[better], slot[better]
        best_t[better] = 0.5 * (X[rows[order[i]], f] + X[rows[order[i + 1]], f])
        best_f[better] = f
        best_w[better] = low[better]
    return best_f, best_t, best_w


def _grow_trees(X, ranks, y, seeds, k, max_depth, min_samples_split):
    """Grow one tree per seed, all of them together one depth at a time;
    return each tree as nested dicts.

    A tree draws its bootstrap rows from ``default_rng(seed)``, then at
    each depth one ``random((nodes it searches, features))`` array, its
    nodes in breadth-first order; a node samples the ``k`` features with
    the smallest draws in its row.
    """
    n, n_features = X.shape
    rngs = [np.random.default_rng(seed) for seed in seeds]
    rows = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    # the level's nodes, grouped by (tree, node) in breadth-first order:
    # each one's first position in rows, its tree and its dict
    starts = np.arange(len(rngs)) * n
    tree = np.arange(len(rngs))
    level: list[dict] = [{} for _ in rngs]
    roots = level
    depth = 0
    while level:
        sizes = np.diff(starts, append=rows.size)
        pos = np.add.reduceat(y[rows], starts)
        split = (sizes >= min_samples_split) & (pos > 0) & (pos < sizes)
        if max_depth is not None and depth >= max_depth:
            split[:] = False
        if split.any():
            counts = np.bincount(tree[split], minlength=len(rngs))
            draws = np.concatenate([rng.random((c, n_features))
                                    for rng, c in zip(rngs, counts) if c])
            features = np.sort(
                np.argsort(draws, axis=1, kind="stable")[:, :k], axis=1)
            rows = rows[np.repeat(split, sizes)]
            searched = sizes[split]
            starts = np.cumsum(searched) - searched
            f, t, _ = _level_splits(X, ranks, y, rows, starts, features)
            left = X[rows, np.repeat(f, searched)] < np.repeat(t, searched)
            n_left = np.add.reduceat(left, starts)
            grown = (f >= 0) & (n_left > 0) & (n_left < searched)
            split[split] = grown  # a search that found no split makes a leaf
        p = (pos[~split] / sizes[~split]).tolist()
        for node, p_node in zip(compress(level, ~split), p):
            node["leaf"] = [1.0 - p_node, p_node]
        if not split.any():
            break
        children = []
        for node, feature, threshold in zip(
                compress(level, split), f[grown].tolist(), t[grown].tolist()):
            node.update(feature=feature, threshold=threshold,
                        left={}, right={})
            children += [node["left"], node["right"]]
        # one stable partition of the split nodes' rows into their children
        kept = np.repeat(grown, searched)
        child = np.repeat(np.arange(0, len(children), 2), searched[grown]) \
            + ~left[kept]
        rows = rows[kept][np.argsort(child, kind="stable")]
        child_sizes = np.bincount(child, minlength=len(children))
        starts = np.cumsum(child_sizes) - child_sizes
        tree = np.repeat(tree[split], 2)
        level = children
        depth += 1
    return roots


def _tree_proba(node, X):
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if "leaf" in nd:
            out[idx] = nd["leaf"][1]
            continue
        mask = X[idx, nd["feature"]] < nd["threshold"]
        stack.append((nd["left"], idx[mask]))
        stack.append((nd["right"], idx[~mask]))
    return out


@dataclass(eq=False)
class RandomForestClassifier(BinaryClassifier):
    """Bagged CART trees; sqrt(d) features per split, bootstrap rows.

    ``_fit`` grows all trees together, one depth at a time, as SPRINT
    does (Shafer, Agrawal & Mehta 1996): each depth runs one segmented
    split search over the bootstrap rows of every open node, then one
    stable partition of those rows into the children. Tree t draws from
    ``default_rng(seed + t)``: its bootstrap rows, then one uniform
    (open nodes, features) array per depth, its nodes in breadth-first
    order, so its draws do not depend on the trees grown beside it.
    ``max_features``: "sqrt" samples floor(sqrt(d)) features per node, None all.
    """

    kind = "random_forest"

    n_trees: int = at_least(1, 100)
    max_depth: int | None = at_least(1, None)
    max_features: str | None = bound("'sqrt' or None", lambda v: v == "sqrt", "sqrt")
    min_samples_split: int = at_least(2, 2)
    seed: int = at_least(0, 0)

    def _fit(self, X, y):
        n, k = X.shape
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(k)))
        ranks = _dense_ranks(X)
        group = max(1, _GROUP_ROWS // n)
        self.trees_ = []
        for first in range(0, self.n_trees, group):
            seeds = range(self.seed + first,
                          self.seed + min(first + group, self.n_trees))
            self.trees_ += _grow_trees(X, ranks, y, seeds, k, self.max_depth,
                                       self.min_samples_split)

    def _positive(self, X):
        pos = np.zeros(X.shape[0], dtype=np.float64)
        for tree in self.trees_:
            pos += _tree_proba(tree, X)
        return pos / len(self.trees_)

    def _export_state(self) -> dict:
        return {"trees": self.trees_}

    def _import_state(self, state: dict) -> None:
        self.trees_ = state["trees"]
