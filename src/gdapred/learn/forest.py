"""Random forest of CART trees grown on Gini impurity."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from ..validation import at_least, bound
from .base import BinaryClassifier

#: positions of one step: the bootstrap draws of the trees that one fit
#: grows together (a tree keeps each drawn row once), and the (tree, row)
#: pairs of the trees that one prediction descends together; further
#: trees go in later groups, which bounds the size of a step's arrays
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


def _level_splits(X, ranks, y, rows, counts, starts, features):
    """Best split of every node of one level, in one segmented pass per
    sampled-feature slot.

    Node ``s`` holds the distinct rows ``rows[starts[s]:starts[s + 1]]``
    of ``X``, row ``rows[i]`` drawn ``counts[i]`` times, and samples the
    features ``features[s]``, in ascending order; ``ranks`` is
    ``_dense_ranks(X)``. Returns each node's feature (-1 when no feature
    separates its rows), threshold and weighted Gini, all as for the
    node's rows repeated by their counts. Thresholds are midpoints
    between consecutive distinct values. Ties go to the first sampled
    feature, which a later one must beat by more than 1e-15, and to the
    smallest threshold, which keeps training deterministic.
    """
    n, m, nodes = X.shape[0], rows.size, starts.size
    seg = np.repeat(np.arange(nodes), np.diff(starts, append=m))
    # draw counts as floats: exact integers, so every ratio below is the
    # one the integer counts give
    counts = counts.astype(np.float64)
    counts_pos = counts * y[rows]
    n_node = np.add.reduceat(counts, starts)
    pos_node = np.add.reduceat(counts_pos, starts)
    # the draws of the nodes before each position's own
    n_before = (np.cumsum(n_node) - n_node)[seg]
    pos_before = (np.cumsum(pos_node) - pos_node)[seg]
    n_node, pos_node = n_node[seg], pos_node[seg]
    ends = np.append(starts[1:], m) - 1  # a split after a node's end is none
    node_key = seg * n  # sort keys group positions by node, then rank
    positions = np.arange(m)
    best_f = np.full(nodes, -1)
    best_t = np.zeros(nodes)
    best_w = np.full(nodes, np.inf)
    for slot in features.T:
        # position i scores the split after it, within its node
        keys = node_key + ranks[slot[seg], rows]
        order = np.argsort(keys)
        keys = keys[order]
        n_left = np.cumsum(counts[order]) - n_before
        pos_left = np.cumsum(counts_pos[order]) - pos_before
        n_right = n_node - n_left
        p_left = pos_left / n_left
        p_right = (pos_node - pos_left) / np.maximum(n_right, 1.0)
        gini_left = 1.0 - p_left**2 - (1.0 - p_left)**2
        gini_right = 1.0 - p_right**2 - (1.0 - p_right)**2
        weighted = (n_left * gini_left + n_right * gini_right) / n_node
        weighted[ends] = np.inf
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
    the smallest draws in its row. A node holds each distinct bootstrap
    row once, with the number of times it was drawn.
    """
    n, n_features = X.shape
    rngs = [np.random.default_rng(seed) for seed in seeds]
    drawn = np.concatenate([np.bincount(rng.integers(0, n, size=n),
                                        minlength=n) for rng in rngs])
    rows = np.flatnonzero(drawn)
    counts = drawn[rows]
    # the level's nodes, grouped by (tree, node) in breadth-first order:
    # each one's first position in rows, its tree and its dict
    starts = np.searchsorted(rows, np.arange(len(rngs)) * n)
    rows %= n
    tree = np.arange(len(rngs))
    level: list[dict] = [{} for _ in rngs]
    roots = level
    depth = 0
    while level:
        sizes = np.diff(starts, append=rows.size)
        total = np.add.reduceat(counts, starts)
        pos = np.add.reduceat(counts * y[rows], starts)
        split = (total >= min_samples_split) & (pos > 0) & (pos < total)
        if max_depth is not None and depth >= max_depth:
            split[:] = False
        if split.any():
            n_searched = np.bincount(tree[split], minlength=len(rngs))
            draws = np.concatenate([rng.random((c, n_features))
                                    for rng, c in zip(rngs, n_searched) if c])
            features = np.sort(
                np.argsort(draws, axis=1, kind="stable")[:, :k], axis=1)
            kept = np.repeat(split, sizes)
            rows, counts = rows[kept], counts[kept]
            searched = sizes[split]
            starts = np.cumsum(searched) - searched
            f, t, _ = _level_splits(X, ranks, y, rows, counts, starts, features)
            left = X[rows, np.repeat(f, searched)] < np.repeat(t, searched)
            n_left = np.add.reduceat(left, starts)
            grown = (f >= 0) & (n_left > 0) & (n_left < searched)
            split[split] = grown  # a search that found no split makes a leaf
        p = (pos[~split] / total[~split]).tolist()
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
        order = np.argsort(child, kind="stable")
        rows, counts = rows[kept][order], counts[kept][order]
        child_sizes = np.bincount(child, minlength=len(children))
        starts = np.cumsum(child_sizes) - child_sizes
        tree = np.repeat(tree[split], 2)
        level = children
        depth += 1
    return roots


_LEAF_KEYS = {"leaf"}
_SPLIT_KEYS = {"feature", "left", "right", "threshold"}


def _flat_forest(trees, n_features: int):
    """The nodes of all ``trees`` as flat arrays: ``feature`` (-1 at a
    leaf), ``threshold``, ``left`` (a split's left child; its right one
    follows it) and the leaf's positive-label fraction ``value``. Tree t
    is rooted at node t.

    Raises ValueError unless every node is a leaf ``[1.0 - p, p]`` with
    p in [0, 1] or a split on a feature in [0, n_features) at a finite
    threshold with a left and a right node.
    """
    nodes = list(trees)
    feature, threshold, left, value = [], [], [], []
    for node in nodes:  # visits the children appended below as well
        if not isinstance(node, dict):
            raise ValueError(f"a tree node must be a mapping, found {node!r}")
        if node.keys() == _LEAF_KEYS:
            leaf = node["leaf"]
            if not (type(leaf) is list and len(leaf) == 2
                    and type(leaf[0]) is float and type(leaf[1]) is float):
                raise ValueError(f"a leaf must hold 2 finite floats, found {leaf!r}")
            # false for a NaN, and leaf[0] is then finite as well
            if not (0.0 <= leaf[1] <= 1.0 and leaf[0] == 1.0 - leaf[1]):
                raise ValueError(f"a leaf must be [1 - p, p] with p in [0, 1], "
                                 f"found {leaf!r}")
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            value.append(leaf[1])
        elif node.keys() == _SPLIT_KEYS:
            f = node["feature"]
            if type(f) is not int or not 0 <= f < n_features:
                raise ValueError(f"a split feature must be an integer in "
                                 f"[0, {n_features}), found {f!r}")
            t = node["threshold"]
            if type(t) is not float or not math.isfinite(t):
                raise ValueError(f"a split threshold must be a finite float, "
                                 f"found {t!r}")
            feature.append(f)
            threshold.append(t)
            left.append(len(nodes))
            value.append(0.0)
            nodes += [node["left"], node["right"]]
        else:
            raise ValueError(f"a tree node must be a leaf or a split, "
                             f"found {sorted(node)!r}")
    return (np.array(feature, dtype=np.int64), np.array(threshold),
            np.array(left, dtype=np.int64), np.array(value))


@dataclass(eq=False)
class RandomForestClassifier(BinaryClassifier):
    """Bagged CART trees (Breiman 2001); sqrt(d) features per split,
    bootstrap rows.

    ``_fit`` grows all trees together, one depth at a time, as SPRINT
    does (Shafer, Agrawal & Mehta 1996): each depth runs one segmented
    split search over the rows of every open node, then one stable
    partition of those rows into the children. A tree keeps each
    distinct bootstrap row once with its draw count, which weighs the
    row in every count the split search, the node sizes and the leaf
    fractions take, so a tree is the one its repeated rows would grow.
    Tree t draws from ``default_rng(seed + t)``: its bootstrap rows,
    then one uniform (open nodes, features) array per depth, its nodes
    in breadth-first order, so its draws do not depend on the trees
    grown beside it. ``_positive`` descends all trees together, one
    level per step, on the flat node arrays ``nodes_`` of `_flat_forest`,
    and adds their leaf fractions in tree order. ``nodes_`` is built
    once: by the load check, or by the first prediction after a fit.
    ``max_features``: "sqrt" samples floor(sqrt(d)) features per node,
    None all.
    """

    kind = "random_forest"
    nodes_ = None  # `_flat_forest(trees_)`, built once

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
        trees = []
        for first in range(0, self.n_trees, group):
            seeds = range(self.seed + first,
                          self.seed + min(first + group, self.n_trees))
            trees += _grow_trees(X, ranks, y, seeds, k, self.max_depth,
                                 self.min_samples_split)
        self.trees_, self.nodes_ = trees, None

    def _positive(self, X):
        if self.nodes_ is None:
            self.nodes_ = _flat_forest(self.trees_, self.n_features_)
        feature, threshold, left, value = self.nodes_
        rows, n_trees = X.shape[0], len(self.trees_)
        group = max(1, _GROUP_ROWS // max(rows, 1))
        pos = np.zeros(rows)
        for first in range(0, n_trees, group):
            # each (tree, row) pair of the group descends one level per
            # step; pair i is the group's tree i // rows at row i % rows
            trees = np.arange(first, min(first + group, n_trees))
            node = np.repeat(trees, rows)
            active = np.flatnonzero(feature[node] >= 0)
            while active.size:
                at = node[active]
                right = X[active % rows, feature[at]] >= threshold[at]
                node[active] = at = left[at] + right
                active = active[feature[at] >= 0]
            for tree_value in value[node].reshape(trees.size, rows):
                pos += tree_value  # in tree order, one tree's votes at a time
        return pos / n_trees

    def _export_state(self) -> dict:
        return {"trees": self.trees_}

    def _import_state(self, state: dict) -> None:
        trees = state["trees"]
        if not isinstance(trees, list) or len(trees) != self.n_trees:
            raise ValueError(f"expected a list of {self.n_trees} trees")
        self.nodes_ = _flat_forest(trees, self.n_features_)
        self.trees_ = trees
