"""Shared test utilities: generators and brute-force oracles.

The oracles deliberately avoid the library's graph machinery: upward
reachability is computed by fixpoint edge relaxation over explicit edge
lists, and every similarity value follows straight from its definition.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from gdapred.artifacts import read_json
from gdapred.errors import DegenerateDataError
from gdapred.evaluation import (NEGATIVE, POSITIVE, TEST, TRAIN, AssociationDataset,
                                EvalReport, _confusion, _count_metrics)
from gdapred.kg import build_kg
from gdapred.learn.mlp import _backward, _forward, _init_params, _views
from gdapred.ontology import AnnotationMap, EntityId, Ontology, OntologyTerm
from gdapred.semsim import PairPlan, ic_table, ssm_baseline


# ---------------------------------------------------------------------------
# generators


def random_ontology(rng: np.random.Generator, n_terms: int,
                    prefix: str = "HP") -> Ontology:
    """Random single-root DAG: every non-root picks 1-2 earlier parents."""
    ids = [f"{prefix}:{i:07d}" for i in range(n_terms)]
    terms = {tid: OntologyTerm(id=tid, label=f"term {i}")
             for i, tid in enumerate(ids)}
    edges: set[tuple[str, str, str]] = set()
    for i in range(1, n_terms):
        n_parents = min(int(rng.integers(1, 3)), i)
        for p in rng.choice(i, size=n_parents, replace=False):
            edges.add((ids[i], "is_a", ids[int(p)]))
    return Ontology(terms=terms, edges=edges, roots={ids[0]})


def serialize_obo(ontology: Ontology) -> str:
    """Write an Ontology back to OBO text (stanzas sorted by id)."""
    by_child: dict[str, list[tuple[str, str]]] = {}
    for child, rel, parent in ontology.edges:
        by_child.setdefault(child, []).append((rel, parent))
    out: list[str] = ["format-version: 1.2", ""]
    for tid in sorted(ontology.terms):
        term = ontology.terms[tid]
        out.append("[Term]")
        out.append(f"id: {tid}")
        if term.label:
            out.append(f"name: {term.label}")
        if term.definition:
            out.append(f'def: "{term.definition}" []')
        for syn in term.synonyms:
            out.append(f'synonym: "{syn}" EXACT []')
        for rel, parent in sorted(by_child.get(tid, [])):
            if rel == "is_a":
                out.append(f"is_a: {parent}")
            else:
                out.append(f"relationship: {rel} {parent}")
        for target in term.ld_targets:
            out.append(f"intersection_of: {target}")
        out.append("")
    return "\n".join(out)


def random_annotations(rng: np.random.Generator, ontology: Ontology,
                       n_genes: int, n_diseases: int,
                       max_terms: int = 8) -> tuple[AnnotationMap, AnnotationMap]:
    term_ids = sorted(ontology.terms)
    gene_map = AnnotationMap()
    disease_map = AnnotationMap()
    for i in range(n_genes):
        k = int(rng.integers(1, max_terms + 1))
        chosen = rng.choice(len(term_ids), size=min(k, len(term_ids)), replace=False)
        gene_map.entries[EntityId(f"g{i}", "gene")] = {term_ids[int(c)] for c in chosen}
    for i in range(n_diseases):
        k = int(rng.integers(1, max_terms + 1))
        chosen = rng.choice(len(term_ids), size=min(k, len(term_ids)), replace=False)
        disease_map.entries[EntityId(f"d{i}", "disease")] = {term_ids[int(c)] for c in chosen}
    return gene_map, disease_map


def random_hp_kg(rng: np.random.Generator, n_terms: int, n_genes: int,
                 n_diseases: int, max_terms: int = 8):
    ontology = random_ontology(rng, n_terms)
    gene_map, disease_map = random_annotations(rng, ontology, n_genes,
                                               n_diseases, max_terms)
    kg = build_kg("HP", ontology, gene_hp=gene_map, disease_hp=disease_map)
    return kg, ontology, gene_map, disease_map


class Pair(NamedTuple):
    """One row of an `AssociationDataset`."""
    gene: EntityId
    disease: EntityId
    label: int


def dataset_of(rows) -> AssociationDataset:
    """The unsplit `AssociationDataset` of (gene, disease, label) rows."""
    return AssociationDataset([r[0] for r in rows], [r[1] for r in rows],
                              [r[2] for r in rows])


def pairs_of(dataset: AssociationDataset, rows=None) -> list[Pair]:
    """The dataset's rows as `Pair`s: every row in order, or those at ``rows``."""
    rows = range(len(dataset)) if rows is None else rows
    return [Pair(dataset.genes[i], dataset.diseases[i], int(dataset.labels[i]))
            for i in rows]


def negatives(dataset):
    """The negative pairs of an `AssociationDataset`."""
    return [p for p in pairs_of(dataset) if p.label == NEGATIVE]


def oracle_split(labels, train_fraction: float, seed: int) -> np.ndarray:
    """The train mask of the per-pair form of `stratified_split`: per
    label, a permutation of its rows in row order, whose first
    round-half-up(``train_fraction`` x members) go to train. It does not
    check for an empty partition."""
    rng = np.random.default_rng(seed)
    split: dict[int, str] = {}
    for label in (POSITIVE, NEGATIVE):
        indices = [i for i, y in enumerate(labels) if y == label]
        if len(indices) < 2:
            raise DegenerateDataError(
                f"label {label} has {len(indices)} members; cannot stratify")
        n_train = int(math.floor(train_fraction * len(indices) + 0.5))
        order = rng.permutation(len(indices))
        for pos, j in enumerate(order):
            split[indices[j]] = TRAIN if pos < n_train else TEST
    return np.array([split[i] == TRAIN for i in range(len(labels))], dtype=bool)


def read_report(path) -> EvalReport:
    """The `EvalReport` that `EvalReport.write` put at ``path``."""
    return EvalReport(**read_json(path))


def per_label_metrics(y_true, y_pred) -> dict[str, dict[str, float]]:
    """Precision/recall/F1 and support for the positive and negative
    label at threshold 0.5, from the library's counts core."""
    return _count_metrics(*_confusion(y_true, y_pred, 0.5))[0]


# ---------------------------------------------------------------------------
# brute-force oracles


def oracle_reachable_up(edges: set[tuple[str, str]], start: str) -> set[str]:
    """Fixpoint relaxation over (child, parent) edges; includes start."""
    reach = {start}
    changed = True
    while changed:
        changed = False
        for child, parent in edges:
            if child in reach and parent not in reach:
                reach.add(parent)
                changed = True
    return reach


def subclass_edges(kg) -> set[tuple[str, str]]:
    return {(s, o) for s, rel, o in kg.triples if rel == "subClassOf"}


def oracle_ic_seco(kg) -> dict[str, float]:
    terms = sorted(kg.term_nodes)
    edges = subclass_edges(kg)
    n = len(terms)
    values = {}
    for t in terms:
        descendants = sum(
            1 for other in terms
            if other != t and t in oracle_reachable_up(edges, other))
        values[t] = 1.0 - math.log(descendants + 1) / math.log(n)
    return values


def oracle_ic_resnik(kg, annotations: AnnotationMap) -> dict[str, float]:
    edges = subclass_edges(kg)
    n = len(annotations.entries)
    counts: dict[str, int] = {}
    for terms in annotations.entries.values():
        closure: set[str] = set()
        for t in terms:
            closure |= oracle_reachable_up(edges, t)
        for t in closure:
            counts[t] = counts.get(t, 0) + 1
    return {t: -math.log(c / n) for t, c in counts.items()}


def set_form_ic_seco(kg) -> dict[str, float]:
    """Seco IC counted over each term's ``ancestor_set``, with the
    library's arithmetic, so its values must be the library's to the
    bit."""
    terms = sorted(kg.term_nodes)
    desc_count = {t: 0 for t in terms}
    for t in terms:
        for anc in kg.ancestor_set(t):
            if anc != t:
                desc_count[anc] += 1
    log_n = math.log(len(terms))
    return {t: 1.0 - math.log(desc_count[t] + 1) / log_n for t in terms}


def set_form_ic_resnik(kg, annotations: AnnotationMap) -> dict[str, float]:
    """Corpus IC from the union of ``ancestor_set`` over each entity's
    terms; ``ancestor_set`` raises UnknownNodeError for a term that is
    not a term node."""
    counts: dict[str, int] = {}
    for terms in annotations.entries.values():
        closure: set[str] = set()
        for t in terms:
            closure |= kg.ancestor_set(t)
        for t in closure:
            counts[t] = counts.get(t, 0) + 1
    log_n = math.log(len(annotations.entries))
    return {t: log_n - math.log(c) for t, c in counts.items()}


def set_form_masks(kg, values: dict[str, float]) -> tuple[list[float], dict[str, int]]:
    """The MICA ranks and masks of an IC table, each mask the sum of its
    term's ancestors' rank bits over ``ancestor_set``."""
    ranked = sorted((t for t, v in values.items() if v > 0.0),
                    key=lambda t: (values[t], t))
    bit = {t: 1 << r for r, t in enumerate(ranked)}
    masks = {term: sum(bit.get(a, 0) for a in kg.ancestor_set(term))
             for term in kg.term_nodes}
    return [values[t] for t in ranked], masks


def row_fsums(mask: np.ndarray, weights: np.ndarray) -> list[float]:
    """``math.fsum`` of ``weights`` over each row's True columns."""
    rows, cols = np.nonzero(mask)
    gathered = weights[cols].tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(mask))).tolist()
    return [math.fsum(gathered[lo:hi]) for lo, hi in zip([0, *ends], ends)]


def oracle_pair_sim(a: str, b: str, kg, ic: dict[str, float]) -> float:
    edges = subclass_edges(kg)
    common = oracle_reachable_up(edges, a) & oracle_reachable_up(edges, b)
    return max((ic[t] for t in common if t in ic), default=0.0)


def oracle_groupwise(gene_terms: set[str], disease_terms: set[str],
                     aggregation: str, kg, ic: dict[str, float]) -> float:
    edges = subclass_edges(kg)
    if aggregation == "SIMGIC":
        anc_a: set[str] = set()
        for t in gene_terms:
            anc_a |= oracle_reachable_up(edges, t)
        anc_b: set[str] = set()
        for t in disease_terms:
            anc_b |= oracle_reachable_up(edges, t)
        inter = sum(ic[t] for t in anc_a & anc_b if t in ic)
        union = sum(ic[t] for t in anc_a | anc_b if t in ic)
        return inter / union if union > 0 else 0.0
    matrix = {
        (a, b): oracle_pair_sim(a, b, kg, ic)
        for a in gene_terms for b in disease_terms
    }
    if aggregation == "MAX":
        return max(matrix.values())
    row = [max(matrix[(a, b)] for b in disease_terms) for a in gene_terms]
    col = [max(matrix[(a, b)] for a in gene_terms) for b in disease_terms]
    return 0.5 * (sum(row) / len(row) + sum(col) / len(col))


def loop_best_match(gene_terms: set[str], disease_terms: set[str],
                    aggregation: str, pair_sim) -> float:
    """BMA or MAX as a double loop over the sorted terms with running
    bests from 0.0: the reference for the bits of ``sim_groupwise``."""
    a_list = sorted(gene_terms)
    b_list = sorted(disease_terms)
    row_best = [0.0] * len(a_list)
    col_best = [0.0] * len(b_list)
    for i, a in enumerate(a_list):
        for j, b in enumerate(b_list):
            s = pair_sim(a, b)
            if s > row_best[i]:
                row_best[i] = s
            if s > col_best[j]:
                col_best[j] = s
    if aggregation == "MAX":
        return max(row_best)
    return 0.5 * (sum(row_best) / len(row_best) + sum(col_best) / len(col_best))


def set_form_simgic(gene_terms: set[str], disease_terms: set[str], kg,
                    ic: dict[str, float]) -> float:
    """SimGIC over the unions of ``ancestor_set``, summed with
    ``math.fsum``, which is exact, so the result does not depend on set
    iteration order: the reference for the bits of ``ssm_baseline``'s
    SimGIC scores."""
    anc_a = set().union(*map(kg.ancestor_set, gene_terms))
    anc_b = set().union(*map(kg.ancestor_set, disease_terms))
    inter = math.fsum(ic[t] for t in anc_a & anc_b if t in ic)
    union = math.fsum(ic[t] for t in anc_a | anc_b if t in ic)
    return inter / union if union > 0 else 0.0


class Scored(NamedTuple):
    """One line of a scored-pairs file, as `score_dataset` lists it."""
    gene: EntityId
    disease: EntityId
    raw_score: float
    normalized_score: float
    label: int


def score_dataset(dataset, config, kg, annotations: AnnotationMap,
                  ic=None) -> list[Scored]:
    """``ssm_baseline`` over a plan of its own, with ``ic`` or, without
    it, the table of the config's flavour built from ``annotations``: one
    `Scored` per scored pair, in dataset order."""
    if ic is None:
        ic = ic_table(config.ic_flavor, kg, annotations)
    plan = PairPlan(dataset, kg, annotations)
    raw, normalized = ssm_baseline(plan, config, ic)
    assert raw.dtype == normalized.dtype == np.float64
    return [Scored(*pair[:2], r, n, pair.label) for pair, r, n in zip(
        pairs_of(dataset, plan.rows.tolist()), raw.tolist(), normalized.tolist(), strict=True)]


def score_grid(gene_sets, disease_sets, config, kg, ic) -> list[list[float]]:
    """The raw ``ssm_baseline`` score of each gene set with each disease
    set, one row per gene set: each set annotates an entity of its own, in
    a dataset of every gene x disease pair."""
    genes = [EntityId(f"g{i}", "gene") for i in range(len(gene_sets))]
    diseases = [EntityId(f"d{j}", "disease") for j in range(len(disease_sets))]
    annotations = AnnotationMap(entries={
        **{g: set(terms) for g, terms in zip(genes, gene_sets)},
        **{d: set(terms) for d, terms in zip(diseases, disease_sets)}})
    dataset = dataset_of([(g, d, (i + j) % 2)
                          for i, g in enumerate(genes)
                          for j, d in enumerate(diseases)])
    scored = score_dataset(dataset, config, kg, annotations, ic)
    assert [(r.gene, r.disease) for r in scored] == [p[:2] for p in pairs_of(dataset)]
    raw = [r.raw_score for r in scored]
    n = len(diseases)
    return [raw[i * n:(i + 1) * n] for i in range(len(genes))]


def oracle_auc(y_true, scores) -> float:
    """Exhaustive concordant-pair counting."""
    positives = [s for s, y in zip(scores, y_true) if y == 1]
    negatives = [s for s, y in zip(scores, y_true) if y == 0]
    total = 0.0
    for p in positives:
        for q in negatives:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(positives) * len(negatives))


def oracle_roc_points(y_true, scores) -> list[tuple[float | None, float, float]]:
    """ROC staircase by thresholding at every distinct score, highest first."""
    n_pos = sum(1 for y in y_true if y == 1)
    n_neg = sum(1 for y in y_true if y == 0)
    points = [(None, 0.0, 0.0)]
    for t in sorted(set(float(s) for s in scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, y_true) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, y_true) if s >= t and y == 0)
        points.append((t, fp / n_neg, tp / n_pos))
    return points


def oracle_per_label_metrics(y_true, y_pred) -> dict[str, dict[str, float]]:
    """Precision, recall, F1 and support, counted one label at a time."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    out = {}
    for name, label in (("positive", 1), ("negative", 0)):
        tp = int(np.sum((y_pred == label) & (y_true == label)))
        fp = int(np.sum((y_pred == label) & (y_true != label)))
        fn = int(np.sum((y_pred != label) & (y_true == label)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        out[name] = {"precision": precision, "recall": recall, "f1": f1,
                     "support": tp + fn}
    return out


def oracle_waf(y_true, y_pred) -> float:
    metrics = oracle_per_label_metrics(y_true, y_pred)
    total = sum(m["support"] for m in metrics.values())
    return sum(m["f1"] * m["support"] for m in metrics.values()) / total


def oracle_threshold_waf_table(scores, y_true) -> list[tuple[float, float]]:
    """WAF at thresholds 0.00, 0.01, ..., 1.00: one full pass of hard
    predictions per threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    return [(i / 100.0, oracle_waf(y_true, scores > i / 100.0)) for i in range(101)]


def oracle_gini_best_split(X, y, feature_indices):
    """The forest's split search on one node, one feature at a time, with
    the same tie rules and margin."""
    n = y.shape[0]
    best = (None, None, np.inf)
    for f in feature_indices:
        values = X[:, f]
        order = np.argsort(values, kind="mergesort")
        sv = values[order]
        sy = y[order]
        distinct = np.nonzero(sv[1:] > sv[:-1])[0]  # split after index i
        if distinct.size == 0:
            continue
        cum_pos = np.cumsum(sy)
        total_pos = cum_pos[-1]
        n_left = distinct + 1
        n_right = n - n_left
        pos_left = cum_pos[distinct]
        pos_right = total_pos - pos_left
        p_left = pos_left / n_left
        p_right = pos_right / n_right
        gini_left = 1.0 - p_left**2 - (1.0 - p_left)**2
        gini_right = 1.0 - p_right**2 - (1.0 - p_right)**2
        weighted = (n_left * gini_left + n_right * gini_right) / n
        i = int(np.argmin(weighted))
        if weighted[i] < best[2] - 1e-15:
            threshold = 0.5 * (sv[distinct[i]] + sv[distinct[i] + 1])
            best = (int(f), float(threshold), float(weighted[i]))
    return best


def oracle_tree_proba(node, X):
    """The positive-label fraction that the nested-dict ``node`` gives
    each row of ``X``, one node at a time; a row goes left when its value
    is below the node's threshold."""
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


def oracle_forest(X, y, n_trees, max_depth=None, max_features="sqrt",
                  min_samples_split=2, seed=0):
    """The forest grown one node at a time: each tree breadth-first on its
    own, each node searched by ``oracle_gini_best_split``, from the same
    draws as the level-wise fit. Tree t takes its bootstrap rows from
    ``default_rng(seed + t)``, then at each depth one
    ``random((nodes searched, features))`` array, a node sampling the
    features with the smallest draws in its row."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, n_features = X.shape
    k = n_features
    if max_features == "sqrt":
        k = max(1, int(np.sqrt(n_features)))
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(seed + t)
        sample = rng.integers(0, n, size=n)
        Xs, ys = X[sample], y[sample]
        root: dict = {}
        level = [(root, np.arange(n))]
        depth = 0
        while level:
            searched = []
            for node, idx in level:
                y_node = ys[idx]
                if (max_depth is not None and depth >= max_depth) \
                        or idx.size < min_samples_split \
                        or np.all(y_node == y_node[0]):
                    p = float(np.mean(y_node))
                    node["leaf"] = [1.0 - p, p]
                else:
                    searched.append((node, idx))
            draws = rng.random((len(searched), n_features)) if searched else []
            level = []
            for (node, idx), row in zip(searched, draws):
                features = np.sort(np.argsort(row, kind="stable")[:k])
                f, threshold, _ = oracle_gini_best_split(Xs[idx], ys[idx], features)
                if f is not None:
                    mask = Xs[idx, f] < threshold
                    left_idx, right_idx = idx[mask], idx[~mask]
                if f is None or left_idx.size == 0 or right_idx.size == 0:
                    p = float(np.mean(ys[idx]))
                    node["leaf"] = [1.0 - p, p]
                    continue
                node.update(feature=f, threshold=threshold, left={}, right={})
                level += [(node["left"], left_idx), (node["right"], right_idx)]
            depth += 1
        trees.append(root)
    return trees


def finite_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array.

    The step sits near the float64 optimum for central differences
    (cube root of machine epsilon times the value scale).
    """
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        up = f()
        x[idx] = orig - step
        down = f()
        x[idx] = orig
        grad[idx] = (up - down) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def mlp_loss(params, X, y) -> float:
    """The mean cross-entropy whose gradient the MLP's backprop takes."""
    p = _forward(params, X)[-1][:, 0]
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def mlp_gradient_error(layer_sizes, seed: int) -> float:
    """Max relative error between the MLP's backprop gradients and central
    differences, on a random network and a batch of 5 random rows."""
    rng = np.random.default_rng(seed)
    theta = _init_params(list(layer_sizes), rng)
    params = _views(theta, layer_sizes)
    X = rng.normal(size=(5, layer_sizes[0]))
    y = rng.integers(0, 2, size=5).astype(np.float64)
    grads = _views(np.empty_like(theta), layer_sizes)
    _backward(params, grads, X, y)
    worst = 0.0
    for (W, b), layer_grads in zip(params, grads):
        for arr, grad in zip((W, b), layer_grads):
            numeric = finite_difference(lambda: mlp_loss(params, X, y), arr, step=1e-6)
            worst = max(worst, max_relative_error(grad, numeric))
    return worst


def save_arrays(path, *arrays) -> None:
    """``np.save`` each array into one file, the way `write_matrix` does,
    to build matrix files that `write_matrix` itself never writes."""
    with open(path, "wb") as fh:
        for array in arrays:
            np.save(fh, array, allow_pickle=False)


def utf8(text: str) -> np.ndarray:
    """The ids array of a matrix file: ``text``'s UTF-8 bytes as uint8."""
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def by_id(ids, matrix) -> dict[str, np.ndarray]:
    """Each id's row of ``matrix``: an embedding table's nodes or
    relations, looked up by name."""
    return dict(zip(ids, matrix))


def string_walk_adjacency(kg):
    """`KnowledgeGraph.walk_adjacency` built straight from the string
    triples: token indices from dicts, both directions of every triple
    and one packed-key sort."""
    nodes = sorted(kg.nodes)
    relations = sorted({rel for _, rel, _ in kg.triples})
    n = len(nodes)
    node_index = {node: i for i, node in enumerate(nodes)}
    rel_index = {rel: n + i for i, rel in enumerate(relations)}
    codes = np.array([(node_index[s], rel_index[rel], node_index[o])
                      for s, rel, o in kg.triples], dtype=np.int64).reshape(-1, 3)
    src = np.concatenate([codes[:, 0], codes[:, 2]])
    dst = np.concatenate([codes[:, 2], codes[:, 0]])
    width = n + len(relations)
    key = np.sort((src * width + np.tile(codes[:, 1], 2)) * n + dst)
    key = key[np.diff(key, prepend=-1) != 0]
    node, pair = np.divmod(key, width * n)
    relation, neighbour = np.divmod(pair, n)
    return (nodes + relations, np.searchsorted(node, np.arange(n + 1)),
            relation, neighbour)
