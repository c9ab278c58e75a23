"""Benchmark workloads: seeded input corpora plus a pipeline configuration.

Each workload turns ``--seed`` into a complete input set (ontologies,
annotation files, curated associations) and a pipeline config, using
``tests/corpus.py``'s ``PlantedCorpus``. The sizes are fixed so that one
run of the whole stage sequence takes a few seconds on 2 CPUs and a
measuring run repeats it several times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corpus import PlantedCorpus, write_config


class DeepCorpus(PlantedCorpus):
    """PlantedCorpus whose phenotype ontology is a deep multi-parent DAG.

    Each cluster head has two role branches. Every further term picks a
    first parent among the last ``window`` terms of its cluster, which
    makes chains deep (about 13 levels on average and up to about 25
    at 1,500 terms) and keeps the planted (cluster, role) structure,
    and with probability one half a second parent anywhere earlier in
    the DAG. Entities draw their phenotype
    annotations from the terms under their (cluster, role) branch, so
    term pairs recur across entity pairs while ancestor closures are
    large and overlap across clusters.

    The DAG's shape comes from ``dag_seed``, not the corpus seed: like
    the real HP release it is one fixed ontology, and the work its
    closures cause then does not change with the seed, which draws the
    annotations, associations and pipeline seeds.
    """

    def __init__(self, root, n_terms, window=40, dag_seed=0, **kwargs):
        self.n_terms = n_terms
        self.window = window
        self.dag_rng = np.random.default_rng(dag_seed)
        super().__init__(root, **kwargs)

    def _build_ontologies(self, leaves_per_branch, go_leaves_per_cluster):
        super()._build_ontologies(leaves_per_branch, go_leaves_per_cluster)
        ids = iter(f"HP:{i:07d}" for i in range(1, self.n_terms + 1))
        root = next(ids)
        terms = {root: {"name": "phenotype root", "parents": [], "ld": []}}
        order = []
        members: dict[int, list[tuple[str, int]]] = {}
        pools: dict[tuple[int, int], list[str]] = {}
        heads = {}
        for c in range(self.n_clusters):
            heads[c] = next(ids)
            terms[heads[c]] = {"name": f"cluster {c} phenotype",
                               "parents": [root], "ld": [self.go_heads[c]]}
            members[c] = []
            for role in (0, 1):
                branch = next(ids)
                terms[branch] = {"name": f"cluster {c} branch {role}",
                                 "parents": [heads[c]], "ld": []}
                members[c].append((branch, role))
                order.append(branch)
        for i, tid in enumerate(ids):
            c = i % self.n_clusters
            recent = members[c][-self.window:]
            first, role = recent[int(self.dag_rng.integers(len(recent)))]
            parents = [first]
            if self.dag_rng.random() < 0.5:
                other = order[int(self.dag_rng.integers(len(order)))]
                if other != first:
                    parents.append(other)
            terms[tid] = {"name": f"cluster {c} role {role} sign {i}",
                          "parents": parents, "ld": []}
            members[c].append((tid, role))
            order.append(tid)
            pools.setdefault((c, role), []).append(tid)
        self.hp_terms = terms
        self.hp_heads = heads
        self.hp_branch_leaves = pools


@dataclass(frozen=True)
class Workload:
    """``options`` go to ``PlantedCorpus.config``; ``overrides`` are then
    set on the config, with ``embedding`` merged key by key."""

    name: str
    corpus: dict
    options: dict
    overrides: dict = field(default_factory=dict)
    deep_terms: int = 0
    #: ``variant_method_operator`` whose forest must meet criterion 6's
    #: thresholds (see checks.planted_cell_ok)
    planted_cell: str = ""

    def write_inputs(self, root: Path, out_dir: Path, seed: int) -> Path:
        """Write the inputs and the config for ``seed``; return the config path."""
        if self.deep_terms:
            corpus = DeepCorpus(root / "data", self.deep_terms, seed=seed,
                                **self.corpus)
        else:
            corpus = PlantedCorpus(root / "data", seed=seed, **self.corpus)
        config = corpus.config(
            out_dir, seeds={"sampling": seed + 1, "split": seed + 2,
                            "embedding": seed + 3, "training": seed + 4},
            **self.options)
        for key, value in self.overrides.items():
            if key == "embedding":
                config[key].update(value)
            else:
                config[key] = value
        return write_config(config, root / "config.json")


SMALL_PLANTED = {"n_clusters": 4, "n_genes": 48, "n_diseases": 32,
                 "leaves_per_branch": 8, "go_leaves_per_cluster": 10}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="walk_forest",
            corpus=SMALL_PLANTED,
            options={"variants": ("HP", "HP_GO_LD"),
                     "methods": ("walk", "walk_lexical"),
                     "operators": ("hadamard",),
                     "learners": ("random_forest", "cosine"),
                     "dimension": 32, "epochs": 2, "walks_per_node": 8,
                     "classifier_params": {"random_forest": {"n_trees": 20}}},
            overrides={"embedding": {"learning_rate": 0.1}},
            planted_cell="HP_GO_LD_walk_hadamard",
        ),
        Workload(
            name="translational",
            corpus=SMALL_PLANTED,
            options={"variants": ("HP", "HP_GO_LD"),
                     "methods": ("transe", "distmult"),
                     "operators": ("concatenation", "weighted_l2"),
                     "learners": ("gaussian_nb", "mlp", "cosine"),
                     "dimension": 64, "epochs": 20,
                     "classifier_params": {"mlp": {"epochs": 50}}},
        ),
        Workload(
            name="ssm_grid",
            corpus={"n_clusters": 6, "n_genes": 72, "n_diseases": 54,
                    "go_leaves_per_cluster": 10, "annotations_per_entity": 10,
                    "role_structure": False},
            deep_terms=1500,
            options={"variants": ("HP",), "methods": ("walk",),
                     "operators": ("hadamard",),
                     "learners": ("random_forest", "cosine"),
                     "dimension": 32, "epochs": 1, "walks_per_node": 1},
            overrides={"grids": {"random_forest": {"n_trees": [5, 10],
                                                   "max_depth": [None, 6]}},
                       "grid_folds": 3},
        ),
    )
}
