"""Synthetic two-ontology corpus with planted association structure.

Entities belong to clusters; each cluster's phenotype subtree has two
branches. Genes and diseases are annotated inside their (cluster, role)
branch, and true pairs share a cluster. With ``role_structure`` the true
pairs additionally require *opposite* roles, a pattern a single
similarity threshold cannot express but a classifier over combined
vectors can.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GAF_TAIL = "\tP\tname\tsyn\tprotein\ttaxon:9606\t20200811\tSYN\t\t"


class PlantedCorpus:
    def __init__(self, root: Path, n_clusters=4, n_genes=60, n_diseases=40,
                 leaves_per_branch=20, go_leaves_per_cluster=22,
                 annotations_per_entity=5, role_structure=True, seed=0):
        self.root = Path(root)
        self.n_clusters = n_clusters
        self.n_genes = n_genes
        self.n_diseases = n_diseases
        self.role_structure = role_structure
        self.rng = np.random.default_rng(seed)

        self.hp_root = "HP:0000001"
        self.go_root = "GO:0000001"
        self.hp_branch_leaves: dict[tuple[int, int], list[str]] = {}
        self.go_cluster_leaves: dict[int, list[str]] = {}
        self.hp_heads: dict[int, str] = {}
        self.go_heads: dict[int, str] = {}
        self._build_ontologies(leaves_per_branch, go_leaves_per_cluster)

        self.gene_cluster = {i: i % n_clusters for i in range(n_genes)}
        self.gene_role = {i: (i // n_clusters) % 2 for i in range(n_genes)}
        self.disease_cluster = {j: j % n_clusters for j in range(n_diseases)}
        self.disease_role = {j: (j // n_clusters) % 2 for j in range(n_diseases)}
        self.k_annotations = annotations_per_entity

        self.gene_ids = {i: str(1000 + i) for i in range(n_genes)}
        self.disease_ids = {j: f"C{j:07d}" for j in range(n_diseases)}
        self.positives = self._plant_positives()

    # -- ontology construction -------------------------------------------

    def _build_ontologies(self, leaves_per_branch, go_leaves_per_cluster):
        counter = 2
        self.hp_terms: dict[str, dict] = {
            self.hp_root: {"name": "phenotype root", "parents": [], "ld": []}}
        for c in range(self.n_clusters):
            head = f"HP:{counter:07d}"
            counter += 1
            self.hp_terms[head] = {"name": f"cluster {c} phenotype",
                                   "parents": [self.hp_root], "ld": []}
            self.hp_heads[c] = head
            for role in (0, 1):
                branch = f"HP:{counter:07d}"
                counter += 1
                self.hp_terms[branch] = {
                    "name": f"cluster {c} branch {role} phenotype",
                    "parents": [head], "ld": []}
                leaves = []
                for k in range(leaves_per_branch):
                    leaf = f"HP:{counter:07d}"
                    counter += 1
                    self.hp_terms[leaf] = {
                        "name": f"cluster {c} branch {role} sign {k}",
                        "parents": [branch], "ld": []}
                    leaves.append(leaf)
                self.hp_branch_leaves[(c, role)] = leaves

        counter = 2
        self.go_terms: dict[str, dict] = {
            self.go_root: {"name": "process root", "parents": [], "ld": []}}
        for c in range(self.n_clusters):
            head = f"GO:{counter:07d}"
            counter += 1
            self.go_terms[head] = {"name": f"cluster {c} process",
                                   "parents": [self.go_root], "ld": []}
            self.go_heads[c] = head
            leaves = []
            for k in range(go_leaves_per_cluster):
                leaf = f"GO:{counter:07d}"
                counter += 1
                self.go_terms[leaf] = {"name": f"cluster {c} step {k}",
                                       "parents": [head], "ld": []}
                leaves.append(leaf)
            self.go_cluster_leaves[c] = leaves

        # logical-definition bridges between matching cluster heads
        for c in range(self.n_clusters):
            self.hp_terms[self.hp_heads[c]]["ld"] = [self.go_heads[c]]

    def _plant_positives(self) -> list[tuple[str, str]]:
        pairs = []
        for i in range(self.n_genes):
            for j in range(self.n_diseases):
                if self.gene_cluster[i] != self.disease_cluster[j]:
                    continue
                if self.role_structure and self.gene_role[i] == self.disease_role[j]:
                    continue
                pairs.append((self.gene_ids[i], self.disease_ids[j]))
        return pairs

    def _sample(self, population: list[str]) -> list[str]:
        k = min(self.k_annotations, len(population))
        idx = self.rng.choice(len(population), size=k, replace=False)
        return [population[int(i)] for i in idx]

    # -- file emission ----------------------------------------------------

    def _obo_text(self, terms: dict[str, dict]) -> str:
        out = ["format-version: 1.2", ""]
        for tid in sorted(terms):
            rec = terms[tid]
            out.append("[Term]")
            out.append(f"id: {tid}")
            out.append(f"name: {rec['name']}")
            for parent in rec["parents"]:
                out.append(f"is_a: {parent}")
            for target in rec["ld"]:
                out.append(f"intersection_of: {target}")
            out.append("")
        return "\n".join(out)

    def write(self) -> dict:
        """Emit all input files plus a ready-to-run configuration dict."""
        self.root.mkdir(parents=True, exist_ok=True)
        paths = {name: self.root / fname for name, fname in (
            ("hp_obo", "hp.obo"), ("go_obo", "go.obo"),
            ("gaf", "annotations.gaf"),
            ("gene_accession_map", "accession_map.tsv"),
            ("gene_phenotype", "gene_phenotype.tsv"),
            ("disease_phenotype", "disease_phenotype.tsv"),
            ("disease_map", "disease_map.tsv"),
            ("associations", "associations.tsv"))}

        paths["hp_obo"].write_text(self._obo_text(self.hp_terms))
        paths["go_obo"].write_text(self._obo_text(self.go_terms))

        gaf_rows, accession_rows = [], []
        gene_pheno_rows = []
        for i in range(self.n_genes):
            accession = f"P{i:05d}"
            accession_rows.append(f"{accession}\t{self.gene_ids[i]}")
            for term in self._sample(self.go_cluster_leaves[self.gene_cluster[i]]):
                gaf_rows.append(
                    f"SYN\t{accession}\tG{i}\t\t{term}\tREF:1\tEXP" + GAF_TAIL)
            branch = (self.gene_cluster[i], self.gene_role[i])
            for term in self._sample(self.hp_branch_leaves[branch]):
                gene_pheno_rows.append(f"{self.gene_ids[i]}\tG{i}\t{term}\tsign")
        paths["gaf"].write_text("!gaf-version: 2.2\n" + "\n".join(gaf_rows) + "\n")
        paths["gene_accession_map"].write_text("\n".join(accession_rows) + "\n")
        paths["gene_phenotype"].write_text("\n".join(gene_pheno_rows) + "\n")

        disease_rows, disease_map_rows = [], []
        for j in range(self.n_diseases):
            external = f"OMIM:{600000 + j}"
            disease_map_rows.append(f"{external}\t{self.disease_ids[j]}")
            branch = (self.disease_cluster[j], self.disease_role[j])
            for term in self._sample(self.hp_branch_leaves[branch]):
                disease_rows.append(f"{external}\tdisease {j}\t\t{term}\tREF:1\tTAS")
        paths["disease_phenotype"].write_text(
            "#DatabaseID\tDiseaseName\tQualifier\tHPO_ID\tReference\tEvidence\n"
            + "\n".join(disease_rows) + "\n")
        paths["disease_map"].write_text("\n".join(disease_map_rows) + "\n")

        assoc_rows = ["gene_id\tdisease_id\tsource"]
        for gene_id, disease_id in self.positives:
            assoc_rows.append(f"{gene_id}\t{disease_id}\tCURATED")
        # decoys the source/annotation filters must drop
        assoc_rows.append(f"{self.gene_ids[0]}\t{self.disease_ids[1]}\tUNIPROT")
        assoc_rows.append(f"99999\t{self.disease_ids[0]}\tCURATED")
        paths["associations"].write_text("\n".join(assoc_rows) + "\n")

        return {name: str(path) for name, path in paths.items()}

    def config(self, out_dir, *, variants=("HP_GO_LD",), methods=("walk",),
               operators=("hadamard",), learners=("random_forest", "cosine"),
               dimension=64, epochs=3, walks_per_node=10, window=4,
               classifier_params=None, ssm_measures=None, seeds=None) -> dict:
        inputs = self.write()
        config = {
            "inputs": inputs,
            "excluded_sources": ["UNIPROT", "OMIM", "ORPHANET"],
            "kg_variants": list(variants),
            "methods": list(methods),
            "operators": list(operators),
            "learners": list(learners),
            "embedding": {
                "dimension": dimension, "epochs": epochs,
                "learning_rate": 0.025, "negatives_per_positive": 5,
                "walks_per_node": walks_per_node, "walk_depth": 4,
                "window": window, "batch_size": 128,
            },
            "classifier_params": classifier_params or {
                "random_forest": {"n_trees": 50}},
            "seeds": seeds or {"sampling": 11, "split": 12,
                               "embedding": 13, "training": 14},
            "train_fraction": 0.7,
            "output_dir": str(out_dir),
        }
        if ssm_measures is not None:
            config["ssm_measures"] = list(ssm_measures)
        return config


def write_config(config: dict, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    return path
