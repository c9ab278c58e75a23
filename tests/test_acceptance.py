"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria are property-based (oracle equivalence, gradient agreement,
dataset/metric contracts, planted-structure end-to-end, determinism);
the full-scale reproduction against pinned public downloads is optional
and driven by the GDAPRED_FULL_CONFIG environment variable.
"""

import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gdapred.evaluation import (
    sample_negatives,
    stratified_split,
    threshold_sweep,
    threshold_waf_table,
    roc_auc,
    waf,
)
from gdapred.kg import SUBCLASS_OF, VIRTUAL_ROOT, build_kg
from gdapred.ontology import AnnotationMap
from gdapred.pipeline import (
    PipelineConfig,
    cmd_build_kg,
    cmd_embed,
    cmd_evaluate,
    cmd_ingest,
    cmd_pair,
    cmd_train,
)
from gdapred.semsim import SSM_CONFIGS, ic_resnik, ic_seco

from corpus import PlantedCorpus, write_config
from helpers import (
    dataset_of,
    finite_difference,
    max_relative_error,
    mlp_gradient_error,
    negatives,
    oracle_reachable_up,
    pairs_of,
    random_hp_kg,
    score_grid,
)
from sgns_reference import sgns_loss
from triple_reference import distmult_logistic_loss, transe_margin_loss


def _oracle_closures(kg):
    """Fixpoint-relaxation reachability for every term, edges as a list."""
    edges = {(s, o) for s, rel, o in kg.triples if rel == SUBCLASS_OF}
    return {t: oracle_reachable_up(edges, t) for t in kg.term_nodes}


def _oracle_ic(kg, flavor, annotations, closures):
    if flavor == "seco":
        n = len(kg.term_nodes)
        descendants = {t: 0 for t in kg.term_nodes}
        for t, closure in closures.items():
            for anc in closure:
                if anc != t:
                    descendants[anc] += 1
        return {t: 1.0 - math.log(d + 1) / math.log(n)
                for t, d in descendants.items()}
    counts: dict[str, int] = {}
    for terms in annotations.entries.values():
        closure = set()
        for t in terms:
            closure |= closures[t]
        for t in closure:
            counts[t] = counts.get(t, 0) + 1
    n = len(annotations.entries)
    return {t: -math.log(c / n) for t, c in counts.items()}


def _oracle_groupwise(gene_terms, disease_terms, aggregation, ic, closures):
    if aggregation == "SIMGIC":
        anc_a = set().union(*(closures[t] for t in gene_terms))
        anc_b = set().union(*(closures[t] for t in disease_terms))
        inter = sum(ic[t] for t in anc_a & anc_b if t in ic)
        union = sum(ic[t] for t in anc_a | anc_b if t in ic)
        return inter / union if union > 0 else 0.0

    def pair(a, b):
        common = closures[a] & closures[b]
        return max((ic[t] for t in common if t in ic), default=0.0)

    best = {(a, b): pair(a, b) for a in gene_terms for b in disease_terms}
    if aggregation == "MAX":
        return max(best.values())
    row = [max(best[(a, b)] for b in disease_terms) for a in gene_terms]
    col = [max(best[(a, b)] for a in gene_terms) for b in disease_terms]
    return 0.5 * (sum(row) / len(row) + sum(col) / len(col))


def test_criterion_1_ssm_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    checked = 0
    for _ in range(100):
        n_terms = int(rng.integers(3, 41))
        n_genes = int(rng.integers(2, 6))
        n_diseases = int(rng.integers(2, 6))
        kg, _, gene_map, disease_map = random_hp_kg(
            rng, n_terms, n_genes, n_diseases, max_terms=8)
        corpus = AnnotationMap(entries={**gene_map.entries, **disease_map.entries})
        closures = _oracle_closures(kg)
        for config in SSM_CONFIGS:
            if config.ic_flavor == "seco":
                ic_table = ic_seco(kg)
            else:
                ic_table = ic_resnik(kg, corpus)
            oracle_ic = _oracle_ic(kg, config.ic_flavor, corpus, closures)
            # one ssm_baseline run over a dataset of every gene x disease pair
            gene_sets = list(gene_map.entries.values())
            disease_sets = list(disease_map.entries.values())
            grid = score_grid(gene_sets, disease_sets, config, kg, ic_table)
            for gene_terms, row in zip(gene_sets, grid):
                for disease_terms, got in zip(disease_sets, row):
                    want = _oracle_groupwise(gene_terms, disease_terms,
                                             config.aggregation, oracle_ic,
                                             closures)
                    assert abs(got - want) <= 1e-9
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 1 PASS: six SSM configs match the brute-force oracle "
          f"on 100 random DAGs ({checked} comparisons, {elapsed:.1f}s)")


def test_criterion_2_ic_sanity():
    rng = np.random.default_rng(20260810)
    for _ in range(30):
        n_terms = int(rng.integers(3, 41))
        kg, ont, gene_map, disease_map = random_hp_kg(rng, n_terms, 3, 3)
        ic = ic_seco(kg)
        root = next(iter(ont.roots))
        assert ic.values[root] == 0.0
        has_children = {p for _, rel, p in ont.edges if rel == "is_a"}
        for leaf in set(ont.terms) - has_children:
            assert ic.values[leaf] == 1.0
        for child, rel, parent in ont.edges:
            if rel == "is_a":
                assert ic.values[parent] <= ic.values[child]
        corpus = AnnotationMap(entries={**gene_map.entries, **disease_map.entries})
        resnik = ic_resnik(kg, corpus)
        assert resnik.values[root] == 0.0
    print("\nACCEPTANCE 2 PASS: ic_seco root=0/leaf=1 exactly, antitone along "
          "subClassOf, and corpus IC of the top term is 0 on every corpus")


def test_criterion_3_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)

    worst_transe = 0.0
    checked = 0
    while checked < 50:
        vecs = [rng.normal(size=8) for _ in range(6)]
        norm = "L1" if checked % 2 else "L2"
        loss, grads = transe_margin_loss(*vecs, margin=1.0, norm=norm)
        if loss <= 1e-3:
            continue
        for i in range(6):
            numeric = finite_difference(
                lambda: transe_margin_loss(*vecs, margin=1.0, norm=norm)[0],
                vecs[i])
            worst_transe = max(worst_transe, max_relative_error(grads[i], numeric))
        checked += 1
    assert worst_transe < 1e-4

    worst_distmult = 0.0
    for trial in range(50):
        h, r, t = (rng.normal(size=8) for _ in range(3))
        label = 1 if trial % 2 == 0 else -1
        _, grads = distmult_logistic_loss(h, r, t, label, 1e-3)
        for vec, grad in zip((h, r, t), grads):
            numeric = finite_difference(
                lambda: distmult_logistic_loss(h, r, t, label, 1e-3)[0], vec)
            worst_distmult = max(worst_distmult, max_relative_error(grad, numeric))
    assert worst_distmult < 1e-4

    worst_sgns = 0.0
    for _ in range(50):
        v = rng.normal(size=8)
        u = rng.normal(size=8)
        negs = rng.normal(size=(5, 8))
        _, (gv, gu, gn) = sgns_loss(v, u, negs)
        for vec, grad in ((v, gv), (u, gu), (negs, gn)):
            numeric = finite_difference(lambda: sgns_loss(v, u, negs)[0], vec)
            worst_sgns = max(worst_sgns, max_relative_error(grad, numeric))
    assert worst_sgns < 1e-4

    worst_mlp = max(mlp_gradient_error((2, 8, 1), seed=s) for s in range(50))
    assert worst_mlp < 1e-4

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: analytic gradients match central differences "
          f"(worst rel. err: transe {worst_transe:.2e}, distmult "
          f"{worst_distmult:.2e}, skip-gram {worst_sgns:.2e}, mlp "
          f"{worst_mlp:.2e}; {elapsed:.1f}s)")


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(20260812)
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        scores = np.round(rng.random(n), 2)
        auc, _ = roc_auc(y, scores)
        pos = scores[y == 1][:, None]
        neg = scores[y == 0][None, :]
        exhaustive = (np.sum(pos > neg) + 0.5 * np.sum(pos == neg)) \
            / (pos.shape[0] * neg.shape[1])
        assert abs(auc - exhaustive) <= 1e-12

    y_true = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    y_pred = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
    assert waf(y_true, y_pred) == 0.8

    table = threshold_waf_table([0.3, 0.7], [0, 1])
    assert len(table) == 101
    for _ in range(50):
        n = int(rng.integers(4, 60))
        y = rng.integers(0, 2, size=n)
        scores = rng.random(n)
        best_t, best_w = threshold_sweep(scores, y)
        full = threshold_waf_table(scores, y)
        assert best_w == max(w for _, w in full)
        assert best_t == min(t for t, w in full if w == best_w)
    print("\nACCEPTANCE 4 PASS: rank AUC equals exhaustive pair counting on "
          "1000 instances, WAF hand example is 0.8 exactly, and the sweep "
          "evaluates exactly 101 thresholds")


def test_criterion_5_dataset_contracts():
    rng = np.random.default_rng(20260813)
    trials = 0
    while trials < 1000:
        n_g = int(rng.integers(2, 9))
        n_d = int(rng.integers(2, 9))
        genes = [f"GENE:g{i}" for i in range(n_g)]
        diseases = [f"DISEASE:d{j}" for j in range(n_d)]
        all_pairs = [(g, d) for g in genes for d in diseases]
        n_pos = int(rng.integers(1, len(all_pairs)))
        chosen = rng.choice(len(all_pairs), size=n_pos, replace=False)
        positives = [all_pairs[int(i)] for i in chosen]
        pos_genes = {g for g, _ in positives}
        pos_diseases = {d for _, d in positives}
        if len(pos_genes) < 2 or len(pos_diseases) < 2:
            continue
        if len(pos_genes) * len(pos_diseases) - len(positives) < len(positives):
            continue
        ds = sample_negatives(positives, seed=trials)
        sampled = {(p.gene, p.disease) for p in negatives(ds)}
        assert len(sampled) == len(positives)
        assert not (sampled & set(positives))
        for g, d in sampled:
            assert g in pos_genes and d in pos_diseases
        trials += 1

    pairs = [(f"GENE:g{i}", f"DISEASE:d{i}", 1)
             for i in range(10)]
    pairs += [(f"GENE:g{100+i}", f"DISEASE:d{100+i}", 0)
              for i in range(10)]
    first = stratified_split(dataset_of(pairs), 0.7, seed=99)
    again = stratified_split(dataset_of(pairs), 0.7, seed=99)
    assert np.array_equal(first.train, again.train)
    train = pairs_of(first, first.partition_indices("train"))
    test = pairs_of(first, first.partition_indices("test"))
    assert sum(p.label for p in train) == 7 and len(train) == 14
    assert sum(p.label for p in test) == 3 and len(test) == 6
    print("\nACCEPTANCE 5 PASS: 1000 seeded negative-sampling trials stay "
          "balanced/disjoint/entity-closed; the 10+10 split is exactly 7/7 "
          "train and 3/3 test and seed-deterministic")


def _run_all_stages(config: PipelineConfig):
    cmd_ingest(config)
    cmd_build_kg(config)
    cmd_embed(config)
    cmd_pair(config)
    cmd_train(config)
    return cmd_evaluate(config)


def test_criterion_6_planted_structure_end_to_end(tmp_path):
    start = time.perf_counter()
    corpus = PlantedCorpus(tmp_path / "data", seed=0)  # ~367 nodes, 60+40 entities
    config_dict = corpus.config(tmp_path / "out", variants=("HP_GO_LD",),
                                methods=("walk",), operators=("hadamard",),
                                learners=("random_forest", "cosine"),
                                dimension=64)
    config = PipelineConfig.from_file(
        write_config(config_dict, tmp_path / "config.json"))
    details = _run_all_stages(config)
    forest = details["HP_GO_LD_walk_hadamard_random_forest"]
    cosine = details["HP_GO_LD_walk_hadamard_cosine"]
    elapsed = time.perf_counter() - start
    assert forest["auc"] >= 0.90
    assert forest["waf"] > cosine["waf"]
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 6 PASS: walk-embedding + Hadamard + random forest "
          f"reaches test AUC {forest['auc']:.3f} (>= 0.90) and WAF "
          f"{forest['waf']:.3f} beats the cosine mode "
          f"({cosine['waf']:.3f}) in {elapsed:.0f}s")


def test_criterion_7_kg_variant_contracts(tmp_path):
    corpus = PlantedCorpus(tmp_path / "data", n_clusters=3, n_genes=12,
                           n_diseases=9, leaves_per_branch=5,
                           go_leaves_per_cluster=5, annotations_per_entity=3,
                           seed=2)
    config_dict = corpus.config(tmp_path / "out",
                                variants=("HP", "HP_GO", "HP_GO_LD"),
                                dimension=8, epochs=1, walks_per_node=2)
    config = PipelineConfig.from_file(
        write_config(config_dict, tmp_path / "config.json"))
    cmd_ingest(config)
    from gdapred.pipeline import read_annotation_tsv
    ingest_dir = config.out() / "ingest"
    gene_hp, disease_hp, gene_go = (
        read_annotation_tsv(ingest_dir / f"annotations_{name}.tsv", kind)
        for name, kind in (("gene_hp", "gene"), ("disease_hp", "disease"),
                           ("gene_go", "gene")))
    from gdapred.ontology import parse_obo
    hp = parse_obo(Path(config.inputs["hp_obo"]).read_text())
    go = parse_obo(Path(config.inputs["go_obo"]).read_text())

    plain = build_kg("HP_GO", hp, go, gene_hp=gene_hp, disease_hp=disease_hp,
                     gene_go=gene_go)
    bridged = build_kg("HP_GO_LD", hp, go, gene_hp=gene_hp,
                       disease_hp=disease_hp, gene_go=gene_go)
    assert bridged.triples >= plain.triples

    # the joined graph holds every term of both ontologies, one virtual
    # root above their roots and every annotated entity
    root_triples = {t for t in plain.triples if VIRTUAL_ROOT in t}
    assert root_triples == {(root, SUBCLASS_OF, VIRTUAL_ROOT)
                            for root in hp.roots | go.roots}
    entities = {entity for amap in (gene_hp, disease_hp, gene_go)
                for entity, terms in amap.entries.items() if terms}
    assert plain.node_count == len(hp.terms) + len(go.terms) + 1 + len(entities)
    print("\nACCEPTANCE 7 PASS: LD-variant triples are a superset of the "
          "dual-ontology variant; the virtual root adds exactly one node "
          "and one triple per ontology root")


def test_criterion_8_determinism(tmp_path):
    corpus = PlantedCorpus(tmp_path / "data", n_clusters=3, n_genes=15,
                           n_diseases=9, leaves_per_branch=5,
                           go_leaves_per_cluster=5, annotations_per_entity=3,
                           seed=3)
    out_dir = tmp_path / "out"
    config_dict = corpus.config(out_dir, variants=("HP", "HP_GO"),
                                methods=("walk", "distmult"),
                                operators=("hadamard",),
                                learners=("random_forest", "cosine"),
                                dimension=12, epochs=2, walks_per_node=4)
    config_path = write_config(config_dict, tmp_path / "config.json")

    def run_and_snapshot():
        config = PipelineConfig.from_file(config_path)
        _run_all_stages(config)
        from gdapred.pipeline import cmd_baseline, cmd_report
        cmd_baseline(config)
        cmd_report(config)
        snapshot = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file() and path.name != "timings.json":
                snapshot[str(path.relative_to(out_dir))] = path.read_bytes()
        return snapshot

    first = run_and_snapshot()
    shutil.rmtree(out_dir)
    second = run_and_snapshot()
    assert first.keys() == second.keys()
    different = [name for name in first if first[name] != second[name]]
    assert different == []
    print(f"\nACCEPTANCE 8 PASS: two deterministic pipeline runs produced "
          f"byte-identical artifacts ({len(first)} files, manifests and "
          f"embeddings included)")


def test_criterion_8_across_string_hash_seeds(tmp_path):
    """Every stage of every embedding method, run by a fresh interpreter
    with PYTHONHASHSEED 0 and then by one with 1, into the same output
    path: no artifact may follow Python's string-hash order."""
    corpus = PlantedCorpus(tmp_path / "data", n_clusters=3, n_genes=12,
                           n_diseases=8, leaves_per_branch=4,
                           go_leaves_per_cluster=4, annotations_per_entity=3,
                           seed=4)
    out_dir = tmp_path / "out"
    config_path = write_config(corpus.config(
        out_dir, variants=("HP", "HP_GO_LD"),
        methods=("walk", "walk_lexical", "transe", "distmult"),
        operators=("hadamard",), learners=("random_forest", "cosine"),
        dimension=8, epochs=2, walks_per_node=3,
        classifier_params={"random_forest": {"n_trees": 5}}),
        tmp_path / "config.json")
    script = ("import sys\n"
              "from gdapred.cli import main\n"
              "from gdapred.pipeline import STAGES\n"
              "sys.exit(any(main([s, '--config', sys.argv[1]]) for s in STAGES))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")])}
    snapshots = []
    for hash_seed in ("0", "1"):
        shutil.rmtree(out_dir, ignore_errors=True)
        done = subprocess.run([sys.executable, "-c", script, str(config_path)],
                              env={**env, "PYTHONHASHSEED": hash_seed},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-2000:]
        snapshots.append({str(path.relative_to(out_dir)): path.read_bytes()
                          for path in sorted(out_dir.rglob("*"))
                          if path.is_file() and path.name != "timings.json"})
    first, second = snapshots
    assert first.keys() == second.keys()
    assert [name for name in first if first[name] != second[name]] == []
    print(f"\nACCEPTANCE 8 PASS: runs at PYTHONHASHSEED 0 and 1 produced "
          f"byte-identical artifacts ({len(first)} files)")


FULL_CONFIG = os.environ.get("GDAPRED_FULL_CONFIG")


@pytest.mark.skipif(FULL_CONFIG is None,
                    reason="set GDAPRED_FULL_CONFIG to a config pointing at "
                           "pinned full-scale downloads")
def test_criterion_9_full_scale_reproduction():
    config = PipelineConfig.from_file(FULL_CONFIG)
    counts = cmd_ingest(config)
    kg_details = cmd_build_kg(config)
    expected = {"genes": 2716, "diseases": 1807, "positive_pairs": 8189}
    deviations = {key: (counts[key], want) for key, want in expected.items()
                  if counts[key] != want}
    ld_added = next((row.get("ld_pairs_added") for row in kg_details.values()
                     if "ld_pairs_added" in row), None)
    print(f"\nACCEPTANCE 9 (optional) ingest counts: {counts}; "
          f"expected vicinity {expected}; deviations: {deviations or 'none'}; "
          f"LD bridges found: {ld_added} (~351 expected)")
