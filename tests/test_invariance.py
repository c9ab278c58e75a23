"""Invariances of a whole run: the order of the input rows does not reach
any artifact, and the public library functions, chained by hand, give
the numbers the CLI writes.

Each CLI run is a fresh interpreter running every stage on one tiny
`PlantedCorpus`.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from corpus import PlantedCorpus, write_config
from gdapred import (
    KgeTrainConfig,
    PairPlan,
    build_kg,
    embed,
    filter_associations,
    ic_resnik,
    ic_seco,
    parse_associations,
    parse_gaf,
    parse_obo,
    sample_negatives,
    ssm_baseline,
    stratified_split,
)
from gdapred.artifacts import read_tsv
from gdapred.evaluation import LABEL_NAMES
from gdapred.kg import read_triples
from gdapred.ontology import (
    merge_annotation_maps,
    parse_disease_phenotype,
    parse_gene_phenotype,
    parse_mapping,
    prune_annotations,
    restrict_annotations,
)
from gdapred.pairing import build_pair_features, read_pair_features
from gdapred.pipeline import derive_seed
from gdapred.semsim import SSM_CONFIGS

VARIANTS = ("HP", "HP_GO_LD")
METHODS = ("walk", "distmult")
OPERATORS = ("hadamard", "concatenation")
SRC = Path(__file__).resolve().parent.parent / "src"
RUN_ALL = ("import sys\n"
           "from gdapred.cli import main\n"
           "from gdapred.pipeline import STAGES\n"
           "sys.exit(any(main([s, '--config', sys.argv[1]]) for s in STAGES))\n")


def run_cli(config: dict, tmp: Path) -> dict[str, bytes]:
    """Every stage of ``config`` in a fresh interpreter: the bytes of each
    artifact but the manifests and ``timings.json``, by relative path."""
    path = write_config(config, tmp / "config.json")
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", RUN_ALL, str(path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr[-2000:]
    out = Path(config["output_dir"])
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name not in ("manifest.json", "timings.json")}


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """The corpus, its config and the artifacts of one CLI run over it."""
    tmp = tmp_path_factory.mktemp("planted")
    corpus = PlantedCorpus(tmp / "data", n_clusters=3, n_genes=12, n_diseases=8,
                           leaves_per_branch=4, go_leaves_per_cluster=4,
                           annotations_per_entity=3, seed=3)
    config = corpus.config(
        tmp / "out", variants=VARIANTS, methods=METHODS, operators=OPERATORS,
        learners=("random_forest", "cosine"), dimension=8, epochs=2,
        walks_per_node=3, classifier_params={"random_forest": {"n_trees": 5}})
    return config, run_cli(config, tmp)


def shuffled_rows(text: str, rng: np.random.Generator) -> str:
    """``text`` with its data lines in random order. The leading comment
    lines stay in front, and so does the header of an association file."""
    lines = text.splitlines()
    head = 0
    while head < len(lines) and (lines[head][:1] in ("!", "#")
                                 or lines[head].startswith("gene_id\t")):
        head += 1
    body = lines[head:]
    return "\n".join(lines[:head] + [body[i] for i in rng.permutation(len(body))]) + "\n"


def shuffled_stanzas(text: str, rng: np.random.Generator) -> str:
    """An OBO file with its stanzas in random order, the header first."""
    header, *stanzas = text.split("\n[Term]\n")
    stanzas = [s.rstrip("\n") + "\n" for s in stanzas]
    return header + "".join("\n[Term]\n" + stanzas[i]
                            for i in rng.permutation(len(stanzas)))


def test_input_order_reaches_no_artifact(planted, tmp_path):
    """The same inputs with every file's data rows and both ontologies'
    stanzas shuffled give the same bytes in every artifact."""
    config, expected = planted
    rng = np.random.default_rng(8)
    inputs = {}
    for name, source in config["inputs"].items():
        text = Path(source).read_text(encoding="utf-8")
        path = tmp_path / Path(source).name
        path.write_text(shuffled_stanzas(text, rng) if name.endswith("_obo")
                        else shuffled_rows(text, rng), encoding="utf-8")
        assert path.read_text(encoding="utf-8") != text
        inputs[name] = str(path)
    found = run_cli({**config, "inputs": inputs,
                     "output_dir": str(tmp_path / "out")}, tmp_path)
    assert found.keys() == expected.keys()
    assert [name for name in expected if found[name] != expected[name]] == []


def test_library_chain_gives_the_cli_numbers(planted):
    """The dataset rows, SSM scores and pair features of the public
    functions chained by hand are those of the CLI's files, bit for bit."""
    config, _ = planted
    text = {name: Path(path).read_text(encoding="utf-8")
            for name, path in config["inputs"].items()}
    out = Path(config["output_dir"])
    seeds = config["seeds"]

    hp, go = parse_obo(text["hp_obo"]), parse_obo(text["go_obo"])
    gene_go = prune_annotations(parse_gaf(text["gaf"], parse_mapping(
        text["gene_accession_map"])), [go])
    gene_hp = prune_annotations(parse_gene_phenotype(text["gene_phenotype"]), [hp])
    disease_hp = prune_annotations(parse_disease_phenotype(
        text["disease_phenotype"], parse_mapping(text["disease_map"])), [hp])
    kept = filter_associations(parse_associations(text["associations"]),
                               set(config["excluded_sources"]),
                               gene_go, gene_hp, disease_hp)
    dataset = stratified_split(
        sample_negatives([(a.gene, a.disease) for a in kept], seeds["sampling"]),
        config["train_fraction"], seeds["split"])
    rows = list(read_tsv(out / "ingest" / "dataset.tsv"))
    assert rows[1:] == [[*ids, LABEL_NAMES[label], ("test", "train")[train]]
                        for ids, label, train in zip(dataset.id_pairs(),
                                                     dataset.labels.tolist(),
                                                     dataset.train.tolist())]

    genes, diseases = set(dataset.genes), set(dataset.diseases)
    gene_hp, gene_go = (restrict_annotations(m, genes) for m in (gene_hp, gene_go))
    disease_hp = restrict_annotations(disease_hp, diseases)
    kgs = {variant: build_kg(variant, hp, go, gene_hp=gene_hp, disease_hp=disease_hp,
                             gene_go=gene_go) for variant in VARIANTS}
    for variant, kg in kgs.items():
        assert read_triples(out / "kg" / f"kg_{variant}.tsv", variant).triples == kg.triples

    annotations = merge_annotation_maps(gene_hp, disease_hp)
    plan = PairPlan(dataset, kgs["HP"], annotations)
    assert plan.excluded == []
    tables = {"seco": ic_seco(kgs["HP"]),
              "resnik_corpus": ic_resnik(kgs["HP"], annotations)}
    ids = dataset.id_pairs()
    for ssm_config in SSM_CONFIGS:
        raw, normalized = ssm_baseline(plan, ssm_config, tables[ssm_config.ic_flavor])
        scored = list(read_tsv(out / "baseline" / f"scored_{ssm_config.name}.tsv"))
        assert [tuple(row[:2]) for row in scored[1:]] == [ids[i] for i in plan.rows]
        for column, scores in ((2, raw), (3, normalized)):
            assert np.array([float(row[column]) for row in scored[1:]]).tobytes() \
                == scores.tobytes(), (ssm_config.name, column)

    for variant, kg in kgs.items():
        for method in METHODS:
            seed = derive_seed(seeds["embedding"], f"{variant}/{method}")
            table = embed(kg, method, KgeTrainConfig(**config["embedding"], seed=seed))
            features = build_pair_features(dataset, table, OPERATORS)
            for operator, matrix in features.items():
                file_ids, file_matrix = read_pair_features(
                    out / "pair" / f"features_{variant}_{method}_{operator}.npy")
                assert file_ids == ids
                assert file_matrix.tobytes() == matrix.tobytes(), (variant, method)
