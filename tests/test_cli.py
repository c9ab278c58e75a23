"""Pipeline staging and CLI surface, on a small planted corpus."""

import contextlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gdapred.artifacts import decode_array, encode_array, read_matrix, write_matrix
from gdapred.cli import build_parser, main
from gdapred.errors import (
    ConfigurationError,
    IntegrityError,
    ParseError,
    StageDependencyError,
)
from gdapred.learn import CLASSIFIER_KINDS
from gdapred.pipeline import (
    STAGE_FUNCTIONS,
    STAGES,
    PipelineConfig,
    cmd_ingest,
    derive_seed,
)

from corpus import GAF_TAIL, PlantedCorpus, write_config


def small_corpus(root: Path, **overrides) -> PlantedCorpus:
    params = dict(n_clusters=3, n_genes=18, n_diseases=12, leaves_per_branch=6,
                  go_leaves_per_cluster=6, annotations_per_entity=4, seed=1)
    params.update(overrides)
    return PlantedCorpus(root, **params)


def small_config(corpus: PlantedCorpus, out_dir, **overrides) -> dict:
    config = corpus.config(
        out_dir, variants=("HP", "HP_GO"), methods=("walk", "walk_lexical"),
        operators=("hadamard", "average"),
        learners=("random_forest", "cosine"),
        dimension=16, epochs=2, walks_per_node=6, window=3,
        classifier_params={"random_forest": {"n_trees": 10}})
    config.update(overrides)
    return config


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full CLI run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("cli_run")
    corpus = small_corpus(root / "data")
    out_dir = root / "out"
    config_path = write_config(small_config(corpus, out_dir), root / "config.json")
    for stage in ("ingest", "build-kg", "baseline", "embed", "pair",
                  "train", "evaluate", "report"):
        assert main([stage, "--config", str(config_path)]) == 0
    return out_dir, config_path, corpus


class TestStages:
    def test_ingest_outputs(self, pipeline_run):
        out_dir, _, _ = pipeline_run
        dataset = (out_dir / "ingest" / "dataset.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in dataset[1:]]
        labels = [r[2] for r in rows]
        assert labels.count("positive") == labels.count("negative")
        partitions = {r[3] for r in rows}
        assert partitions == {"train", "test"}
        manifest = json.loads((out_dir / "ingest" / "manifest.json").read_text())
        assert manifest["details"]["genes"] == 18
        assert manifest["details"]["diseases"] == 12

    def test_source_and_annotation_filters_applied(self, pipeline_run):
        out_dir, _, corpus = pipeline_run
        positives = (out_dir / "ingest" / "positives.tsv").read_text()
        assert "99999" not in positives  # gene without annotations
        assert len(positives.splitlines()) - 1 == len(corpus.positives)

    def test_kg_variants_written(self, pipeline_run):
        out_dir, _, _ = pipeline_run
        assert (out_dir / "kg" / "kg_HP.tsv").exists()
        assert (out_dir / "kg" / "kg_HP_GO.tsv").exists()
        hp = (out_dir / "kg" / "kg_HP.tsv").read_text()
        assert "GO:" not in hp
        assert "VR:ROOT" in (out_dir / "kg" / "kg_HP_GO.tsv").read_text()

    def test_baseline_emits_six_measure_columns(self, pipeline_run):
        out_dir, _, _ = pipeline_run
        summary = json.loads((out_dir / "baseline" / "baseline.json").read_text())
        assert len(summary["measures"]) == 6
        assert summary["best"] in summary["measures"]
        table = (out_dir / "baseline" / "baseline.tsv").read_text().splitlines()
        header = table[0].split("\t")
        assert len(header) == 7  # metric label + one column per measure
        waf_row = table[1].split("\t")
        assert waf_row[0] == "waf"
        assert sum(cell.endswith("*") for cell in waf_row[1:]) == 1

    def test_grid_cell_count(self, pipeline_run):
        out_dir, _, _ = pipeline_run
        reports = list((out_dir / "evaluate").glob("eval_*.json"))
        assert len(reports) == 2 * 2 * 2 * 2  # variants x methods x operators x learners

    def test_cosine_cells_emit_threshold_and_waf(self, pipeline_run):
        out_dir, _, _ = pipeline_run
        for path in (out_dir / "evaluate").glob("eval_*cosine.json"):
            report = json.loads(path.read_text())
            assert report["threshold"] is not None
            assert 0.0 <= report["waf"] <= 1.0

    def test_roc_tsv_loadable(self, pipeline_run):
        out_dir, _, _ = pipeline_run
        roc_files = list((out_dir / "evaluate").glob("roc_*.tsv"))
        assert roc_files
        for path in roc_files:
            lines = path.read_text().splitlines()
            assert lines[0] == "threshold\tfpr\ttpr"
            for line in lines[1:]:
                threshold, fpr, tpr = line.split("\t")
                assert float(threshold) >= 0.0 or threshold == "inf"
                assert 0.0 <= float(fpr) <= 1.0
                assert 0.0 <= float(tpr) <= 1.0

    def test_report_ranking_and_improvement(self, pipeline_run):
        out_dir, _, _ = pipeline_run
        report = json.loads((out_dir / "report" / "report.json").read_text())
        rows = report["ranking"]
        assert len(rows) == 6 + 16  # baseline measures + grid cells
        wafs = [r["waf"] for r in rows]
        assert wafs == sorted(wafs, reverse=True)
        best = report["best_baseline_waf"]
        for row in rows:
            assert row["improvement_over_best_baseline"] == pytest.approx(
                (row["waf"] - best) / best)
        ties = [r for r in rows if wafs.count(r["waf"]) > 1]
        if ties:  # ties must be name-ordered
            by_value = {}
            for r in rows:
                by_value.setdefault(r["waf"], []).append(r["name"])
            for names in by_value.values():
                assert names == sorted(names)

    def test_embed_manifest_records_loss_history(self, pipeline_run):
        out_dir, config_path, _ = pipeline_run
        config = json.loads(config_path.read_text())
        details = json.loads(
            (out_dir / "embed" / "manifest.json").read_text())["details"]
        assert sorted(details) == sorted(
            f"{v}/{m}" for v in config["kg_variants"] for m in config["methods"])
        for cell in details.values():
            history = cell["loss_history"]
            assert len(history) == config["embedding"]["epochs"]
            assert all(math.isfinite(x) and x > 0 for x in history)

    def test_timings_list_each_stage_cells(self, pipeline_run):
        out_dir, _, _ = pipeline_run

        def details(stage):
            return json.loads((out_dir / stage / "manifest.json").read_text())["details"]

        measures = set(details("baseline")["measures"])
        # each IC flavour's table is built once, before its measures
        ic_cells = {"ic_" + m.split("_", 1)[1] for m in measures}
        expected = {"ingest": set(), "kg": set(), "report": set(),
                    "baseline": measures | ic_cells}
        for stage in ("embed", "pair", "train", "evaluate"):
            expected[stage] = set(details(stage))
        for stage, cells in expected.items():
            timings = json.loads((out_dir / stage / "timings.json").read_text())
            assert set(timings["cells"]) == cells, stage
            assert all(0.0 <= s <= timings["seconds"]
                       for s in timings["cells"].values())
        # 2 variants x 2 methods x 2 operators x 2 learners
        assert len(expected["evaluate"]) == 16

    def test_manifests_list_every_output(self, pipeline_run):
        out_dir, config_path, _ = pipeline_run
        config = json.loads(config_path.read_text())
        cells = [f"{v}_{m}" for v in config["kg_variants"] for m in config["methods"]]
        cells_op = [f"{c}_{op}" for c in cells for op in config["operators"]]
        dataset = {"ingest/dataset.tsv"}
        hp_annotations = {"ingest/annotations_gene_hp.tsv",
                          "ingest/annotations_disease_hp.tsv"}
        ontologies = {config["inputs"]["hp_obo"], config["inputs"]["go_obo"]}
        embeddings = {f"embed/embeddings_{c}.npy" for c in cells}
        features = {f"pair/features_{c}.npy" for c in cells_op}
        models = {f"train/model_{c}_random_forest.json" for c in cells_op}
        # exactly the files each stage read
        read = {
            "ingest": set(config["inputs"].values()),
            "kg": hp_annotations | {"ingest/annotations_gene_go.tsv"} | ontologies,
            "baseline": dataset | hp_annotations | {"kg/kg_HP.tsv"},
            "embed": {f"kg/kg_{v}.tsv" for v in config["kg_variants"]} | ontologies,
            "pair": dataset | embeddings,
            "train": dataset | features,
            "evaluate": dataset | features | embeddings | models,
            "report": {"baseline/baseline.json", "evaluate/manifest.json"},
        }
        for stage, inputs in read.items():
            manifest = json.loads((out_dir / stage / "manifest.json").read_text())
            produced = {p.name for p in (out_dir / stage).iterdir()}
            produced -= {"manifest.json", "timings.json"}
            assert set(manifest["outputs"]) == produced
            # configured inputs are absolute paths, which the join keeps
            assert set(manifest["inputs"]) == {str(out_dir / p) for p in inputs}


class TestDeterminismAndIsolation:
    def test_ingest_rerun_byte_identical(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        blobs = []
        for name in ("out_a", "out_b"):
            config_path = write_config(
                small_config(corpus, tmp_path / name), tmp_path / f"{name}.json")
            assert main(["ingest", "--config", str(config_path)]) == 0
            blobs.append((tmp_path / name / "ingest" / "dataset.tsv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_ingest_refuses_to_resample(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config = PipelineConfig.from_file(write_config(
            small_config(corpus, tmp_path / "out"), tmp_path / "config.json"))
        cmd_ingest(config)
        with pytest.raises(ConfigurationError, match="remove"):
            cmd_ingest(config)

    def test_downstream_deletion_never_changes_upstream(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out",
                         kg_variants=["HP"], operators=["hadamard"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair", "train", "evaluate"):
            assert main([stage, "--config", str(config_path)]) == 0
        ingest_dir = tmp_path / "out" / "ingest"
        before = {p.name: p.read_bytes() for p in ingest_dir.iterdir()
                  if p.name != "timings.json"}
        shutil.rmtree(tmp_path / "out" / "evaluate")
        shutil.rmtree(tmp_path / "out" / "train")
        for stage in ("train", "evaluate"):
            assert main([stage, "--config", str(config_path)]) == 0
        after = {p.name: p.read_bytes() for p in ingest_dir.iterdir()
                 if p.name != "timings.json"}
        assert before == after


class TestIngestCounters:
    def test_parse_and_prune_counters_in_manifest(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config = small_config(corpus, tmp_path / "out")
        inputs = {name: Path(path) for name, path in config["inputs"].items()}
        with open(inputs["gaf"], "a", encoding="utf-8") as fh:
            term = corpus.go_cluster_leaves[0][0]
            fh.write(f"SYN\tP00000\tG0\tNOT\t{term}\tREF:1\tEXP{GAF_TAIL}\n")
            fh.write(f"SYN\tQ99999\tGX\t\t{term}\tREF:1\tEXP{GAF_TAIL}\n")
        with open(inputs["hp_obo"], "a", encoding="utf-8") as fh:
            fh.write("\n[Term]\nid: HP:9999999\nname: old\nis_obsolete: true\n")
        with open(inputs["gene_phenotype"], "a", encoding="utf-8") as fh:
            fh.write(f"{corpus.gene_ids[0]}\tG0\tHP:9999999\tsign\n")
        config_path = write_config(config, tmp_path / "config.json")
        assert main(["ingest", "--config", str(config_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "ingest" / "manifest.json").read_text())
        counters = manifest["details"]["counters"]
        assert sorted(counters) == ["disease_phenotype", "gaf", "gene_phenotype",
                                    "go_obo", "hp_obo"]
        assert counters["hp_obo"] == {"obsolete_terms": 1, "dropped_edges": 0}
        assert counters["go_obo"] == {"obsolete_terms": 0, "dropped_edges": 0}
        gaf = counters["gaf"]
        assert (gaf["rows_skipped_not"], gaf["rows_skipped_unmapped"]) == (1, 1)
        assert gaf["rows_used"] == sum(
            1 for line in inputs["gaf"].read_text().splitlines()
            if line.startswith("SYN\t")) - 2
        pheno = counters["gene_phenotype"]
        assert (pheno["dropped_obsolete"], pheno["dropped_unknown"],
                pheno["dropped_entities"]) == (1, 0, 0)
        assert counters["disease_phenotype"]["rows_skipped_not"] == 0


class TestEveryMethodAndGridSearch:
    def test_all_methods_learners_and_grid(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config = small_config(
            corpus, tmp_path / "out",
            kg_variants=["HP"],
            methods=["transe", "distmult", "walk", "walk_lexical"],
            operators=["hadamard"],
            learners=["random_forest", "gaussian_nb", "mlp", "cosine"],
            grids={"random_forest": {"n_trees": [5, 10]}},
            grid_folds=2,
            classifier_params={"mlp": {"hidden_layers": [8], "epochs": 30,
                                       "learning_rate": 0.05}})
        config_path = write_config(config, tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair", "train",
                      "evaluate"):
            assert main([stage, "--config", str(config_path)]) == 0
        train_manifest = json.loads(
            (tmp_path / "out" / "train" / "manifest.json").read_text())
        forest_cells = [d for name, d in train_manifest["details"].items()
                        if name.endswith("random_forest")]
        assert forest_cells
        for cell in forest_cells:
            assert cell["best_params"]["n_trees"] in (5, 10)
        reports = list((tmp_path / "out" / "evaluate").glob("eval_*.json"))
        assert len(reports) == 1 * 4 * 1 * 4
        for path in reports:
            report = json.loads(path.read_text())
            assert 0.0 <= report["waf"] <= 1.0
            assert 0.0 <= report["auc"] <= 1.0


class TestBaselineStage:
    def test_planted_shared_ancestry_scores_high(self, tmp_path):
        # positives share their cluster's annotation subtree, so similarity
        # alone separates them
        corpus = PlantedCorpus(tmp_path / "data", n_clusters=4, n_genes=24,
                               n_diseases=16, leaves_per_branch=8,
                               go_leaves_per_cluster=8, role_structure=False,
                               seed=5)
        config_path = write_config(
            corpus.config(tmp_path / "out", variants=("HP",)),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "baseline"):
            assert main([stage, "--config", str(config_path)]) == 0
        summary = json.loads(
            (tmp_path / "out" / "baseline" / "baseline.json").read_text())
        best_waf = max(row["waf"] for row in summary["measures"].values())
        assert best_waf > 0.9

    def test_unannotated_dataset_gene_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg"):
            assert main([stage, "--config", str(config_path)]) == 0
        # a dataset row whose gene has no HP annotation
        dataset_path = tmp_path / "out" / "ingest" / "dataset.tsv"
        lines = dataset_path.read_text().splitlines()
        lines.append("\t".join(["ghost", *lines[1].split("\t")[1:]]))
        dataset_path.write_text("\n".join(lines) + "\n")
        assert main(["baseline", "--config", str(config_path)]) == 1
        assert ("baseline cannot score the persisted dataset: entities without "
                "annotations: GENE:ghost") in caplog.text
        assert not list((tmp_path / "out").rglob("scored_*.tsv"))

    def test_baseline_only_report(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "baseline", "report"):
            assert main([stage, "--config", str(config_path)]) == 0
        report = json.loads(
            (tmp_path / "out" / "report" / "report.json").read_text())
        assert len(report["ranking"]) == 6
        assert all(row["name"].startswith("baseline/")
                   for row in report["ranking"])


class TestCliSurface:
    def test_first_call_freezes_the_startup_objects_once(self, tmp_path, monkeypatch):
        import gdapred.cli as cli
        frozen = []
        monkeypatch.setattr(cli, "_frozen", False)
        monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
        missing = str(tmp_path / "missing.json")
        assert main(["ingest", "--config", missing]) == 1
        assert main(["ingest", "--config", missing]) == 1
        assert frozen == [True]

    def test_missing_artifact_names_stage(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config = PipelineConfig.from_file(write_config(
            small_config(corpus, tmp_path / "out"), tmp_path / "config.json"))
        with pytest.raises(StageDependencyError, match="ingest"):
            from gdapred.pipeline import cmd_build_kg
            cmd_build_kg(config)

    def test_cli_error_exit_code(self, tmp_path, capsys):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out"), tmp_path / "config.json")
        assert main(["evaluate", "--config", str(config_path)]) == 1

    def test_cosine_cell_missing_vector_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"],
                         methods=["walk"], operators=["hadamard"],
                         learners=["cosine"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair"):
            assert main([stage, "--config", str(config_path)]) == 0
        gene = "GENE:" + (tmp_path / "out" / "ingest" / "dataset.tsv") \
            .read_text().splitlines()[1].split("\t")[0]
        emb_path = tmp_path / "out" / "embed" / "embeddings_HP_walk.npy"
        nodes, matrix = read_matrix(emb_path)
        kept = [i for i, node in enumerate(nodes) if node != gene]
        assert len(kept) == len(nodes) - 1
        write_matrix(emb_path, [nodes[i] for i in kept], matrix[kept])
        assert main(["evaluate", "--config", str(config_path)]) == 1
        assert gene in caplog.text

    def test_gene_id_with_a_space_runs_end_to_end(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        corpus.gene_ids[0] = "HLA A"
        corpus.positives = corpus._plant_positives()
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"],
                         methods=["walk"], operators=["hadamard"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair", "train", "evaluate"):
            assert main([stage, "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert "HLA A\t" in (out / "ingest" / "dataset.tsv").read_text()
        nodes, _ = read_matrix(out / "embed" / "embeddings_HP_walk.npy")
        assert "GENE:HLA A" in nodes
        pairs, _ = read_matrix(out / "pair" / "features_HP_walk_hadamard.npy", cells=2)
        assert any(gene == "HLA A" for gene, _ in pairs)
        assert len(list((out / "evaluate").glob("eval_*.json"))) == 2

    def test_truncated_matrix_files_exit_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"],
                         methods=["walk"], operators=["hadamard"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair"):
            assert main([stage, "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        for damaged, stages in (("embed/embeddings_HP_walk.npy", ("pair", "evaluate")),
                                ("pair/features_HP_walk_hadamard.npy", ("train",))):
            path = out / damaged
            intact = path.read_bytes()
            path.write_bytes(intact[:len(intact) // 2])
            for stage in stages:
                caplog.clear()
                assert main([stage, "--config", str(config_path)]) == 1
                assert f"{path}: not a matrix file" in caplog.text
                with pytest.raises(IntegrityError, match=re.escape(f"{path}: ")):
                    STAGE_FUNCTIONS[stage](PipelineConfig.from_file(config_path))
            path.write_bytes(intact)

    def test_damaged_kg_row_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg"):
            assert main([stage, "--config", str(config_path)]) == 0
        kg_path = tmp_path / "out" / "kg" / "kg_HP.tsv"
        lines = kg_path.read_text().splitlines()
        lines[4] = "\t".join(lines[4].split("\t")[:2])  # one cell short
        kg_path.write_text("\n".join(lines) + "\n")
        assert main(["baseline", "--config", str(config_path)]) == 1
        assert f"{kg_path}, line 5: expected 3 cells, found 2" in caplog.text

    def test_empty_kg_cell_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"],
                         methods=["walk"], learners=["cosine"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg"):
            assert main([stage, "--config", str(config_path)]) == 0
        kg_path = tmp_path / "out" / "kg" / "kg_HP.tsv"
        lines = kg_path.read_text().splitlines()
        kg_path.write_text("\n".join([*lines, "HP:0000001\tsubClassOf\t"]) + "\n")
        for stage in ("baseline", "embed"):
            caplog.clear()
            assert main([stage, "--config", str(config_path)]) == 1
            assert f"{kg_path}, line {len(lines) + 1}: a cell is empty" in caplog.text

    def test_damaged_dataset_row_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"]),
            tmp_path / "config.json")
        assert main(["ingest", "--config", str(config_path)]) == 0
        dataset_path = tmp_path / "out" / "ingest" / "dataset.tsv"
        lines = dataset_path.read_text().splitlines()
        lines[2] = lines[2].replace("\tpositive\t", "\tpositve\t")
        dataset_path.write_text("\n".join(lines) + "\n")
        assert main(["train", "--config", str(config_path)]) == 1
        assert f"{dataset_path}, line 3: unknown label 'positve'" in caplog.text

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_embedding_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config = small_config(corpus, tmp_path / "out", kg_variants=["HP"],
                              methods=["walk"], learners=["cosine"])
        config["embedding"]["learning_rate"] = 1.0
        config_path = write_config(config, tmp_path / "config.json")
        for stage in ("ingest", "build-kg"):
            assert main([stage, "--config", str(config_path)]) == 0
        assert main(["embed", "--config", str(config_path)]) == 1
        assert "non-finite" in caplog.text

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_mlp_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config = small_config(
            corpus, tmp_path / "out", kg_variants=["HP"], methods=["walk"],
            operators=["hadamard"], learners=["mlp"],
            classifier_params={"mlp": {"learning_rate": 1e300, "epochs": 5}})
        config_path = write_config(config, tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair"):
            assert main([stage, "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path)]) == 1
        assert "non-finite" in caplog.text
        assert not list((tmp_path / "out" / "train").glob("model_*.json"))

    def test_empty_association_gene_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config = small_config(corpus, tmp_path / "out", kg_variants=["HP"])
        config_path = write_config(config, tmp_path / "config.json")
        path = Path(config["inputs"]["associations"])
        lines = path.read_text().splitlines()
        lines[3] = "\t" + lines[3].split("\t", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert f"{path}: line 4: empty 'gene_id' cell" in caplog.text
        assert not (tmp_path / "out" / "ingest" / "dataset.tsv").exists()

    def test_bad_forest_hyperparameter_exits_1(self, tmp_path, caplog):
        # checked when the config loads, so the first stage already fails
        corpus = small_corpus(tmp_path / "data")
        config = small_config(
            corpus, tmp_path / "out", kg_variants=["HP"], methods=["walk"],
            operators=["hadamard"], learners=["random_forest"],
            classifier_params={"random_forest": {"n_trees": 0}})
        config_path = write_config(config, tmp_path / "config.json")
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert "n_trees must be an integer of at least 1" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, match", [
        ("classifier_params", {"mlp": {"batch_size": 0}},
         r"classifier_params\.mlp: mlp batch_size must be an integer"),
        ("classifier_params", {"gaussian_nb": {"var_smoothing": math.nan}},
         r"classifier_params\.gaussian_nb: gaussian_nb var_smoothing must be "
         r"non-negative and finite, got nan"),
        ("classifier_params", {"mlp": {"learning_rate": -1}},
         r"classifier_params\.mlp: mlp learning_rate must be positive"),
        ("grids", {"random_forest": {"n_trees": [0, 5]}},
         r"grids\.random_forest: random_forest n_trees must be an integer "
         r"of at least 1, got 0"),
        ("grids", {"mlp": {"hidden_layers": [[4], [4, 0]]}},
         r"grids\.mlp: mlp hidden_layers\[1\] must be"),
    ], ids=["mlp-batch", "nb-nan", "mlp-rate", "forest-grid", "mlp-grid"])
    def test_bad_classifier_values_exit_1_at_load(self, tmp_path, caplog, key,
                                                  value, match):
        corpus = small_corpus(tmp_path / "data")
        config = small_config(corpus, tmp_path / "out",
                              learners=["random_forest", "gaussian_nb", "mlp"])
        config_path = write_config({**config, key: value},
                                   tmp_path / "config.json")
        with pytest.raises(ConfigurationError, match=match):
            PipelineConfig.from_file(config_path)
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert re.search(match, caplog.text)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, match", [
        ("train_fraction", "0.7", r"train_fraction must be in \(0, 1\), got '0\.7'"),
        ("grid_folds", 2.5, r"grid_folds must be an integer of at least 2, got 2\.5"),
        ("seeds", {"sampling": "1"},
         r"seeds\.sampling must be a non-negative integer, got '1'"),
        ("seeds", {"training": True},
         r"seeds\.training must be a non-negative integer, got True"),
        ("excluded_sources", "UNIPROT",
         r"excluded_sources must be a list, got 'UNIPROT'"),
        ("exclude_evidence", "IEA", r"exclude_evidence must be a list, got 'IEA'"),
        ("embedding", {"dimension": 2.5},
         r"embedding: dimension must be an integer of at least 1, got 2\.5"),
        ("grids", ["random_forest"], r"grids must be a mapping"),
        ("kg_variants", ["HP", 3], r"kg_variants\[1\] must be one of 'HP'"),
        ("embedding", {"dimension": 10**30},
         r"embedding: dimension must be an integer that fits in int64, got 1000"),
        ("learners", ["random_forest", "random_forest", "cosine"],
         r"learners\[1\] repeats 'random_forest'"),
        ("grids", {"random_forest": {"n_trees": [10, 10]}},
         r"grids\.random_forest\.n_trees\[1\] repeats 10"),
    ], ids=["fraction-str", "folds-float", "seed-str", "seed-bool",
            "sources-str", "evidence-str", "dimension-float", "grids-list",
            "variant-int", "dimension-beyond-int64", "learner-repeated",
            "grid-candidate-repeated"])
    def test_mistyped_values_exit_1_at_load(self, tmp_path, caplog, key, value,
                                            match):
        corpus = small_corpus(tmp_path / "data")
        config = small_config(corpus, tmp_path / "out")
        if isinstance(value, dict):  # one key of a section is mistyped
            value = {**config.get(key, {}), **value}
        config_path = write_config({**config, key: value},
                                   tmp_path / "config.json")
        with pytest.raises(ConfigurationError, match=match):
            PipelineConfig.from_file(config_path)
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert re.search(match, caplog.text)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ['{"output_dir": ', "[1, 2]"],
                             ids=["truncated", "top-level-list"])
    def test_malformed_config_file_exits_1(self, tmp_path, caplog, text):
        config_path = tmp_path / "config.json"
        config_path.write_text(text)
        with pytest.raises(ConfigurationError, match=re.escape(str(config_path))):
            PipelineConfig.from_file(config_path)
        assert main(["ingest", "--config", str(config_path)]) == 1
        assert f"{config_path}: " in caplog.text

    def test_readme_example_config_loads(self, tmp_path):
        # the documented schema must stay one the loader accepts
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration schema", 1)[1]
        block = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
        config = json.loads(re.sub(r"//.*", "", block))
        corpus = small_corpus(tmp_path / "data")
        written = small_config(corpus, tmp_path / "out")["inputs"]
        assert written.keys() == config["inputs"].keys()
        config.update(inputs=written, output_dir=str(tmp_path / "out"))
        loaded = PipelineConfig.from_file(write_config(config, tmp_path / "c.json"))
        assert loaded.excluded_sources == {"UNIPROT", "OMIM", "ORPHANET"}
        assert loaded.grids["mlp"]["hidden_layers"] == [[100], [200], [100, 50]]

    def test_foreign_model_file_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config = small_config(
            corpus, tmp_path / "out", kg_variants=["HP"], methods=["walk"],
            operators=["hadamard"], learners=["gaussian_nb"])
        config_path = write_config(config, tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair", "train"):
            assert main([stage, "--config", str(config_path)]) == 0
        model_path = (tmp_path / "out" / "train"
                      / "model_HP_walk_hadamard_gaussian_nb.json")
        payload = json.loads(model_path.read_text())
        model_path.write_text(json.dumps({**payload, "kind": "xgboost"}))
        assert main(["evaluate", "--config", str(config_path)]) == 1
        assert f"{model_path}: not a model file: unknown classifier kind " \
            "'xgboost'" in caplog.text

    def test_stale_pair_features_exit_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"],
                         methods=["walk"], operators=["hadamard"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair"):
            assert main([stage, "--config", str(config_path)]) == 0
        # a resampled dataset no longer matches the pair stage's rows
        shutil.rmtree(tmp_path / "out" / "ingest")
        assert main(["ingest", "--config", str(config_path), "--seed", "99"]) == 0
        for stage in ("train", "evaluate"):
            caplog.clear()
            assert main([stage, "--config", str(config_path)]) == 1
            assert "rerun the pair stage" in caplog.text

    def test_model_of_other_features_exits_1(self, tmp_path, caplog):
        corpus = small_corpus(tmp_path / "data")
        config = small_config(corpus, tmp_path / "out", kg_variants=["HP"],
                              methods=["walk"], operators=["hadamard"],
                              learners=["gaussian_nb"])
        config_path = write_config(config, tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair", "train"):
            assert main([stage, "--config", str(config_path)]) == 0
        # new embeddings of another width, and features built from them
        config["embedding"]["dimension"] = 8
        write_config(config, config_path)
        for stage in ("embed", "pair"):
            assert main([stage, "--config", str(config_path)]) == 0
        assert main(["evaluate", "--config", str(config_path)]) == 1
        model_path = (tmp_path / "out" / "train"
                      / "model_HP_walk_hadamard_gaussian_nb.json")
        assert f"{model_path} was trained on 16 feature columns, the pair " \
            "features have 8; rerun the train stage" in caplog.text

    def test_cosine_only_grid_needs_no_pair_stage(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out", kg_variants=["HP"],
                         methods=["walk"], operators=["hadamard", "average"],
                         learners=["cosine"]),
            tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "evaluate"):
            assert main([stage, "--config", str(config_path)]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "evaluate" / "manifest.json").read_text())
        assert not any("features_" in path for path in manifest["inputs"])
        assert sorted(manifest["details"]) == [
            "HP_walk_average_cosine", "HP_walk_hadamard_cosine"]

    def test_stage_registry_order_and_help(self):
        assert STAGES == ("ingest", "build-kg", "baseline", "embed", "pair",
                          "train", "evaluate", "report")
        assert list(STAGE_FUNCTIONS) == list(STAGES)
        helptext = " ".join(build_parser().format_help().split())
        for stage, function in STAGE_FUNCTIONS.items():
            summary = function.__doc__.splitlines()[0]
            assert f"{stage} {' '.join(summary.split())}" in helptext

    def test_parser_errors_carry_file_context(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config_dict = small_config(corpus, tmp_path / "out")
        bad_obo = tmp_path / "data" / "hp.obo"
        bad_obo.write_text("[Term]\nname: stanza without an id\n")
        config = PipelineConfig.from_file(
            write_config(config_dict, tmp_path / "config.json"))
        from gdapred.errors import ParseError
        with pytest.raises(ParseError, match=r"hp\.obo.*line 1"):
            cmd_ingest(config)

    def test_report_with_no_results(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config = PipelineConfig.from_file(write_config(
            small_config(corpus, tmp_path / "out"), tmp_path / "config.json"))
        from gdapred.pipeline import cmd_report
        with pytest.raises(StageDependencyError, match="baseline"):
            cmd_report(config)

    def test_seed_override(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out"), tmp_path / "config.json")
        config = PipelineConfig.from_file(config_path, seed_override=77)
        assert config.seeds == {"sampling": 77, "split": 78,
                                "embedding": 79, "training": 80}

    def test_out_override(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        config_path = write_config(
            small_config(corpus, tmp_path / "out"), tmp_path / "config.json")
        config = PipelineConfig.from_file(config_path,
                                          out_override=str(tmp_path / "elsewhere"))
        assert config.out() == tmp_path / "elsewhere"

    def test_config_validation(self, tmp_path):
        corpus = small_corpus(tmp_path / "data")
        good = small_config(corpus, tmp_path / "out")
        bad = dict(good)
        bad["seeds"] = {"sampling": 1}
        with pytest.raises(ConfigurationError, match="seeds"):
            PipelineConfig.from_file(write_config(bad, tmp_path / "bad1.json"))
        bad = dict(good)
        bad["inputs"] = {**good["inputs"], "hp_obo": str(tmp_path / "missing.obo")}
        with pytest.raises(ConfigurationError, match="does not exist"):
            PipelineConfig.from_file(write_config(bad, tmp_path / "bad2.json"))
        bad = dict(good)
        bad["kg_variants"] = ["HP_WEIRD"]
        with pytest.raises(ConfigurationError, match="variant"):
            PipelineConfig.from_file(write_config(bad, tmp_path / "bad3.json"))
        bad = dict(good)
        bad["grids"] = {"random_forest": "everything"}
        with pytest.raises(ConfigurationError, match="default"):
            PipelineConfig.from_file(write_config(bad, tmp_path / "bad4.json"))
        bad = dict(good)
        bad["embedding"] = {**good["embedding"], "dimensions": 8}
        with pytest.raises(ConfigurationError, match="dimensions"):
            PipelineConfig.from_file(write_config(bad, tmp_path / "bad5.json"))
        # classifier hyperparameters are checked at load, not by `train`
        for i, (key, value, match) in enumerate((
                ("classifier_params", {"random_forest": {"ntrees": 3}},
                 r"classifier_params\.random_forest: 'ntrees'"),
                ("grids", {"random_forest": {"depth": [2]}},
                 r"grids\.random_forest: 'depth'"),
                ("grids", {"random_forest": {"n_trees": []}},
                 r"grids\.random_forest\.n_trees must be a non-empty list"),
                ("grid_folds", 1, "grid_folds must be an integer of at least 2, got 1"),
                # a misspelt input or seed name
                ("inputs", {**good["inputs"], "go_ob": good["inputs"]["hp_obo"]},
                 "unknown inputs names: go_ob"),
                ("seeds", {**good["seeds"], "embeding": 9},
                 "unknown seeds names: embeding"),
                # a misspelt top-level key, and the field filled by the loader
                ("kg_variant", ["HP_GO_LD"], "unknown config keys: kg_variant"),
                ("raw", {}, "unknown config keys: raw"))):
            bad = {**good, key: value}
            with pytest.raises(ConfigurationError, match=match):
                PipelineConfig.from_file(
                    write_config(bad, tmp_path / f"bad_learner{i}.json"))

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", math.nan), ("margin", math.inf), ("l2_penalty", -1.0)])
    def test_embedding_rates_checked_at_load(self, tmp_path, key, value):
        corpus = small_corpus(tmp_path / "data")
        good = small_config(corpus, tmp_path / "out")
        bad = {**good, "embedding": {**good["embedding"], key: value}}
        with pytest.raises(ConfigurationError, match=key):
            PipelineConfig.from_file(write_config(bad, tmp_path / "bad.json"))

    def test_default_grid_resolution(self, tmp_path):
        # "default" resolves to the documented candidate lists; gaussian_nb
        # has an empty default grid and falls through to a plain fit
        corpus = small_corpus(tmp_path / "data")
        config = small_config(
            corpus, tmp_path / "out", kg_variants=["HP"], methods=["walk"],
            operators=["hadamard"], learners=["gaussian_nb"],
            grids={"gaussian_nb": "default"})
        config_path = write_config(config, tmp_path / "config.json")
        for stage in ("ingest", "build-kg", "embed", "pair", "train"):
            assert main([stage, "--config", str(config_path)]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "train" / "manifest.json").read_text())
        assert "HP_walk_hadamard_gaussian_nb" in manifest["details"]

    def test_derived_seeds_are_stable(self):
        assert derive_seed(3, "HP/walk") == derive_seed(3, "HP/walk")
        assert derive_seed(3, "HP/walk") != derive_seed(3, "HP/distmult")
        assert derive_seed(3, "HP/walk") != derive_seed(4, "HP/walk")

    def test_installed_entry_point(self):
        import shutil as sh
        exe = sh.which("gdapred")
        if exe is None:
            pytest.skip("console script not on PATH")
        out = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert out.returncode == 0
        assert out.stdout.strip() == "0.1.0"
        helptext = subprocess.run([exe, "--help"], capture_output=True,
                                  text=True).stdout
        for stage in ("ingest", "build-kg", "baseline", "embed", "pair",
                      "train", "evaluate", "report"):
            assert stage in helptext

    def test_no_stage_imports_numpy_ma(self, tmp_path):
        # numpy.ma costs about 1 MiB and 15 ms to import; a fresh
        # interpreter, so that the test runner's own imports do not count
        corpus = small_corpus(tmp_path / "data", n_genes=12, n_diseases=8)
        config = small_config(
            corpus, tmp_path / "out", kg_variants=["HP"],
            methods=["walk", "walk_lexical", "transe", "distmult"],
            operators=["hadamard"], learners=[*CLASSIFIER_KINDS, "cosine"],
            grids={"random_forest": {"n_trees": [2, 3]}}, grid_folds=2,
            classifier_params={"random_forest": {"n_trees": 3},
                               "mlp": {"hidden_layers": [4], "epochs": 3}})
        config_path = write_config(config, tmp_path / "config.json")
        script = ("import sys\n"
                  "from gdapred.cli import main\n"
                  "from gdapred.pipeline import STAGES\n"
                  "for stage in STAGES:\n"
                  "    code = main([stage, '--config', sys.argv[1]])\n"
                  "    print(stage, code, 'numpy.ma' in sys.modules)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script, str(config_path)],
                              env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines() == [f"{stage} 0 False" for stage in STAGES]



#: three damages of a file's bytes
DAMAGES = {"empty": lambda data: b"", "first-half": lambda data: data[:len(data) // 2],
           "not-utf8": lambda data: b"\xff\xfe" + data}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Every stage run once, over every learner, on a tiny corpus."""
    root = tmp_path_factory.mktemp("tiny_run")
    corpus = small_corpus(root / "data", n_genes=12, n_diseases=8)
    config = small_config(
        corpus, root / "out", kg_variants=["HP"], methods=["walk_lexical"],
        operators=["hadamard"], learners=[*CLASSIFIER_KINDS, "cosine"],
        ssm_measures=["BMA_seco"],
        classifier_params={"random_forest": {"n_trees": 3},
                           "mlp": {"hidden_layers": [4], "epochs": 3}})
    config_path = write_config(config, root / "config.json")
    for stage in STAGES:
        assert main([stage, "--config", str(config_path)]) == 0
    return root / "out", config_path


@contextlib.contextmanager
def damaged(path: Path, data: bytes, out_dir: Path):
    """``path`` holds ``data`` inside the block; afterwards it and every
    stage's files are as before."""
    before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    path.write_bytes(data)
    try:
        yield
    finally:
        for p in out_dir.rglob("*"):
            if p.is_file() and p not in before:
                p.unlink()
        for p, content in before.items():
            if p.read_bytes() != content:
                p.write_bytes(content)


class TestDamagedFiles:
    def test_no_stage_raises_on_a_damaged_artifact(self, tiny_run):
        # each stage, with each file of an earlier stage that it read damaged
        out_dir, config_path = tiny_run
        runs = 0
        for manifest_path in sorted(out_dir.glob("*/manifest.json")):
            manifest = json.loads(manifest_path.read_text())
            for path in map(Path, manifest["inputs"]):
                if not path.is_relative_to(out_dir):
                    continue  # a configured input
                for name, damage in DAMAGES.items():
                    with damaged(path, damage(path.read_bytes()), out_dir):
                        code = main([manifest["stage"], "--config", str(config_path)])
                    assert code in (0, 1), (manifest["stage"], path, name)
                    runs += 1
        assert runs > 50

    @pytest.mark.parametrize("stage, name, damage", [
        ("build-kg", "ingest/annotations_gene_hp.tsv", "not-utf8"),
        ("baseline", "ingest/dataset.tsv", "not-utf8"),
        ("baseline", "kg/kg_HP.tsv", "not-utf8"),
        ("embed", "kg/kg_HP.tsv", "not-utf8"),
        ("pair", "ingest/dataset.tsv", "not-utf8"),
        ("train", "ingest/dataset.tsv", "not-utf8"),
        ("baseline", "ingest/annotations_disease_hp.tsv", "not-utf8"),
        ("evaluate", "ingest/dataset.tsv", "not-utf8"),
        ("report", "baseline/baseline.json", "empty"),
        ("report", "evaluate/manifest.json", "first-half"),
        ("report", "evaluate/manifest.json", "not-utf8"),
    ], ids=str)
    def test_undecodable_artifact_exits_1_naming_it(self, tiny_run, caplog,
                                                    stage, name, damage):
        out_dir, config_path = tiny_run
        path = out_dir / name
        with damaged(path, DAMAGES[damage](path.read_bytes()), out_dir):
            assert main([stage, "--config", str(config_path)]) == 1
        assert f"{path}: not UTF-8" in caplog.text

    def test_model_that_does_not_fit_its_width_exits_1_naming_it(self, tiny_run,
                                                                 caplog):
        out_dir, config_path = tiny_run
        path = out_dir / "train" / "model_HP_walk_lexical_hadamard_mlp.json"
        model = json.loads(path.read_text())
        theta = decode_array(model["parameters"]["theta"], "theta")
        model["parameters"]["theta"] = encode_array(theta[:-1])  # one float short
        with damaged(path, json.dumps(model).encode(), out_dir):
            assert main(["evaluate", "--config", str(config_path)]) == 1
        assert (f"{path}: not a model file: theta has shape ({theta.size - 1},), "
                f"expected ({theta.size},)") in caplog.text

    def test_empty_annotations_file_exits_1(self, tiny_run, caplog):
        # header and all: without the header check it read as no annotations
        out_dir, config_path = tiny_run
        path = out_dir / "ingest" / "annotations_gene_hp.tsv"
        with damaged(path, b"", out_dir):
            assert main(["build-kg", "--config", str(config_path)]) == 1
        assert f"{path}, line 1: expected 2 cells, found 1" in caplog.text

    @pytest.mark.parametrize("stage", ["baseline", "pair", "train", "evaluate"])
    def test_repeated_dataset_pair_exits_1_naming_the_line(self, tiny_run, caplog,
                                                           stage):
        out_dir, config_path = tiny_run
        path = out_dir / "ingest" / "dataset.tsv"
        lines = path.read_bytes().splitlines(keepends=True)
        with damaged(path, b"".join([*lines, lines[3]]), out_dir):
            assert main([stage, "--config", str(config_path)]) == 1
        gene, disease = lines[3].decode().split("\t")[:2]
        assert (f"{path}, line {len(lines) + 1}: repeats the pair "
                f"({gene}, {disease})") in caplog.text

    @pytest.mark.parametrize("stage", ["baseline", "pair", "train", "evaluate"])
    def test_dataset_without_pairs_exits_1(self, tiny_run, caplog, stage):
        out_dir, config_path = tiny_run
        path = out_dir / "ingest" / "dataset.tsv"
        header = path.read_bytes().splitlines(keepends=True)[0]
        with damaged(path, header, out_dir):
            assert main([stage, "--config", str(config_path)]) == 1
        assert f"{path}: holds no pairs" in caplog.text

    @pytest.mark.parametrize("stage", ["ingest", "build-kg", "embed"])
    def test_configured_input_not_utf8_is_parse_error(self, tiny_run, tmp_path,
                                                      caplog, stage):
        out_dir, config_path = tiny_run
        config = json.loads(config_path.read_text())
        hp_obo = tmp_path / "hp.obo"
        hp_obo.write_bytes(b"\xff\xfe" + Path(config["inputs"]["hp_obo"]).read_bytes())
        config["inputs"]["hp_obo"] = str(hp_obo)
        config["output_dir"] = str(tmp_path / "out")
        shutil.copytree(out_dir, tmp_path / "out")
        if stage == "ingest":
            (tmp_path / "out" / "ingest" / "dataset.tsv").unlink()
        bad_config = write_config(config, tmp_path / "config.json")
        assert main([stage, "--config", str(bad_config)]) == 1
        assert f"{hp_obo}: not UTF-8" in caplog.text
        with pytest.raises(ParseError, match=re.escape(f"{hp_obo}: not UTF-8")):
            STAGE_FUNCTIONS[stage](PipelineConfig.from_file(bad_config))

    def test_input_that_is_a_directory_fails_at_load(self, tiny_run, tmp_path,
                                                     caplog):
        _, config_path = tiny_run
        config = json.loads(config_path.read_text())
        config["inputs"]["gaf"] = str(tmp_path)
        bad_config = write_config(config, tmp_path / "config.json")
        with pytest.raises(ConfigurationError, match=re.escape(
                f"input 'gaf' does not exist or is not a file: {tmp_path}")):
            PipelineConfig.from_file(bad_config)
        assert main(["ingest", "--config", str(bad_config)]) == 1
        assert f"is not a file: {tmp_path}" in caplog.text
