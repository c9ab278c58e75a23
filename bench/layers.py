"""Per-layer metrics: times from traced spans, counts from inputs and outputs.

Every count here is made by the benchmark, not read from the program:
skip-gram pairs from the corpus sentences the trainer received and the
window, term-pair lookups from the persisted annotation sets, grid fits
from the configuration, forest nodes from the saved model JSON, and
bytes and triples from the artifact files.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit of ``kind`` ("end_to_end" or "per_layer"), as
    BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


#: per-layer metric name -> unit; a traced run reports every one of them
UNITS = benchmark_metrics("per_layer")


def _suffixes(prefix: str) -> tuple[str, ...]:
    """The KGE methods, SSM measures or stages that the per-layer names
    under ``prefix`` cover."""
    return tuple(n[len(prefix):] for n in UNITS if n.startswith(prefix))


KGE_METHODS = _suffixes("kge.final_loss.")
SSM_MEASURES = _suffixes("semsim.score_s.")

#: span name -> summed span time reported as the metric
SPAN_SUMS = {
    "kge.walks_s": ("kge.generate_walks",),
    "kge.lexical_s": ("kge.build_lexical_corpus",),
    "kge.write_s": ("kge.write_embeddings",),
    "kge.read_s": ("kge.read_embeddings",),
    "pairing.build_s": ("pairing.build_pair_features",),
    "pairing.write_s": ("pairing.write_pair_features",),
    "pairing.read_s": ("pairing.read_pair_features",),
    "pairing.cosine_s": ("pairing.cosine_unit_score",),
    "semsim.ic_s": ("semsim.ic_seco", "semsim.ic_resnik"),
    "learn.grid_s": ("learn.grid_search",),
    "learn.forest_fit_s": ("learn.RandomForestClassifier.fit",),
    "learn.forest_predict_s": ("learn.RandomForestClassifier.predict_proba",),
    "learn.model_save_s": ("learn.save",),
    "learn.model_load_s": ("learn.load_model",),
    "learn.mlp_fit_s": ("learn.MLPClassifier.fit",),
    "learn.nb_fit_s": ("learn.GaussianNaiveBayes.fit",),
    "evaluation.roc_s": ("evaluation.roc_auc",),
    "evaluation.sweep_s": ("evaluation.threshold_sweep",),
    "evaluation.sample_s": ("evaluation.sample_negatives",),
    "evaluation.split_s": ("evaluation.stratified_split",),
    "ontology.parse_s": tuple(f"ontology.{n}" for n in (
        "parse_obo", "parse_gaf", "parse_gene_phenotype",
        "parse_disease_phenotype", "parse_mapping", "parse_associations")),
    "kg.build_s": ("kg.build_kg",),
    "kg.read_s": ("kg.read_triples",),
    "kg.write_s": ("kg.write_triples",),
    "pipeline.manifest_s": ("pipeline.write_manifest",),
}


def window_pairs(length: int, window: int) -> int:
    """(center, context) pairs in one sentence: every position pairs with
    each other position at most ``window`` away."""
    if length < 2:
        return 0
    return sum(min(length, i + window + 1) - max(0, i - window) - 1
               for i in range(length))


def _skipgram_facts(args, kwargs, table):
    corpus, config = args[0], args[1]
    lengths = Counter(len(s) for s in corpus.sentences)
    return {"method": table.method, "epochs": config.epochs,
            "pairs_per_epoch": sum(n * window_pairs(length, config.window)
                                   for length, n in lengths.items()),
            "final_loss": table.loss_history[-1]}


def _triple_facts(args, kwargs, table):
    kg, config = args[0], args[1]
    return {"method": table.method, "epochs": config.epochs,
            "triples": len(kg.triples), "final_loss": table.loss_history[-1]}


EXTRACTORS = {
    "kge.train_skipgram": _skipgram_facts,
    "kge.train_transe": _triple_facts,
    "kge.train_distmult": _triple_facts,
    "kge.generate_walks": lambda a, k, corpus: {"sentences": len(corpus.sentences)},
    "semsim.ssm_baseline": lambda a, k, r: {"measure": a[1].name},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans, self_times: dict[int, float],
                 scale: dict[int, float] | None = None) -> dict[str, float]:
    """Layer times and counts from one traced run's spans; ``scale`` maps
    span ids to the factor that rescales their times (default 1)."""
    scale = scale or {}
    dur = {s.id: s.duration * scale.get(s.id, 1.0) for s in spans}
    self_times = {i: t * scale.get(i, 1.0) for i, t in self_times.items()}
    total: dict[str, float] = defaultdict(float)
    for s in spans:
        total[s.name] += dur[s.id]
    out = {metric: sum(total[n] for n in names)
           for metric, names in SPAN_SUMS.items()}

    # a call that raised has no attrs; its stage already counts as failed
    sgns = [s for s in spans if s.name == "kge.train_skipgram" and s.attrs]
    sgns_s = sum(dur[s.id] for s in sgns)
    sgns_epochs = sum(s.attrs["epochs"] for s in sgns)
    sgns_pairs = sum(s.attrs["pairs_per_epoch"] * s.attrs["epochs"] for s in sgns)
    out["kge.sgns_s"] = sgns_s
    out["kge.sgns_epoch_s"] = _ratio(sgns_s, sgns_epochs)
    out["kge.sgns_pairs_per_s"] = _ratio(sgns_pairs, sgns_s)
    out["kge.sgns_pairs_per_epoch"] = sum(s.attrs["pairs_per_epoch"] for s in sgns)
    out["kge.walk_sentences"] = sum(s.attrs.get("sentences", 0) for s in spans
                                    if s.name == "kge.generate_walks")

    triple_spans = [s for s in spans if s.attrs and s.name in (
        "kge.train_transe", "kge.train_distmult")]
    for method in ("transe", "distmult"):
        mine = [s for s in triple_spans if s.attrs["method"] == method]
        out[f"kge.{method}_epoch_s"] = _ratio(
            sum(dur[s.id] for s in mine), sum(s.attrs["epochs"] for s in mine))
    out["kge.triples_per_s"] = _ratio(
        sum(s.attrs["triples"] * s.attrs["epochs"] for s in triple_spans),
        sum(dur[s.id] for s in triple_spans))
    for method in KGE_METHODS:
        losses = [s.attrs["final_loss"] for s in sgns + triple_spans
                  if s.attrs["method"] == method]
        out[f"kge.final_loss.{method}"] = _ratio(sum(losses), len(losses))

    for measure in SSM_MEASURES:
        out[f"semsim.score_s.{measure}"] = sum(
            self_times[s.id] for s in spans
            if s.name == "semsim.ssm_baseline"
            and s.attrs.get("measure") == measure)
    for stage in _suffixes("pipeline.self_s."):
        out[f"pipeline.self_s.{stage}"] = sum(
            self_times[s.id] for s in spans if s.name == f"stage.{stage}")
    out["ontology.parse_calls"] = sum(1 for s in spans
                                      if s.name == "ontology.parse_obo")
    return out


# -- counts from files --------------------------------------------------------


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def _size(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def term_pair_counts(out_dir: Path, measures) -> tuple[int, int]:
    """Term-pair lookups and distinct term pairs of the BMA and MAX
    measures: each scored (gene, disease) pair looks up every pair of
    their phenotype terms once, and each measure run memoizes pairs
    without regard to order."""
    ingest = out_dir / "ingest"
    terms: dict[tuple[str, str], set[str]] = defaultdict(set)
    for kind in ("gene", "disease"):
        for entity, term in _read_rows(ingest / f"annotations_{kind}_hp.tsv")[1:]:
            terms[(kind, entity)].add(term)
    lookups = 0
    distinct: set[tuple[str, str]] = set()
    for gene, disease, _, _ in _read_rows(ingest / "dataset.tsv")[1:]:
        g, d = terms.get(("gene", gene)), terms.get(("disease", disease))
        if not g or not d:
            continue
        lookups += len(g) * len(d)
        distinct.update((a, b) if a <= b else (b, a) for a in g for b in d)
    runs = sum(1 for m in measures if m.startswith(("BMA_", "MAX_")))
    return runs * lookups, runs * len(distinct)


def grid_fits(config: dict) -> int:
    """Fits grid search makes: every combination on every fold, plus the
    refit of the winner, for each (variant, method, operator) cell."""
    cells = (len(config["kg_variants"]) * len(config["methods"])
             * len(config["operators"]))
    fits = 0
    for kind in config["learners"]:
        grid = config.get("grids", {}).get(kind)
        if not grid:
            continue
        combos = 1
        for candidates in grid.values():
            combos *= len(candidates)
        fits += combos * config.get("grid_folds", 5) + 1
    return cells * fits


def tree_nodes(node: dict) -> int:
    if "leaf" in node:
        return 1
    return 1 + tree_nodes(node["left"]) + tree_nodes(node["right"])


def file_metrics(out_dir: Path, config: dict) -> dict[str, float]:
    """Layer counts and byte sizes read off one run's artifacts."""
    out: dict[str, float] = {}
    out["kge.table_bytes"] = _size((out_dir / "embed").glob("embeddings_*.txt"))
    out["pairing.feature_bytes"] = _size((out_dir / "pair").glob("features_*.tsv"))

    lookups, distinct = term_pair_counts(
        out_dir, config.get("ssm_measures", SSM_MEASURES))
    out["semsim.term_pair_lookups"] = lookups
    out["semsim.term_pairs_distinct"] = distinct
    out["semsim.memo_hit_ratio"] = _ratio(lookups - distinct, lookups)

    out["learn.grid_fits"] = grid_fits(config)
    models = sorted((out_dir / "train").glob("model_*.json"))
    out["learn.model_bytes"] = _size(models)
    nodes = 0
    for path in models:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if payload["kind"] == "random_forest":
            nodes += sum(tree_nodes(t) for t in payload["parameters"]["trees"])
    out["learn.forest_nodes"] = nodes

    nodes = triples = 0
    for path in sorted((out_dir / "kg").glob("kg_*.tsv")):
        rows = _read_rows(path)
        triples += len(rows)
        nodes += len({n for s, _, o in rows for n in (s, o)})
    out["kg.nodes"] = nodes
    out["kg.triples"] = triples

    digested = 0
    for manifest_path in sorted(out_dir.glob("*/manifest.json")):
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        digested += _size(manifest["inputs"])
        digested += _size(manifest_path.parent / n for n in manifest["outputs"])
    out["pipeline.digest_bytes"] = digested
    out["pipeline.artifact_bytes"] = _size(
        p for p in out_dir.rglob("*") if p.is_file())
    return out
