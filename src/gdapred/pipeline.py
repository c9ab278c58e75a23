"""Staged pipeline: ingest -> build-kg -> baseline -> embed -> pair ->
train -> evaluate -> report.

Every stage writes its artifacts plus a manifest listing the digests of
everything it read and produced; wall-clock timings go to a sidecar file
so deterministic reruns stay byte-identical. Seeds are explicit in the
configuration and per-cell seeds are derived from them by hashing the
cell name.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import logging
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .artifacts import read_json, read_tsv, write_json, write_tsv
from .errors import (
    ConfigurationError,
    GdapredError,
    IntegrityError,
    ParseError,
    StageDependencyError,
)
from .evaluation import (
    evaluate_run,
    read_dataset,
    sample_negatives,
    stratified_split,
    write_dataset,
    write_roc_tsv,
)
from .kg import KG_VARIANTS, build_kg, read_triples, write_triples
from .kge import (
    KGE_METHODS,
    KgeTrainConfig,
    embed,
    read_embeddings,
    write_embeddings,
)
from .learn import (
    CLASSIFIER_KINDS,
    DEFAULT_GRIDS,
    GridSpec,
    grid_search,
    load_model,
    make_classifier,
)
from .ontology import (
    AnnotationMap,
    EntityId,
    filter_associations,
    merge_annotation_maps,
    parse_associations,
    parse_disease_phenotype,
    parse_gaf,
    parse_gene_phenotype,
    parse_mapping,
    parse_obo,
    prune_annotations,
    restrict_annotations,
)
from .pairing import (
    PAIR_OPERATORS,
    build_pair_features,
    cosine_unit_score,
    pair_vectors,
    read_pair_features,
    write_pair_features,
)
from .semsim import SSM_CONFIGS, PairPlan, ic_table, ssm_baseline, write_scored_pairs
from .validation import at_least, bound, check_fields, one_of

logger = logging.getLogger(__name__)

COSINE = "cosine"
SEED_NAMES = ("sampling", "split", "embedding", "training")
_SSM_NAMES = tuple(c.name for c in SSM_CONFIGS)

REQUIRED_INPUTS = ("hp_obo", "gaf", "gene_accession_map", "gene_phenotype",
                   "disease_phenotype", "disease_map", "associations")


@dataclass
class PipelineConfig:
    output_dir: str
    inputs: dict[str, str] = field(default_factory=dict)
    seeds: dict[str, int] = at_least(0, default_factory=dict)
    excluded_sources: set[str] = field(default_factory=set)
    exclude_evidence: set[str] = field(default_factory=set)
    kg_variants: list[str] = one_of(KG_VARIANTS, default_factory=lambda: ["HP"])
    ssm_measures: list[str] = one_of(_SSM_NAMES, default_factory=lambda: list(_SSM_NAMES))
    embedding: dict = field(default_factory=dict)
    methods: list[str] = one_of(KGE_METHODS, default_factory=lambda: ["walk"])
    operators: list[str] = one_of(PAIR_OPERATORS, default_factory=lambda: ["hadamard"])
    learners: list[str] = one_of((*CLASSIFIER_KINDS, COSINE),
                                 default_factory=lambda: ["random_forest", COSINE])
    #: classifier kind -> candidate lists; "default" becomes DEFAULT_GRIDS
    grids: dict = field(default_factory=dict)
    classifier_params: dict = field(default_factory=dict)
    grid_folds: int = at_least(2, 5)
    train_fraction: float = bound("in (0, 1)", lambda v: 0 < v < 1, 0.7)
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        check_fields(self)
        for section, required, known in (
                ("inputs", REQUIRED_INPUTS, {*REQUIRED_INPUTS, "go_obo"}),
                ("seeds", SEED_NAMES, set(SEED_NAMES))):
            given = getattr(self, section)
            for name in required:
                if name not in given:
                    raise ConfigurationError(f"missing {section}.{name}")
            unknown = sorted(given.keys() - known)
            if unknown:
                raise ConfigurationError(f"unknown {section} names: " + ", ".join(unknown))
        for name, path in self.inputs.items():
            if not Path(path).is_file():
                raise ConfigurationError(f"input {name!r} does not exist or is "
                                         f"not a file: {path}")
        if any(v != "HP" for v in self.kg_variants) and "go_obo" not in self.inputs:
            raise ConfigurationError("GO-based variants need inputs.go_obo")
        grids = {}
        for section_name, section in (("grids", self.grids),
                                      ("classifier_params", self.classifier_params)):
            grid = section_name == "grids"
            for kind, value in section.items():
                where = f"{section_name}.{kind}"
                if kind not in CLASSIFIER_KINDS:
                    raise ConfigurationError(
                        f"{section_name} names unknown classifier {kind!r}")
                if grid and value == "default":
                    value = DEFAULT_GRIDS[kind]
                elif not isinstance(value, dict):
                    raise ConfigurationError(
                        f"{where} must be a mapping" + " or 'default'" * grid)
                cls = CLASSIFIER_KINDS[kind]
                names = {f.name for f in fields(cls)}
                for key, candidates in value.items():
                    if key not in names:
                        raise ConfigurationError(
                            f"{where}: {key!r} is not a parameter of {kind}")
                    if not grid:
                        continue
                    if not (isinstance(candidates, list) and candidates):
                        raise ConfigurationError(f"{where}.{key} must be a non-empty list")
                    for i, option in enumerate(candidates):
                        if option in candidates[:i]:
                            raise ConfigurationError(f"{where}.{key}[{i}] repeats {option!r}")
                # checked by the class itself: bench/tracing.py wraps
                # make_classifier here and expects it inside a stage
                for params in GridSpec(value).combinations() if grid else [value]:
                    try:
                        cls(**params)
                    except ConfigurationError as err:
                        raise ConfigurationError(f"{where}: {err}") from err
                if grid:
                    grids[kind] = value
        self.grids = grids
        try:
            self.kge_config(0)
        except (TypeError, ConfigurationError) as err:
            raise ConfigurationError(f"embedding: {err}") from err

    @classmethod
    def from_file(cls, path, out_override: str | None = None,
                  seed_override: int | None = None) -> "PipelineConfig":
        """Load a JSON config; a key that names no field is an error."""
        try:
            raw = read_json(path)
        except OSError as err:
            raise ConfigurationError(f"{path}: {err}") from err
        except IntegrityError as err:
            raise ConfigurationError(str(err)) from err
        if not isinstance(raw, dict):
            raise ConfigurationError(f"{path}: the top level is not a JSON object")
        if seed_override is not None:
            raw["seeds"] = {name: seed_override + i
                            for i, name in enumerate(SEED_NAMES)}
        if out_override is not None:
            raw["output_dir"] = out_override
        if "output_dir" not in raw:
            raise ConfigurationError("config needs an output_dir")
        unknown = sorted(raw.keys() - {f.name for f in fields(cls) if f.name != "raw"})
        if unknown:
            raise ConfigurationError("unknown config keys: " + ", ".join(unknown))
        return cls(**raw, raw=raw)

    def kge_config(self, seed: int) -> KgeTrainConfig:
        return KgeTrainConfig(**self.embedding, seed=seed)

    def out(self) -> Path:
        return Path(self.output_dir)

    def echo(self) -> dict:
        return self.raw or {
            "inputs": self.inputs, "seeds": self.seeds,
            "output_dir": self.output_dir,
        }


def derive_seed(base: int, label: str) -> int:
    """Stable per-cell seed: base combined with a hash of the cell name."""
    digest = hashlib.sha256(f"{base}:{label}".encode()).hexdigest()
    return int(digest[:12], 16)


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(run: StageRun, details: dict) -> None:
    write_json(run.dir / "manifest.json", {
        "stage": run.stage,
        "tool_version": __version__,
        "config": run.config.echo(),
        "inputs": {str(p): file_digest(p) for p in sorted(run.inputs, key=str)},
        "outputs": {p.name: file_digest(p) for p in sorted(run.outputs, key=str)},
        "details": details,
    })


def write_timings(run: StageRun, seconds: float) -> None:
    # separate file: wall-clock numbers must not break manifest determinism
    write_json(run.dir / "timings.json",
               {"stage": run.stage, "seconds": seconds, "cells": run.cells})


#: stage name -> its stage function, in run order; ``_stage`` fills it
STAGE_FUNCTIONS: dict = {}
#: stage name -> the directory under ``output_dir`` that holds its files
_STAGE_DIRS: dict[str, str] = {}


class StageRun:
    """The files one execution of a stage reads and writes.

    Every file a stage reads goes through ``read`` or ``need`` and every
    file it writes through ``output``, so the manifest lists exactly the
    files the stage used.
    """

    def __init__(self, config: PipelineConfig, stage: str):
        self.config = config
        self.stage = stage
        self.dir = config.out() / _STAGE_DIRS[stage]
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []
        #: manifest details, when they differ from what the stage returns
        self.details: dict | None = None
        #: wall seconds per grid cell, for ``timings.json`` only
        self.cells: dict[str, float] = {}

    def read(self, path) -> Path:
        path = Path(path)
        self.inputs.append(path)
        return path

    def need(self, stage: str, name: str, required: bool = True) -> Path | None:
        """The artifact ``name`` of an earlier ``stage``, as an input. A
        missing one raises, or gives None when it is not ``required``."""
        path = self.config.out() / _STAGE_DIRS[stage] / name
        if path.exists():
            return self.read(path)
        if required:
            raise StageDependencyError(
                f"missing artifact {path}; run the {stage} stage first")
        return None

    def output(self, name: str) -> Path:
        path = self.dir / name
        self.outputs.append(path)
        return path

    @contextlib.contextmanager
    def timed(self, *cells: str):
        """Time the block as the work of ``cells``. Cells that share one
        piece of work, such as the cosine cells of one (variant, method),
        each record its whole time."""
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0
        for cell in cells:
            self.cells[cell] = seconds


def _stage(name: str, dirname: str):
    """Register a body ``(config, run) -> result`` as the stage ``name``,
    whose files live in ``dirname``. The stage ``(config) -> result``
    creates the directory, times the body and writes ``manifest.json``
    and ``timings.json``."""
    def decorate(body):
        @functools.wraps(body)
        def run_stage(config: PipelineConfig):
            t0 = time.perf_counter()
            run = StageRun(config, name)
            run.dir.mkdir(parents=True, exist_ok=True)
            result = body(config, run)
            write_manifest(run, result if run.details is None else run.details)
            write_timings(run, time.perf_counter() - t0)
            return result
        STAGE_FUNCTIONS[name] = run_stage
        _STAGE_DIRS[name] = dirname
        return run_stage
    return decorate


def write_annotation_tsv(amap: AnnotationMap, path: Path) -> None:
    write_tsv(path, ("entity", "term"), (
        (entity.id, term)
        for entity in sorted(amap.entries, key=lambda e: e.id)
        for term in sorted(amap.entries[entity])))


def read_annotation_tsv(path: Path, kind: str) -> AnnotationMap:
    amap = AnnotationMap()
    rows = read_tsv(path, width=2)
    next(rows)  # header
    for lineno, (entity_id, term) in enumerate(rows, start=2):
        if not entity_id:
            raise IntegrityError(f"{path}, line {lineno}: empty entity id")
        amap.add(EntityId(entity_id, kind), term)
    return amap


def _parse_input(run: StageRun, parser, name: str, *args):
    """Parse the configured input ``name``, prefixing any error with its path."""
    path = run.read(run.config.inputs[name])
    try:
        return parser(path.read_text(encoding="utf-8"), *args)
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8: {err}") from None
    except GdapredError as err:
        raise type(err)(f"{path}: {err}") from err


def _read_annotations(run: StageRun, kind: str, ontology: str) -> AnnotationMap:
    path = run.need("ingest", f"annotations_{kind}_{ontology}.tsv")
    return read_annotation_tsv(path, kind)


def _grid(config: PipelineConfig):
    """Each (variant, method) cell with the name of its embeddings file and
    the names of its features files, by pair operator."""
    for variant in config.kg_variants:
        for method in config.methods:
            yield variant, method, f"embeddings_{variant}_{method}.npy", {
                op: f"features_{variant}_{method}_{op}.npy"
                for op in config.operators}


def _cell_name(cell_config: dict) -> str:
    return "_".join(cell_config.values())


def _classifier_cells(run: StageRun, config: PipelineConfig, dataset):
    """Each grid cell of a classifier learner, with the pair features it
    uses, its model file name and its seed. The features must list the
    dataset's pairs in order. Cosine cells use neither features nor a
    model, so a cosine-only grid reads no features file."""
    kinds = [kind for kind in config.learners if kind != COSINE]
    if not kinds:
        return
    pairs = dataset.id_pairs()
    for variant, method, _, features_names in _grid(config):
        for operator, features_name in features_names.items():
            path = run.need("pair", features_name)
            ids, features = read_pair_features(path)
            if ids != pairs:
                raise IntegrityError(
                    f"{path} does not hold the pairs of the current "
                    "dataset.tsv in order; rerun the pair stage")
            for kind in kinds:
                cell_config = {"variant": variant, "method": method,
                               "operator": operator, "learner": kind}
                cell = _cell_name(cell_config)
                yield (features, cell_config, f"model_{cell}.json",
                       derive_seed(config.seeds["training"], cell))


def _write_eval(run: StageRun, cell: str, report) -> dict:
    """Write one cell's report and ROC curve; return its summary row."""
    report.write(run.output(f"eval_{cell}.json"))
    write_roc_tsv(report.roc, run.output(f"roc_{cell}.tsv"))
    logger.info("%s %s: WAF=%.4f AUC=%.4f", run.stage, cell,
                report.waf, report.auc)
    return {"waf": report.waf, "auc": report.auc, "threshold": report.threshold}


@_stage("ingest", "ingest")
def cmd_ingest(config: PipelineConfig, run: StageRun) -> dict:
    """Parse inputs, filter association pairs, sample negatives, split."""
    dataset_path = run.output("dataset.tsv")
    if dataset_path.exists():
        raise ConfigurationError(
            f"{dataset_path} already exists; remove it to resample "
            "(the persisted split is reused by every downstream stage)")

    hp = _parse_input(run, parse_obo, "hp_obo")
    go = None
    if "go_obo" in config.inputs:
        go = _parse_input(run, parse_obo, "go_obo")

    accession_map = _parse_input(run, parse_mapping, "gene_accession_map")
    disease_map = _parse_input(run, parse_mapping, "disease_map")
    gene_go = _parse_input(run, parse_gaf, "gaf", accession_map,
                           config.exclude_evidence or None)
    gene_hp = _parse_input(run, parse_gene_phenotype, "gene_phenotype")
    disease_hp = _parse_input(run, parse_disease_phenotype,
                              "disease_phenotype", disease_map)

    gene_hp = prune_annotations(gene_hp, [hp])
    disease_hp = prune_annotations(disease_hp, [hp])
    if go is not None:
        gene_go = prune_annotations(gene_go, [go])

    associations = _parse_input(run, parse_associations, "associations")
    kept = filter_associations(associations, config.excluded_sources,
                               gene_go, gene_hp, disease_hp)
    logger.info("ingest: %d/%d association pairs kept", len(kept), len(associations))

    dataset = sample_negatives([(a.gene, a.disease) for a in kept],
                               seed=config.seeds["sampling"])
    dataset = stratified_split(dataset, config.train_fraction,
                               seed=config.seeds["split"])
    write_dataset(dataset, dataset_path)

    write_tsv(run.output("positives.tsv"), ("gene", "disease", "sources"), (
        (a.gene.id, a.disease.id, ";".join(sorted(a.sources))) for a in kept))

    genes, diseases = set(dataset.genes), set(dataset.diseases)
    files = {
        "annotations_gene_hp.tsv": restrict_annotations(gene_hp, genes),
        "annotations_disease_hp.tsv": restrict_annotations(disease_hp, diseases),
        "annotations_gene_go.tsv": restrict_annotations(gene_go, genes),
    }
    for name, amap in files.items():
        write_annotation_tsv(amap, run.output(name))

    return {
        "genes": len({a.gene for a in kept}),
        "diseases": len({a.disease for a in kept}),
        "positive_pairs": len(kept),
        "dataset_pairs": len(dataset),
        "raw_association_pairs": len(associations),
        # parser skip counters and prune drop counts, by input name
        "counters": {name: parsed.stats for name, parsed in zip(
            ("hp_obo", "go_obo", "gaf", "gene_phenotype", "disease_phenotype"),
            (hp, go, gene_go, gene_hp, disease_hp)) if parsed is not None},
    }


@_stage("build-kg", "kg")
def cmd_build_kg(config: PipelineConfig, run: StageRun) -> dict:
    """Assemble every requested KG variant from ontologies + annotations."""
    gene_hp = _read_annotations(run, "gene", "hp")
    disease_hp = _read_annotations(run, "disease", "hp")
    hp = _parse_input(run, parse_obo, "hp_obo")
    go = gene_go = None
    if any(variant != "HP" for variant in config.kg_variants):
        go = _parse_input(run, parse_obo, "go_obo")
        gene_go = _read_annotations(run, "gene", "go")

    details = {}
    for variant in config.kg_variants:
        kg = build_kg(variant, hp, go, gene_hp=gene_hp, disease_hp=disease_hp,
                      gene_go=gene_go)
        write_triples(kg, run.output(f"kg_{variant}.tsv"))
        details[variant] = {"nodes": kg.node_count, "triples": kg.triple_count,
                            **kg.notes}
        logger.info("build-kg: %s has %d nodes, %d triples",
                    variant, kg.node_count, kg.triple_count)
    return details


@_stage("baseline", "baseline")
def cmd_baseline(config: PipelineConfig, run: StageRun) -> dict:
    """Six-measure similarity baseline on the single-ontology KG."""
    dataset = read_dataset(run.need("ingest", "dataset.tsv"))
    kg = read_triples(run.need("build-kg", "kg_HP.tsv"), "HP")
    annotations = merge_annotation_maps(_read_annotations(run, "gene", "hp"),
                                        _read_annotations(run, "disease", "hp"))

    # the pairs, sets and lookups every measure shares
    plan = PairPlan(dataset, kg, annotations)
    if plan.excluded:
        raise IntegrityError(
            "baseline cannot score the persisted dataset: entities without "
            "annotations: " + ", ".join(e.node_id for e in plan.excluded))
    measures = [c for c in SSM_CONFIGS if c.name in config.ssm_measures]
    # one IC table per flavour, shared by its measures and timed apart
    # from them
    tables = {}
    for flavor in dict.fromkeys(c.ic_flavor for c in measures):
        with run.timed(f"ic_{flavor}"):
            tables[flavor] = ic_table(flavor, kg, annotations)
    rows = {}
    for ssm_config in measures:
        with run.timed(ssm_config.name):
            raw, normalized = ssm_baseline(plan, ssm_config,
                                           tables[ssm_config.ic_flavor])
            write_scored_pairs(dataset, plan.rows, raw, normalized,
                               run.output(f"scored_{ssm_config.name}.tsv"))
            report = evaluate_run(
                dataset, "score_threshold", scores=normalized,
                config={"measure": ssm_config.name}, seed=config.seeds["split"])
            rows[ssm_config.name] = _write_eval(run, ssm_config.name, report)

    best = max(rows, key=lambda name: (rows[name]["waf"], name)) if rows else None
    summary = {"measures": rows, "best": best}
    write_json(run.output("baseline.json"), summary)
    # one column per measure, the best WAF starred
    ordered = [c.name for c in measures]
    table = [[metric, *(rows[n][metric] for n in ordered)]
             for metric in ("waf", "auc", "threshold")]
    if best is not None:
        table[0][1 + ordered.index(best)] = f"{rows[best]['waf']!r}*"
    write_tsv(run.output("baseline.tsv"), ("metric", *ordered), table)
    return summary


@_stage("embed", "embed")
def cmd_embed(config: PipelineConfig, run: StageRun) -> dict:
    """Train an embedding table per (variant, method) grid cell."""
    details = {}
    kg = ontologies = None
    for variant, method, name, _ in _grid(config):
        cell = f"{variant}/{method}"
        with run.timed(cell):
            if kg is None or kg.variant != variant:
                kg = read_triples(run.need("build-kg", f"kg_{variant}.tsv"),
                                  variant)
            seed = derive_seed(config.seeds["embedding"], cell)
            if method == "walk_lexical" and ontologies is None:
                ontologies = [_parse_input(run, parse_obo, "hp_obo")]
                if "go_obo" in config.inputs:
                    ontologies.append(_parse_input(run, parse_obo, "go_obo"))
            table = embed(kg, method, config.kge_config(seed), ontologies or ())
            write_embeddings(table, run.output(name))
            details[cell] = {
                "seed": seed, "dimension": table.dimension,
                "nodes": len(table.nodes), "loss_history": table.loss_history,
            }
            logger.info("embed %s/%s: %d vectors (dim %d)", variant, method,
                        len(table.nodes), table.dimension)
    return details


@_stage("pair", "pair")
def cmd_pair(config: PipelineConfig, run: StageRun) -> dict:
    """Combine gene/disease vectors for every (variant, method, operator)."""
    dataset = read_dataset(run.need("ingest", "dataset.tsv"))
    ids = dataset.id_pairs()
    details = {}
    for variant, method, name, features_names in _grid(config):
        table = read_embeddings(run.need("embed", name))
        cells = {op: f"{variant}/{method}/{op}" for op in features_names}
        # the operators of one table share its gather, and its time
        with run.timed(*cells.values()):
            built = build_pair_features(dataset, table, features_names)
            for operator, features_name in features_names.items():
                features = built[operator]
                write_pair_features(ids, features, run.output(features_name))
                details[cells[operator]] = {
                    "rows": features.shape[0], "columns": features.shape[1]}
    return details


@_stage("train", "train")
def cmd_train(config: PipelineConfig, run: StageRun) -> dict:
    """Fit every requested classifier on the training partition only."""
    dataset = read_dataset(run.need("ingest", "dataset.tsv"))
    train_idx = dataset.partition_indices("train")
    y_train = dataset.labels[train_idx]
    details = {}
    for features, cell_config, model_name, seed in _classifier_cells(
            run, config, dataset):
        kind, cell = cell_config["learner"], _cell_name(cell_config)
        with run.timed(cell):
            X_train = features[train_idx]
            grid = config.grids.get(kind)
            if grid:
                spec = GridSpec(grid, fold_count=config.grid_folds)
                best_params, model = grid_search(
                    functools.partial(make_classifier, kind),
                    X_train, y_train, spec, seed)
            else:
                params = config.classifier_params.get(kind, {})
                model = make_classifier(kind, params, seed).fit(X_train, y_train)
                best_params = dict(params)
            model.save(run.output(model_name))
            details[cell] = {"seed": seed, "best_params": best_params}
            logger.info("train %s done", cell)
    return details


@_stage("evaluate", "evaluate")
def cmd_evaluate(config: PipelineConfig, run: StageRun) -> dict:
    """Score every grid cell; cosine cells reuse the baseline protocol."""
    dataset = read_dataset(run.need("ingest", "dataset.tsv"))
    details = {}
    summary = []

    def record(report) -> None:
        cell = _cell_name(report.config)
        details[cell] = _write_eval(run, cell, report)
        summary.append((*report.config.values(), details[cell]))

    cosine_cells = _grid(config) if COSINE in config.learners else ()
    for variant, method, name, features_names in cosine_cells:
        # a cosine cell ignores the operator: one report, under each operator
        cell_configs = [{"variant": variant, "method": method,
                         "operator": operator, "learner": COSINE}
                        for operator in features_names]
        with run.timed(*map(_cell_name, cell_configs)):
            table = read_embeddings(run.need("embed", name))
            report = evaluate_run(
                dataset, "score_threshold",
                scores=cosine_unit_score(*pair_vectors(dataset, table)),
                seed=config.seeds["split"])
            for cell_config in cell_configs:
                record(replace(report, config=cell_config))
    for features, cell_config, model_name, seed in _classifier_cells(
            run, config, dataset):
        with run.timed(_cell_name(cell_config)):
            model_path = run.need("train", model_name)
            model = load_model(model_path)
            width = features.shape[1]
            if model.n_features_ != width:
                raise IntegrityError(
                    f"{model_path} was trained on {model.n_features_} feature "
                    f"columns, the pair features have {width}; rerun the train stage")
            record(evaluate_run(dataset, "classifier", model=model,
                                features=features, config=cell_config, seed=seed))
    summary.sort(key=lambda r: r[:4])
    write_tsv(run.output("summary.tsv"),
              ("variant", "method", "operator", "learner", "waf", "auc", "threshold"),
              ((*cell, row["waf"], row["auc"], row["threshold"])
               for *cell, row in summary))
    return details


@_stage("report", "report")
def cmd_report(config: PipelineConfig, run: StageRun) -> dict:
    """Rank all results by WAF, with improvement over the best baseline."""
    results = {}  # row-name prefix -> {name: {"waf": ..., "auc": ...}}
    for prefix, stage, name, key in (
            ("baseline", "baseline", "baseline.json", "measures"),
            ("grid", "evaluate", "manifest.json", "details")):
        path = run.need(stage, name, required=False)
        if path is not None:
            results[prefix] = read_json(path)[key]
    if "baseline" not in results and not results.get("grid"):
        raise StageDependencyError(
            "nothing to report: run the baseline and/or evaluate stages first")

    best_baseline_waf = max(
        (row["waf"] for row in results.get("baseline", {}).values()), default=None)
    rows = [{"name": f"{prefix}/{name}", "waf": row["waf"], "auc": row["auc"]}
            for prefix, named in results.items() for name, row in named.items()]
    for row in rows:
        if best_baseline_waf:
            row["improvement_over_best_baseline"] = (
                (row["waf"] - best_baseline_waf) / best_baseline_waf)
        else:
            row["improvement_over_best_baseline"] = None
    rows.sort(key=lambda r: (-r["waf"], r["name"]))

    report = {"best_baseline_waf": best_baseline_waf, "ranking": rows}
    write_json(run.output("report.json"), report)
    with open(run.output("report.md"), "w", encoding="utf-8") as fh:
        fh.write("| rank | name | WAF | AUC | vs best baseline |\n")
        fh.write("|---|---|---|---|---|\n")
        for i, row in enumerate(rows, start=1):
            delta = row["improvement_over_best_baseline"]
            delta_str = f"{delta:+.1%}" if delta is not None else "n/a"
            fh.write(f"| {i} | {row['name']} | {row['waf']:.4f} | "
                     f"{row['auc']:.4f} | {delta_str} |\n")
    run.details = {"rows": len(rows)}
    return report


STAGES = tuple(STAGE_FUNCTIONS)
